"""Umbilic geodesic spheres in space forms and their stability spectrum.

A geodesic sphere in a space form of curvature kappa is umbilic, so a cap
on it has constant stability potential q = n(1-delta)(H^2 + kappa) and
its first Dirichlet eigenvalue is that of a geodesic ball in the round
sphere of intrinsic curvature c_int = kappa + H^2.  On the unit n-sphere
the radial eigenfunction with eigenvalue nu(nu+n-1) has the closed form
2F1(-nu, nu+n-1; n/2; sin^2(s/2)), so bracketed root-finding on it, in s
or in nu, gives an exact oracle for the maximal delta-stable cap radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import bounds
from .errors import (
    HypothesisViolation,
    EmptyIntervalError,
    NoApplicableBound,
    NonConvergence,
    PreconditionViolation,
    UnattainableCurvature,
)

#: Relative slack allowed when comparing the oracle radius to a bound.
PASS_SLACK = 1e-8


def cot_kappa(kappa: float, r: float) -> float:
    """Generalized cotangent: principal curvature of the geodesic r-sphere.

    sqrt(k) cot(sqrt(k) r) for k > 0, 1/r for k = 0,
    sqrt(|k|) coth(sqrt(|k|) r) for k < 0.
    """
    if r <= 0.0:
        raise PreconditionViolation(f"radius must be positive, got {r}")
    if kappa > 0.0:
        sq = math.sqrt(kappa)
        if r >= math.pi / sq:
            raise PreconditionViolation(f"radius {r} exceeds the conjugate distance {math.pi / sq}")
        return sq / math.tan(sq * r)
    if kappa < 0.0:
        sq = math.sqrt(-kappa)
        return sq / math.tanh(sq * r)
    return 1.0 / r


@dataclass(frozen=True)
class SphereGeometry:
    """Umbilic geodesic sphere of dimension n in the space form of curvature kappa."""

    n: int
    kappa: float
    H: float
    r_ambient: float
    normA2: float  # |A|^2 = n H^2
    ric_nu: float  # ambient Ricci in the normal direction = n kappa
    c_int: float  # intrinsic sectional curvature = kappa + H^2


def sphere_from_H(n: int, kappa: float, H: float) -> SphereGeometry:
    """Invert cot_kappa: the umbilic sphere with mean curvature H.

    For kappa < 0 only H > sqrt(|kappa|) is attainable (horospheres are
    the limit), for kappa = 0 any H > 0, for kappa > 0 any H >= 0.  The
    intrinsic curvature kappa + H^2 must also be a positive finite float.
    """
    if not (math.isfinite(kappa) and math.isfinite(H)):
        raise PreconditionViolation(f"kappa and H must be finite, got kappa={kappa}, H={H}")
    if kappa < 0.0:
        sq = math.sqrt(-kappa)
        if H <= sq:
            raise UnattainableCurvature(
                f"geodesic spheres in curvature {kappa} have H > {sq}, got {H}"
            )
        r = math.atanh(sq / H) / sq
    elif kappa == 0.0:
        if H <= 0.0:
            raise UnattainableCurvature(f"Euclidean spheres need H > 0, got {H}")
        r = 1.0 / H
    else:
        if H < 0.0:
            raise UnattainableCurvature(f"expected H >= 0 for kappa > 0, got {H}")
        sq = math.sqrt(kappa)
        r = math.atan2(sq, H) / sq
    c_int = kappa + H * H
    if not 0.0 < c_int < math.inf:
        raise PreconditionViolation(
            f"intrinsic curvature kappa + H^2 = {c_int} is out of float range "
            f"(kappa={kappa}, H={H})"
        )
    return SphereGeometry(
        n=n,
        kappa=kappa,
        H=H,
        r_ambient=r,
        normA2=n * H * H,
        ric_nu=n * kappa,
        c_int=c_int,
    )


@dataclass(frozen=True)
class CapCase:
    """A geodesic cap on an umbilic sphere together with its stability potential."""

    geometry: SphereGeometry
    delta: float
    rho: float
    q: float  # (1-delta)(|A|^2 + Ric(nu)) = n(1-delta) c_int

    @classmethod
    def make(cls, geometry: SphereGeometry, delta: float, rho: float) -> "CapCase":
        if not 0.0 <= delta < 1.0:
            raise PreconditionViolation(f"delta must lie in [0, 1), got {delta}")
        full = math.pi / math.sqrt(geometry.c_int)
        if not 0.0 < rho < full:
            raise PreconditionViolation(f"cap radius must lie in (0, {full}), got {rho}")
        q = geometry.n * (1.0 - delta) * geometry.c_int
        return cls(geometry=geometry, delta=delta, rho=rho, q=q)


_EULER_GAMMA = 0.5772156649015329
#: Relative accuracy at which the series stop and the root-finder brackets a root.
_EPS = 2.0**-52
#: The scan for the cap radius ends here, short of pi where the radial
#: function diverges; a zero past this point is reported as no radius.
S_MAX = math.pi * (1.0 - 1e-9)
#: Scan points in s for the cap radius, which lies in [pi/2, pi): the
#: distance to pi halves from one point to the next.
_CAP_SCAN = tuple(math.pi * (1.0 - 2.0**-k) for k in range(1, 30)) + (S_MAX,)
#: Growth factor of the bracket in nu.  For s <= pi/2 the second radial zero
#: in nu lies at least 1.83 times above the first (the least ratio is at
#: n = 4, s -> 0), so no cell of the bracket holds both.
_NU_GROWTH = 1.5


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 10, then the asymptotic series."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = 1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y * (1 / 132 - y * 691 / 32760))))
    return acc + math.log(x) - 0.5 / x - y * tail


def _gauss_series(n: int, nu: float, z: float) -> float:
    """2F1(-nu, nu+n-1; n/2; z) summed term by term, for z <= 1/2 (s <= pi/2).

    Once a term is negligible the term ratio stays below 2z <= 1, so the
    rest of the series is negligible too.
    """
    a, b, c = -nu, nu + n - 1.0, 0.5 * n
    term = total = scale = 1.0
    k = 0
    while abs(term) > _EPS * scale:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        k += 1
        total += term
        scale = max(scale, abs(term))
    return total


def _log_series(n: int, nu: float, w: float) -> float:
    """2F1(-nu, nu+n-1; n/2; 1-w) for n in {2, 4}, 0 < nu < 1 and w < 1/2 (s > pi/2).

    Here c - a - b = 1 - n/2 = -m is an integer, so the expansion about
    z = 1 has logarithmic terms (Abramowitz & Stegun 15.3.10 and 15.3.12):

        sin(pi nu)/pi * [ -[m=1] / ((nu+1)(nu+2) w)
            + sum_k (a)_k (b)_k / (k! (k+m)!) w^k
              (ln w + psi(a+k) + psi(b+k) - psi(k+1) - psi(k+m+1)) ]

    with a = -nu, b = nu+n-1.  It diverges to -inf as w -> 0.
    """
    m = n // 2 - 1
    a, b = -nu, nu + n - 1.0
    log_w = math.log(w)
    psi_a = _digamma(1.0 - nu) + 1.0 / nu
    psi_b = _digamma(b)
    psi_1 = psi_m = -_EULER_GAMMA
    if m:
        psi_m += 1.0
    total = -1.0 / ((nu + 1.0) * (nu + 2.0) * w) if m else 0.0
    scale = abs(total)
    coef = 1.0
    k = 0
    while True:
        term = coef * (log_w + psi_a + psi_b - psi_1 - psi_m)
        total += term
        scale = max(scale, abs(term))
        if k and abs(term) <= _EPS * scale:
            break
        psi_a += 1.0 / (a + k)
        psi_b += 1.0 / (b + k)
        psi_1 += 1.0 / (k + 1.0)
        psi_m += 1.0 / (k + m + 1.0)
        coef *= (a + k) * (b + k) / ((k + 1.0) * (k + m + 1.0)) * w
        k += 1
    return math.sin(math.pi * min(nu, 1.0 - nu)) / math.pi * total


def _radial(n: int, nu: float, s: float) -> float:
    """Radial Dirichlet eigenfunction 2F1(-nu, nu+n-1; n/2; sin^2(s/2)) on the unit n-sphere.

    It solves f'' + (n-1) cot(s) f' + nu(nu+n-1) f = 0 with f(0) = 1.
    At nu = 1 it is cos s for every n.  For n = 3 it is
    sin((nu+1)s) / ((nu+1) sin s), expanded so that a small nu keeps its
    digits.  Otherwise it is a Gauss series up to the equator and the
    logarithmic series about s = pi past it, where 0 < nu < 1 is
    required (the callers only need nu <= 1 there).
    """
    if nu == 1.0:
        return math.cos(s)
    if n == 3:
        return (math.cos(nu * s) + math.sin(nu * s) / math.tan(s)) / (nu + 1.0)
    if s <= 0.5 * math.pi:
        return _gauss_series(n, nu, math.sin(0.5 * s) ** 2)
    if not 0.0 < nu < 1.0:
        raise PreconditionViolation(f"past the equator the radial function needs 0 < nu <= 1, got {nu}")
    return _log_series(n, nu, math.cos(0.5 * s) ** 2)


def _brent(f, x_pre: float, x_cur: float, f_pre: float, f_cur: float) -> float:
    """Root of f between x_pre and x_cur, where f changes sign (Brent's method).

    Inverse quadratic or secant steps where they stay inside the bracket,
    bisection otherwise; stops when the bracket is narrower than 4 eps |root|.
    """
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(200):
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = 2.0 * _EPS * abs(x_cur)
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < tol:
            return x_cur
        if abs(s_pre) > tol and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - tol):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        f_cur = f(x_cur)
    raise NonConvergence("root-finder did not converge")


def lambda1_ball(n: int, c_int: float, rho: float) -> float:
    """First Dirichlet eigenvalue of the geodesic rho-ball in the round sphere.

    The sphere has constant curvature c_int > 0, so the eigenvalue is
    c_int nu(nu+n-1) for the smallest nu at which the radial function
    vanishes at s = rho sqrt(c_int).  The radial function is 1 at nu = 0
    and cos s at nu = 1, so for s > pi/2 the root lies in (0, 1);
    otherwise the bracket grows upward until the sign changes.
    """
    bounds._check_dimension(n)
    if not (c_int > 0.0 and math.isfinite(c_int)):
        raise PreconditionViolation(f"c_int must be positive and finite, got {c_int}")
    full = math.pi / math.sqrt(c_int)
    if not 0.0 < rho < full:
        raise PreconditionViolation(f"rho must lie in (0, {full}), got {rho}")
    s = rho * math.sqrt(c_int)

    def f(nu: float) -> float:
        return _radial(n, nu, s)

    lo, f_lo = 0.0, 1.0
    hi = 1.0
    f_hi = f(hi)
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= _NU_GROWTH
        if hi > 1e150:
            raise NonConvergence(f"failed to bracket the first Dirichlet eigenvalue at s={s}")
        f_hi = f(hi)
    nu = _brent(f, lo, hi, f_lo, f_hi)
    return c_int * nu * (nu + n - 1.0)


@lru_cache(maxsize=None)
def _scaled_marginal_radius(n: int, delta: float) -> float:
    """Radius x with lambda1_ball(n, 1, x) = n(1-delta), on the unit-curvature sphere.

    The first zero in s of the radial function with nu(nu+n-1) = n(1-delta),
    so nu lies in (0, 1]; at delta = 0 it is the hemisphere pi/2.  The
    zero lies in [pi/2, pi), where it is bracketed by a scan towards S_MAX.
    """
    bounds._check_dimension(n)
    lam = n * (1.0 - delta)
    nu = 2.0 * lam / ((n - 1.0) + math.sqrt((n - 1.0) ** 2 + 4.0 * lam))

    def f(s: float) -> float:
        return _radial(n, nu, s)

    lo, f_lo = 0.0, 1.0
    for hi in _CAP_SCAN:
        f_hi = f(hi)
        if f_hi <= 0.0:
            return _brent(f, lo, hi, f_lo, f_hi)
        lo, f_lo = hi, f_hi
    raise NonConvergence(
        f"marginal radius not found below {S_MAX} for n={n}, delta={delta}; potential too weak"
    )


def max_stable_cap_radius(n: int, kappa: float, H: float, delta: float) -> float:
    """Largest delta-stable cap radius rho* on the umbilic (n, kappa, H) sphere.

    rho* solves lambda1_ball(n, c_int, rho*) = n(1-delta) c_int.  By the
    metric scaling identity rho* sqrt(c_int) depends on (n, delta) only,
    so the scaled radius is solved once and cached.
    """
    if not 0.0 <= delta < 1.0:
        raise PreconditionViolation(f"delta must lie in [0, 1), got {delta}")
    geom = sphere_from_H(n, kappa, H)
    return _scaled_marginal_radius(n, float(delta)) / math.sqrt(geom.c_int)


def closed_sphere_lowest_eigenvalue(n: int, kappa: float, H: float, delta: float) -> float:
    """Lowest eigenvalue of the stability operator on the closed umbilic sphere.

    The potential is the constant n(1-delta)(H^2 + kappa), so the constant
    function is the ground state and the eigenvalue is minus the
    potential: negative exactly when the potential is positive, which is
    the non-existence mechanism for closed examples.
    """
    geom = sphere_from_H(n, kappa, H)
    return -n * (1.0 - delta) * geom.c_int


@dataclass(frozen=True)
class VerificationRecord:
    """Per-case outcome of checking rho* against the best applicable bound."""

    n: int
    kappa: float
    H: float
    delta: float
    rho_star: float | None
    c_best: float | None
    source: str | None
    ratio: float | None
    applicable: bool
    passed: bool
    reason: str = ""


def space_form_scalar_bound(kappa: float) -> float:
    """Ambient scalar curvature 6*kappa of the 3-dimensional space form (exact)."""
    S = 6.0 * kappa
    if not math.isfinite(S):
        raise PreconditionViolation(
            f"ambient scalar curvature 6*kappa = {S} is out of float range (kappa={kappa})"
        )
    return S


def verify_cap_bound(n: int, kappa: float, H: float, delta: float) -> VerificationRecord:
    """Empirical theorem instance: the maximal stable cap radius obeys the bound.

    For n = 2 the scalar-curvature route is fed S = 6*kappa, the exact
    ambient scalar curvature of the space form.  Where the bound does not
    apply and no stable-cap radius exists (the zero lies past S_MAX), the
    record is not applicable with rho_star None.
    """
    S_inf = space_form_scalar_bound(kappa) if n == 2 else None
    try:
        rho_star = max_stable_cap_radius(n, kappa, H, delta)
        no_radius = None
    except NonConvergence as exc:
        rho_star, no_radius = None, exc
    inp = bounds.BoundInput(n=n, delta=delta, H=H, K_inf=kappa, S_inf=S_inf)
    try:
        result = bounds.best_bound(inp)
    except (NoApplicableBound, HypothesisViolation, EmptyIntervalError) as exc:
        reason = str(exc) if no_radius is None else f"{exc}; {no_radius}"
        return VerificationRecord(
            n=n,
            kappa=kappa,
            H=H,
            delta=delta,
            rho_star=rho_star,
            c_best=None,
            source=None,
            ratio=None,
            applicable=False,
            passed=False,
            reason=reason,
        )
    if no_radius is not None:
        raise no_radius
    passed = rho_star <= result.c * (1.0 + PASS_SLACK)
    return VerificationRecord(
        n=n,
        kappa=kappa,
        H=H,
        delta=delta,
        rho_star=rho_star,
        c_best=result.c,
        source=result.source,
        ratio=rho_star / result.c,
        applicable=True,
        passed=passed,
    )
