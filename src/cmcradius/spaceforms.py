"""Umbilic geodesic spheres in space forms and their stability spectrum.

A geodesic sphere in a space form of curvature kappa is umbilic, so a cap
on it has constant stability potential q = n(1-delta)(H^2 + kappa) and
its first Dirichlet eigenvalue is that of a geodesic ball in the round
sphere of intrinsic curvature c_int = kappa + H^2.  On the unit n-sphere
the radial eigenfunction with eigenvalue nu(nu+n-1) has the closed form
2F1(-nu, nu+n-1; n/2; sin^2(s/2)), so bracketed root-finding on it gives
an exact oracle: in s for the maximal delta-stable cap radius, and in the
scaled variable w = nu s, on a bracket fixed by Cheng's eigenvalue
comparison, for the first Dirichlet eigenvalue of a ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import bounds
from .errors import NoApplicableBound, NonConvergence, PreconditionViolation, UnattainableCurvature

#: Relative slack allowed when comparing the oracle radius to a bound.
PASS_SLACK = 1e-8


def intrinsic_curvature(kappa: float, H: float) -> float:
    """Intrinsic curvature kappa + H^2 of the geodesic sphere whose principal curvatures all equal H.

    For kappa < 0 only H > sqrt(|kappa|) is attainable (horospheres are
    the limit), for kappa = 0 any H > 0, for kappa > 0 any H >= 0.  The
    intrinsic curvature must also be a positive finite float.
    """
    if not (math.isfinite(kappa) and math.isfinite(H)):
        raise PreconditionViolation(f"kappa and H must be finite, got kappa={kappa}, H={H}")
    if kappa < 0.0:
        sq = math.sqrt(-kappa)
        if H <= sq:
            raise UnattainableCurvature(
                f"geodesic spheres in curvature {kappa} have H > {sq}, got {H}"
            )
    elif kappa == 0.0:
        if H <= 0.0:
            raise UnattainableCurvature(f"Euclidean spheres need H > 0, got {H}")
    elif H < 0.0:
        raise UnattainableCurvature(f"expected H >= 0 for kappa > 0, got {H}")
    c_int = kappa + H * H
    if not 0.0 < c_int < math.inf:
        raise PreconditionViolation(
            f"intrinsic curvature kappa + H^2 = {c_int} is out of float range "
            f"(kappa={kappa}, H={H})"
        )
    return c_int


_EULER_GAMMA = 0.5772156649015329
#: Relative accuracy at which the series stop and the root-finder brackets a root.
_EPS = 2.0**-52
#: The scan for the cap radius ends here, short of pi where the radial
#: function diverges; a zero past this point is reported as no radius.
S_MAX = math.pi * (1.0 - 1e-9)
#: Scan points in s for the cap radius, which lies in [pi/2, pi): the
#: distance to pi halves from one point to the next.
_CAP_SCAN = tuple(math.pi * (1.0 - 2.0**-k) for k in range(1, 30)) + (S_MAX,)
#: Right end of the bracket for w = nu s up to the equator: the first zero j
#: of the Bessel function J_{n/2-1}, raised by 1e-9 relative, since the
#: root lies below j and tends to it as s -> 0.
_W_MAX = {n: j * (1.0 + 1e-9) for n, j in ((2, 2.404825557695773), (3, math.pi), (4, 3.8317059702075125))}


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 10, then the asymptotic series."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = 1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y * (1 / 132 - y * 691 / 32760))))
    return acc + math.log(x) - 0.5 / x - y * tail


def _sinc(x: float) -> float:
    """sin(x) / x, continued by 1 at x = 0; it is exactly 1 for |x| below about 1e-8."""
    return math.sin(x) / x if x else 1.0


def _gauss_series(n: int, w: float, s: float) -> float:
    """2F1(-nu, nu+n-1; n/2; sin^2(s/2)) at nu = w/s, summed term by term, for s <= pi/2.

    The term ratio (k - nu)(k + nu + n-1) sin^2(s/2) / ((n/2 + k)(k + 1)) is
    a product of bounded factors, (k h - w sigma)(k h + (w + (n-1)s) sigma),
    with h = sin(s/2) and sigma = sin(s/2) / s, which is 1/2 for a tiny or
    subnormal s: neither the huge nu nor the tiny z = h^2 of a small ball
    forms.  Once a term is negligible the term ratio stays below
    2z <= 1, so the rest of the series is negligible too.
    """
    h = math.sin(0.5 * s)
    sigma = 0.5 * _sinc(0.5 * s)
    a, b, c = w * sigma, (w + (n - 1.0) * s) * sigma, 0.5 * n
    term = total = scale = 1.0
    k = 0
    while abs(term) > _EPS * scale:
        kh = k * h
        term *= (kh - a) * (kh + b) / ((c + k) * (k + 1.0))
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


def _radial(n: int, w: float, s: float) -> float:
    """Radial Dirichlet eigenfunction 2F1(-nu, nu+n-1; n/2; sin^2(s/2)) on the unit n-sphere, at nu = w/s.

    It solves f'' + (n-1) cot(s) f' + nu(nu+n-1) f = 0 with f(0) = 1.  It
    takes the scaled variable w = nu s, which stays bounded for a small
    ball, where nu does not.  At w = s (nu = 1, or the centre s = 0) it is
    cos s for every n.  For n = 3 it is sin(w + s) / ((w + s) sin(s) / s),
    expanded so that a small w keeps its digits and a subnormal s forms no
    1 / tan s.  Otherwise it is a Gauss series up to the equator and the
    logarithmic series about s = pi past it, where 0 < nu < 1 is required.
    The callers only need nu <= 1 there: the root searches, and
    radial_profile, which clamps a w rounded from an eigenvalue.
    """
    if w == s:
        return math.cos(s)
    if n == 3:
        return (s * math.cos(w) + math.sin(w) * (math.cos(s) / _sinc(s))) / (w + s)
    if s <= 0.5 * math.pi:
        return _gauss_series(n, w, s)
    nu = w / s
    if not 0.0 < nu < 1.0:
        raise PreconditionViolation(f"past the equator the radial function needs 0 < nu <= 1, got {nu}")
    return _log_series(n, nu, math.cos(0.5 * s) ** 2)


def _false_position(f, a: float, b: float, f_a: float, f_b: float) -> float:
    """Root of f between a and b, where f changes sign (Anderson-Bjorck false position).

    Each step moves one end to the secant point.  When the same end stays
    twice, its value is scaled by 1 - f_new/f_old (1/2 where that is not
    positive), so that it moves next (Anderson & Bjorck, BIT 13, 1973).
    Stops when the bracket is narrower than 4 eps |root|.
    """
    for _ in range(200):
        if f_b == 0.0 or abs(b - a) < 4.0 * _EPS * abs(b):
            return b
        c = b - f_b * (b - a) / (f_b - f_a)
        f_c = f_b if c == b else f(c)  # a step that rounds away would re-evaluate f(b)
        if (f_c < 0.0) == (f_b < 0.0):
            scale = 1.0 - f_c / f_b
            f_a *= scale if scale > 0.0 else 0.5
        else:
            a, f_a = b, f_b
        b, f_b = c, f_c
    raise NonConvergence("root-finder did not converge")


def lambda1_ball(n: int, c_int: float, rho: float) -> float:
    """First Dirichlet eigenvalue of the geodesic rho-ball in the round sphere of curvature c_int > 0.

    By scaling it is mu / rho^2, where mu = w (w + (n-1) s) depends only on
    s = rho sqrt(c_int), and w = nu s is the first zero of the radial
    function at s.  The sphere has Ricci curvature >= 0, so Cheng's
    comparison (Math. Z. 143, 1975) puts the eigenvalue below the flat
    ball's j^2 / rho^2, j = j_{n/2-1,1}: mu lies in (0, j^2), so w lies
    in (0, j), and (0, j (1 + 1e-9)] brackets the zero up to the equator.
    Past it nu < 1, so (0, s] brackets it, where the radial function is
    cos s < 0.  The eigenvalue overflows only where mu / rho / rho does,
    whatever c_int is.
    """
    bounds._check_dimension(n)
    if not (c_int > 0.0 and math.isfinite(c_int)):
        raise PreconditionViolation(f"c_int must be positive and finite, got {c_int}")
    full = math.pi / math.sqrt(c_int)
    if not 0.0 < rho < full:
        raise PreconditionViolation(f"rho must lie in (0, {full}), got {rho}")
    s = rho * math.sqrt(c_int)
    hi = s if s > 0.5 * math.pi else _W_MAX[n]
    w = _false_position(lambda w: _radial(n, w, s), 0.0, hi, 1.0, _radial(n, hi, s))
    lam = w * (w + (n - 1.0) * s) / rho / rho
    if lam == math.inf:
        raise PreconditionViolation(f"the first Dirichlet eigenvalue at s={s} overflows float range (rho={rho})")
    return lam


def _solve_w(n: int, s: float, mu: float) -> float:
    """The w >= 0 with w(w + (n-1)s) = mu, in a form that keeps a small mu's digits.

    Halved inside the root, so that no 4 mu forms and overflows.  At s = 1
    it is the nu with nu(nu+n-1) = mu.
    """
    half = 0.5 * (n - 1.0) * s
    return mu / (half + math.sqrt(half * half + mu))


def radial_profile(n: int, mu: float, s: float, angles: list[float]) -> list[float]:
    """The first Dirichlet eigenfunction of the s-ball in the unit n-sphere at polar angles in [0, s].

    mu is its scaled eigenvalue lambda1_ball(n, c_int, rho) rho^2 for the
    rho-ball of curvature c_int with s = rho sqrt(c_int), which lies in
    (0, j^2) by Cheng's comparison (see lambda1_ball).  At the angle t the
    function is the radial function at w t / s, with w = nu s solved from
    mu.  It is 1 at the centre and 0 at the rim.  Past the equator the
    exact nu is at most 1, so a w t / s that rounds above t is clamped to t.
    """
    bounds._check_dimension(n)
    if not (0.0 < s < math.pi and 0.0 < mu <= _W_MAX[n] ** 2):
        raise PreconditionViolation(f"expected 0 < s < pi and 0 < mu <= {_W_MAX[n] ** 2}, got s={s}, mu={mu}")
    w = _solve_w(n, s, mu)
    past = s > 0.5 * math.pi
    return [_radial(n, min(w * (t / s), t) if past else w * (t / s), t) for t in angles]


@lru_cache(maxsize=None)
def _scaled_marginal_radius(n: int, delta: float) -> float:
    """Radius x with lambda1_ball(n, 1, x) = n(1-delta), on the unit-curvature sphere.

    The first zero in s of the radial function with nu(nu+n-1) = n(1-delta),
    so nu lies in (0, 1]; at delta = 0 it is the hemisphere pi/2.  The
    zero lies in [pi/2, pi), where it is bracketed by a scan towards S_MAX.
    """
    bounds._check_dimension(n)
    nu = _solve_w(n, 1.0, n * (1.0 - delta))

    def f(s):
        return _radial(n, nu * s, s)

    lo, f_lo = 0.0, 1.0
    for hi in _CAP_SCAN:
        f_hi = f(hi)
        if f_hi <= 0.0:
            return _false_position(f, lo, hi, f_lo, f_hi)
        lo, f_lo = hi, f_hi
    raise NonConvergence(f"marginal radius not found below {S_MAX} for n={n}, delta={delta}; potential too weak")


def max_stable_cap_radius(n: int, kappa: float, H: float, delta: float) -> float:
    """Largest delta-stable cap radius rho* on the umbilic (n, kappa, H) sphere.

    rho* solves lambda1_ball(n, c_int, rho*) = n(1-delta) c_int.  By the
    metric scaling identity rho* sqrt(c_int) depends on (n, delta) only,
    so the scaled radius is solved once and cached.
    """
    bounds.check_delta(delta)
    c = intrinsic_curvature(kappa, H)  # before the root search, whose failure would hide it
    return _scaled_marginal_radius(n, float(delta)) / math.sqrt(c)


@dataclass(frozen=True)
class VerificationRecord:
    """Per-case outcome of checking rho* against the best applicable bound; its fields are the cap row."""

    n: int
    kappa: float
    H: float
    delta: float
    rho_star: float | None
    c_best: float | None
    ratio: float | None
    source: str | None
    status: str  # "pass", "fail" or "not-applicable"
    reason: str


def cap_bound(n: int, kappa: float, H: float, delta: float) -> bounds.BoundResult:
    """Best bound for a cap on the umbilic (n, kappa, H) sphere; NoApplicableBound where none holds.

    The space form has sectional curvature kappa, and for n = 2 the
    scalar-curvature route is fed S = 6*kappa, its exact ambient scalar
    curvature.
    """
    S_inf = None
    if n == 2:
        S_inf = 6.0 * kappa
        if not math.isfinite(S_inf):
            raise PreconditionViolation(
                f"ambient scalar curvature 6*kappa = {S_inf} is out of float range (kappa={kappa})"
            )
    return bounds.best_bound(bounds.BoundInput(n=n, delta=delta, H=H, K_inf=kappa, S_inf=S_inf))


def verify_cap_bound(n: int, kappa: float, H: float, delta: float) -> VerificationRecord:
    """Empirical theorem instance: the maximal stable cap radius obeys the bound.

    The bound comes from cap_bound, before the oracle runs.  The record is
    not applicable where no bound applies or no sphere has mean curvature H,
    with rho_star None in the second case and where no stable-cap radius
    exists either (the zero lies past S_MAX).
    """
    try:
        bound = cap_bound(n, kappa, H, delta)
        reason = ""
    except NoApplicableBound as exc:
        bound, reason = None, str(exc)
    try:
        rho_star = max_stable_cap_radius(n, kappa, H, delta)
    except UnattainableCurvature as exc:
        return VerificationRecord(n, kappa, H, delta, None, None, None, None, "not-applicable", str(exc))
    except NonConvergence as exc:
        if bound is not None:
            raise
        rho_star, reason = None, f"{reason}; {exc}"
    if bound is None:
        return VerificationRecord(n, kappa, H, delta, rho_star, None, None, None, "not-applicable", reason)
    status = "pass" if rho_star <= bound.c * (1.0 + PASS_SLACK) else "fail"
    return VerificationRecord(n, kappa, H, delta, rho_star, bound.c, rho_star / bound.c, bound.source,
                              status, "")
