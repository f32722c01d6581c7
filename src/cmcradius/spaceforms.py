"""Umbilic geodesic spheres in space forms and their stability spectrum.

A geodesic sphere in a space form of curvature kappa is umbilic, so a cap
on it has constant stability potential q = n(1-delta)(H^2 + kappa) and
its first Dirichlet eigenvalue reduces to a radial ODE on the round
sphere of intrinsic curvature c_int = kappa + H^2.  Shooting on that ODE
gives an independent oracle for the maximal delta-stable cap radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

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
    the limit), for kappa = 0 any H > 0, for kappa > 0 any H >= 0.
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
    return SphereGeometry(
        n=n,
        kappa=kappa,
        H=H,
        r_ambient=r,
        normA2=n * H * H,
        ric_nu=n * kappa,
        c_int=kappa + H * H,
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


def _first_zero(n: int, c_int: float, lam: float, s_max: float) -> float | None:
    """First zero in (0, s_max] of the radial solution of f'' + (n-1) ct(s) f' + lam f = 0.

    Starts just off the coordinate singularity with the series
    f(s) ~ 1 - lam s^2 / (2n).  Returns None when f stays positive.
    """
    sq = math.sqrt(c_int)
    s0 = 1e-7 * min(s_max, 1.0 / sq)
    f0 = 1.0 - lam * s0 * s0 / (2.0 * n)
    g0 = -lam * s0 / n

    def rhs(s, y):
        f, g = y
        return (g, -(n - 1) * sq / math.tan(sq * s) * g - lam * f)

    def crossing(s, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1

    sol = solve_ivp(
        rhs,
        (s0, s_max),
        (f0, g0),
        method="RK45",
        rtol=1e-11,
        atol=1e-14,
        events=crossing,
    )
    if not sol.success:
        raise NonConvergence(f"radial integration failed: {sol.message}")
    if sol.t_events[0].size:
        return float(sol.t_events[0][0])
    return None


def lambda1_ball(n: int, c_int: float, rho: float, tol: float = 1e-8) -> float:
    """First Dirichlet eigenvalue of the geodesic rho-ball in the round sphere.

    The sphere has constant curvature c_int > 0.  Bisects the spectral
    parameter on the predicate "the radial solution vanishes at or before
    rho", which is monotone because the first zero moves inward as the
    parameter grows.  Absolute tolerance is tol * c_int.
    """
    if c_int <= 0.0:
        raise PreconditionViolation(f"c_int must be positive, got {c_int}")
    if tol <= 0.0:
        raise PreconditionViolation(f"tol must be positive, got {tol}")
    full = math.pi / math.sqrt(c_int)
    if not 0.0 < rho < full:
        raise PreconditionViolation(f"rho must lie in (0, {full}), got {rho}")

    def vanishes_by_rho(lam: float) -> bool:
        return _first_zero(n, c_int, lam, rho) is not None

    lo = 0.0
    hi = n * c_int
    doublings = 0
    while not vanishes_by_rho(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise NonConvergence("failed to bracket the first Dirichlet eigenvalue")
    while hi - lo > tol * c_int:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is down to adjacent floats; tol is below their spacing
        if vanishes_by_rho(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def _scaled_marginal_radius(n: int, delta: float) -> float:
    """Radius x with lambda1_ball(n, 1, x) = n(1-delta), on the unit-curvature sphere.

    Equivalently the first zero of the radial solution at spectral
    parameter n(1-delta); at delta = 0 this is the hemisphere pi/2.
    """
    lam = n * (1.0 - delta)
    x = _first_zero(n, 1.0, lam, math.pi * (1.0 - 1e-9))
    if x is None:
        raise NonConvergence(
            f"marginal radius not found for n={n}, delta={delta}; potential too weak"
        )
    return x


def max_stable_cap_radius(
    n: int, kappa: float, H: float, delta: float, tol: float = 1e-6
) -> float:
    """Largest delta-stable cap radius rho* on the umbilic (n, kappa, H) sphere.

    rho* solves lambda1_ball(n, c_int, rho*) = n(1-delta) c_int.  By the
    metric scaling identity rho* sqrt(c_int) depends on (n, delta) only,
    so the scaled radius is solved once and cached.
    """
    if tol <= 0.0:
        raise PreconditionViolation(f"tol must be positive, got {tol}")
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
    rho_star: float
    c_best: float | None
    source: str | None
    ratio: float | None
    applicable: bool
    passed: bool
    reason: str = ""


def space_form_scalar_bound(kappa: float) -> float:
    """Ambient scalar curvature 6*kappa of the 3-dimensional space form (exact)."""
    return 6.0 * kappa


def verify_cap_bound(n: int, kappa: float, H: float, delta: float, tol: float = 1e-6) -> VerificationRecord:
    """Empirical theorem instance: the maximal stable cap radius obeys the bound.

    For n = 2 the scalar-curvature route is fed S = 6*kappa, the exact
    ambient scalar curvature of the space form.
    """
    rho_star = max_stable_cap_radius(n, kappa, H, delta, tol=tol)
    S_inf = space_form_scalar_bound(kappa) if n == 2 else None
    inp = bounds.BoundInput(n=n, delta=delta, H=H, K_inf=kappa, S_inf=S_inf)
    try:
        result = bounds.best_bound(inp)
    except (NoApplicableBound, HypothesisViolation, EmptyIntervalError) as exc:
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
            reason=str(exc),
        )
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
