"""Closed-form radius-bound constants for nearly stable CMC hypersurfaces.

Everything here is scalar arithmetic: admissible ranges for the conformal
exponent k, the distance bound c = pi * sqrt(A / B) minimised over k in
closed form (one quadratic in t = 4/(n-1) - k), and the n = 2 bound from
a scalar-curvature lower bound.  Interval endpoints and dimension
thresholds are kept as exact rationals; the rest is floating point.
A delta outside [0, 1) is a PreconditionViolation everywhere (check_delta),
and no entry point returns a value that is not finite: a non-finite
argument or an overflow raises a package error instead.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DimensionError,
    EmptyIntervalError,
    HypothesisViolation,
    NoApplicableBound,
    PreconditionViolation,
)

SUPPORTED_DIMENSIONS = (2, 3, 4)

#: Each end of the open k-interval is padded inward by this fraction of its width.
INTERIOR_OFFSET = Fraction(1, 10**9)


def _check_dimension(n: int) -> None:
    if n not in SUPPORTED_DIMENSIONS:
        raise DimensionError(f"hypersurface dimension must be one of {SUPPORTED_DIMENSIONS}, got {n}")


def check_delta(delta) -> None:
    """Reject a near-stability parameter that is not a finite number in [0, 1)."""
    if not 0 <= delta < 1:  # also false for nan and +-inf
        raise PreconditionViolation(f"delta must be finite and lie in [0, 1), got {delta}")


def _finite(name: str, value: float) -> float:
    """value, or PreconditionViolation if it is not a finite float."""
    if not math.isfinite(value):
        raise PreconditionViolation(f"{name} must be finite, got {value}")
    return value


@lru_cache(maxsize=None)
def delta_threshold(n: int) -> Fraction:
    """Largest near-stability parameter for which the k-interval is nonempty.

    Solves 5(n-1)/(4n(1-d)) = 4/(n-1) for d, exactly.  At n = 5 the
    formula gives 0: the k-interval at delta = 0 is (1, 1), already empty,
    so the method ends at n = 4.
    """
    _check_dimension(n)
    return 1 - Fraction(5 * (n - 1) ** 2, 16 * n)


class KInterval(NamedTuple):
    """Open admissible interval for the conformal exponent k."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def k_interval(n: int, delta) -> KInterval:
    """Admissible range 5(n-1)/(4n(1-d)) < k < 4/(n-1), as exact rationals.

    Raises EmptyIntervalError when delta is at or above delta_threshold(n).
    """
    _check_dimension(n)
    check_delta(delta)
    d = Fraction(delta)
    lo = Fraction(5 * (n - 1), 4 * n) / (1 - d)
    hi = Fraction(4, n - 1)
    if lo >= hi:
        raise EmptyIntervalError(
            f"no admissible k for n={n}, delta={delta}: requires delta < {delta_threshold(n)}"
        )
    return KInterval(lo, hi)


def mean_curvature_threshold(K_inf: float) -> float:
    """Strict lower bound 2*sqrt(|min(0, K_inf)|) that |H| must exceed."""
    return 2.0 * math.sqrt(abs(min(0.0, _finite("K_inf", K_inf))))


class BoundInput:
    """Parameters of a radius-bound query, validated on construction.

    H is a mean curvature (1/length), K_inf a lower bound on ambient
    sectional curvature (1/length^2), S_inf an optional lower bound on
    ambient scalar curvature (only meaningful for n = 2).
    """

    def __init__(self, n: int, delta: float, H: float, K_inf: float = 0.0, S_inf: float | None = None) -> None:
        _check_dimension(n)
        check_delta(delta)
        self.n, self.delta, self.H, self.K_inf, self.S_inf = n, delta, H, K_inf, S_inf
        for name, value in (("H", H), ("K_inf", K_inf), ("S_inf", S_inf)):
            if value is not None:
                _finite(name, value)


class BoundResult(NamedTuple):
    """A computed distance bound c = pi * sqrt(A / B) and its provenance."""

    k_star: float
    A: float
    B: float
    c: float
    source: str  # "sectional" or "scalar"


@lru_cache(maxsize=1024)
def _exact_setup(n: int, delta: float) -> tuple[KInterval, tuple[tuple[float, float], ...]] | None:
    """The exact k-interval of (n, delta) and (t, k) at its padded ends, rounded to floats.

    The rational arithmetic depends on (n, delta) only, and a sweep
    repeats each pair for many (H, K), so it is done once per pair.  When
    delta is at or above delta_threshold(n) this returns None rather than
    raising, because lru_cache does not cache exceptions and about a third
    of a bound sweep's rows lie there.
    """
    d = Fraction(delta)
    if d >= delta_threshold(n):
        return None
    interval = k_interval(n, d)
    pad = interval.width * INTERIOR_OFFSET
    lower = (float(interval.width - pad), float(interval.lo + pad))
    upper = (float(pad), float(interval.hi - pad))
    return interval, (lower, upper)


def _real_roots(qa: float, qb: float, qc: float) -> list[float]:
    """Real roots of qa x^2 + qb x + qc = 0 (cancellation-free); NaN marks a missing one."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    return [q / qa if qa else math.nan, qc / q if q else math.nan]


def radius_bound(inp: BoundInput) -> BoundResult:
    """Smallest sectional-route bound over the admissible k-interval, in closed form.

    The theorem holds for every admissible k, so the infimum over k is the
    strongest verified claim.  With m = n-1, a1 = 2-n, p0 = 4 a1 + m^2 and
    t = 4/m - k: A = 4(p0 - m a1 t) / (m^2 t) and B = beta - b1 t, where
    b1 = n(1-delta)(H^2 + min(0,K)) and beta is B at k = 4/m.  A/B is
    stationary where a1 m t^2 - 2 p0 t + p0 beta/b1 = 0, so the optimum is a
    real root or an end padded `INTERIOR_OFFSET * width` inside.  The ends
    are exact rationals, rounded only as t, so 4 - m k = m t keeps its
    digits when the interval is narrower than the float spacing at 4/m.
    """
    setup = _exact_setup(inp.n, inp.delta)
    if setup is None:
        raise HypothesisViolation(
            f"delta={inp.delta} is not below the n={inp.n} threshold {delta_threshold(inp.n)}")
    threshold = mean_curvature_threshold(inp.K_inf)
    if not abs(inp.H) > threshold:
        raise HypothesisViolation(f"|H|={abs(inp.H)} does not exceed the threshold {threshold}")
    interval, ends = setup
    n, m, a1 = inp.n, inp.n - 1, 2 - inp.n
    p0 = 4 * a1 + m * m
    Km, H2 = min(0.0, inp.K_inf), inp.H * inp.H
    b1 = n * (1.0 - inp.delta) * (H2 + Km)
    beta = (4.0 * b1 + m * ((-n * n + 5 * n - 5) * H2 + m * Km)) / m
    (t_lo, _), (t_hi, _) = ends
    roots = _real_roots(a1 * m, -2.0 * p0, p0 * beta / b1) if b1 > 0.0 else []
    candidates = []
    # A root's k is rounded from the exact interval end only if the root wins.
    for t, k in (*ends, *((r, None) for r in roots if t_hi < r < t_lo)):
        A, B = 4.0 * (p0 - m * a1 * t) / (m * m * t), beta - b1 * t
        candidates.append((A / B if B > 0.0 else math.inf, t, k, A, B))
    _, t, k, A, B = min(candidates, key=lambda cand: cand[0])
    if not math.isfinite(B):
        raise HypothesisViolation(f"B={B} is out of float range: H^2 or K overflows")
    if not B > 0.0:  # B <= 0 at every candidate
        raise HypothesisViolation(f"B={B} is not positive")
    c = math.pi * math.sqrt(A / B)
    if not 0.0 < c < math.inf:
        raise HypothesisViolation(f"c = pi*sqrt(A/B) = {c} with A={A}, B={B} is out of float range")
    if k is None:
        k = float(interval.hi - Fraction(t))
    return BoundResult(k_star=k, A=A, B=B, c=c, source="sectional")


def radius_bound_scalar(delta: float, H: float, S_inf: float) -> BoundResult:
    """n = 2 bound from an ambient scalar-curvature lower bound S_inf.

    c = 2*pi*sqrt((1-d) / ((3-4d)(3H^2+S))), the fixed-exponent choice
    k = 1/(1-d); requires delta < 3/4 and 3H^2 + S_inf > 0.
    """
    check_delta(delta)
    B = 3.0 * H * H + S_inf
    problems = []
    if delta >= 0.75:
        problems.append(f"delta={delta} is not below 3/4")
    if not B > 0.0:
        problems.append(f"3H^2 + S = {B} is not positive")
    if problems:
        raise HypothesisViolation("; ".join(problems))
    A = 4.0 * (1.0 - delta) / (3.0 - 4.0 * delta)
    denominator = (3.0 - 4.0 * delta) * B  # underflows to 0 for a subnormal B
    c = 2.0 * math.pi * math.sqrt((1.0 - delta) / denominator) if denominator > 0.0 else math.inf
    if not 0.0 < c < math.inf:
        raise HypothesisViolation(f"c = {c} with 3H^2 + S = {B} is out of float range")
    return BoundResult(k_star=1.0 / (1.0 - delta), A=A, B=B, c=c, source="scalar")


def best_bound(inp: BoundInput) -> BoundResult:
    """Minimum c among all bounds whose hypotheses hold for this input.

    Raises NoApplicableBound, with every route's reason, when none holds.
    """
    candidates: list[BoundResult] = []
    reasons: list[str] = []
    try:
        candidates.append(radius_bound(inp))
    except HypothesisViolation as exc:
        reasons.append(f"sectional: {exc}")
    if inp.n == 2 and inp.S_inf is not None:
        try:
            candidates.append(radius_bound_scalar(inp.delta, inp.H, inp.S_inf))
        except HypothesisViolation as exc:
            reasons.append(f"scalar: {exc}")
    elif inp.n != 2 and inp.S_inf is not None:
        reasons.append("scalar: only available for n = 2")
    if not candidates:
        raise NoApplicableBound("; ".join(reasons) or "no bound applies")
    return min(candidates, key=lambda r: r.c)
