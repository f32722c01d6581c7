"""Property tests: the bound and cap entry points return finite values or raise a package error."""

import math
import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from cmcradius import algebra, bounds, spaceforms
from cmcradius.errors import CmcRadiusError, NoApplicableBound, PreconditionViolation


def _edges(x: float) -> list[float]:
    """x and its two float neighbours."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


EDGE_DELTAS = [d for q in (*(bounds.delta_threshold(n) for n in (2, 3, 4)), 0.75)
               for d in _edges(float(q))]
deltas = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(EDGE_DELTAS))
reals = st.floats(allow_nan=False, allow_infinity=False)
# Every decimal order of magnitude equally often, so squares under- and overflow.
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-320, 307))


@settings(max_examples=500, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4)), delta=deltas, H=reals, K=reals, S=st.none() | reals)
def test_best_bound_is_finite_or_raises(n, delta, H, K, S):
    # Every input here is a valid BoundInput, so no bound applying is the only failure.
    try:
        res = bounds.best_bound(bounds.BoundInput(n, delta, H, K, S))
    except NoApplicableBound:
        return
    assert 0.0 < res.c < math.inf
    assert math.isfinite(res.A) and math.isfinite(res.B)


@settings(max_examples=300, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4)), delta=deltas, H=reals, K=reals)
def test_radius_bound_is_finite_or_raises(n, delta, H, K):
    try:
        res = bounds.radius_bound(bounds.BoundInput(n, delta, H, K))
    except CmcRadiusError:
        return
    assert 0.0 < res.c < math.inf
    assert math.isfinite(res.A) and math.isfinite(res.B) and res.B > 0.0
    assert math.isfinite(res.k_star)


@settings(max_examples=300, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4)), kappa=st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), reals),
       H=st.one_of(reals, magnitudes), delta=deltas)
def test_verify_cap_bound_is_finite_or_raises(n, kappa, H, delta):
    try:
        rec = spaceforms.verify_cap_bound(n, kappa, H, delta)
    except CmcRadiusError:
        return
    assert rec.rho_star is None or 0.0 < rec.rho_star < math.inf
    for value in (rec.c_best, rec.ratio):
        assert value is None or math.isfinite(value)
    assert not re.search(r"\bnan\b", rec.reason)
    assert rec.status in ("pass", "fail", "not-applicable")
    if rec.status != "not-applicable":
        assert rec.c_best > 0.0 and rec.rho_star is not None and rec.ratio is not None


EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
            1e154, -1e154, 1.7976931348623157e308, -1.7976931348623157e308]
ANY_FLOAT = st.one_of(st.sampled_from(EXTREMES), st.floats(), magnitudes,
                      st.builds(float.__neg__, magnitudes))


@settings(max_examples=300, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4)), kappa=st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), ANY_FLOAT),
       H=ANY_FLOAT, delta=deltas)
def test_cap_bound_is_finite_or_raises(n, kappa, H, delta):
    """With a valid n and delta: a finite c > 0, no bound applying, or a
    non-finite input (S = 6*kappa included, for n = 2)."""
    try:
        res = spaceforms.cap_bound(n, kappa, H, delta)
    except NoApplicableBound:
        return
    except PreconditionViolation:
        assert not (math.isfinite(kappa) and math.isfinite(H)) or (n == 2 and not math.isfinite(6.0 * kappa))
        return
    assert 0.0 < res.c < math.inf
    assert math.isfinite(res.A) and math.isfinite(res.B)


def _around(domain):
    """Half of the draws from domain, half from any float, extremes included."""
    return st.booleans().flatmap(lambda inside: domain if inside else ANY_FLOAT)


PHIS = [reference.random_traceless(n, np.random.default_rng(n)) for n in (2, 3, 4)]
# The argument roles of the scalar entry points, each drawn in and out of its domain.
ROLES = {
    "n": st.sampled_from((1, 2, 3, 4, 5)),
    "delta": _around(deltas),
    "k": _around(st.floats(0.0, 4.0)),
    "curvature": _around(reals),  # H, K, S or kappa
    "length": _around(st.floats(0.0, 4.0)),
    "phi": st.sampled_from(PHIS),
}
ENTRY_POINTS = {
    "k_interval": (lambda n, d: bounds.k_interval(n, d).width, ("n", "delta")),
    "coeff_A": (reference.coeff_A, ("n", "k")),
    "coeff_B": (reference.coeff_B, ("n", "k", "delta", "curvature", "curvature")),
    "check_quotient_bound": (reference.check_quotient_bound, ("n", "k", "delta")),
    "mean_curvature_threshold": (bounds.mean_curvature_threshold, ("curvature",)),
    "radius_bound_fixed_k": (lambda n, d, H, K, k: reference.radius_bound_fixed_k(
        bounds.BoundInput(n, d, H, K), k).c, ("n", "delta", "curvature", "curvature", "k")),
    "radius_bound_scalar": (lambda d, H, S: bounds.radius_bound_scalar(d, H, S).c,
                            ("delta", "curvature", "curvature")),
    "intrinsic_curvature": (spaceforms.intrinsic_curvature, ("curvature", "curvature")),
    "cap_bound": (lambda n, kappa, H, d: spaceforms.cap_bound(n, kappa, H, d).c,
                  ("n", "curvature", "curvature", "delta")),
    "max_stable_cap_radius": (spaceforms.max_stable_cap_radius,
                              ("n", "curvature", "curvature", "delta")),
    "closed_sphere_lowest_eigenvalue": (reference.closed_sphere_lowest_eigenvalue,
                                        ("n", "curvature", "curvature", "delta")),
    "cot_kappa": (reference.cot_kappa, ("curvature", "length")),
    "lambda1_ball": (spaceforms.lambda1_ball, ("n", "curvature", "length")),
    "radial_profile": (lambda n, c, rho: min(spaceforms.radial_profile(n, c, rho, [0.0, 0.5, 1.0])),
                       ("n", "curvature", "length")),
    "check_potential_remainder": (algebra.check_potential_remainder, ("phi", "k", "delta")),
}


def _out_of_domain(role: str, value) -> bool:
    if role == "n":
        return value not in bounds.SUPPORTED_DIMENSIONS
    if role == "delta":
        return not 0.0 <= value < 1.0
    return role != "phi" and not math.isfinite(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=200, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(data=st.data())
def test_scalar_entry_point_is_finite_or_raises(entry, data):
    """A finite value, or a package error; always the error for a delta outside
    [0, 1), an unsupported dimension or a non-finite argument."""
    fn, roles = ENTRY_POINTS[entry]
    args = [data.draw(ROLES[role], label=role) for role in roles]
    try:
        value = fn(*args)
    except CmcRadiusError:
        return
    assert not any(_out_of_domain(role, a) for role, a in zip(roles, args))
    assert math.isfinite(value)


# First zeros of the Bessel functions J_{n/2-1}: the flat ball's lambda rho^2 is j^2.
BESSEL_ZEROS = {2: 2.404825557695773, 3: math.pi, 4: 3.8317059702075125}


@settings(max_examples=500, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4)), c_int=magnitudes, rho=magnitudes)
@example(3, 5e-324, 4.5e-149)
@example(4, 1.0, math.pi * (1.0 - 2.0**-29))
def test_lambda1_ball_over_the_float_range(n, c_int, rho):
    """The sibling of ENTRY_POINTS' lambda1_ball, whose lengths stay in [0, 4]:
    over the whole float range the eigenvalue is finite and positive, or the
    ball is out of domain, or the eigenvalue overflows; a small ball has the
    flat ball's lambda rho^2 = j^2."""
    j2 = BESSEL_ZEROS[n] ** 2
    try:
        value = spaceforms.lambda1_ball(n, c_int, rho)
    except PreconditionViolation:
        assert not 0.0 < rho < math.pi / math.sqrt(c_int) or j2 / rho / rho > 1e308
        return
    assert 0.0 < value < math.inf
    if rho * math.sqrt(c_int) < 1e-8:
        assert abs(value * rho * rho - j2) <= 1e-12


# Three members from 1e-150 to 1e150 in size, so |Phi|^2 under- and overflows in the products.
STACK = algebra.TracelessMatrix(3, algebra.traceless_part(
    np.random.default_rng(3).normal(size=(3, 3, 3)) * np.array([1e-150, 1.0, 1e150])[:, None, None]))


@settings(max_examples=300, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(k=ANY_FLOAT, delta=ANY_FLOAT)
def test_stacked_remainder_is_finite_or_raises(k, delta):
    """The stacked entry point of ENTRY_POINTS' check_potential_remainder: one
    finite value per member, or a package error (runtime warnings fail, see
    the suite's filterwarnings)."""
    try:
        value = algebra.check_potential_remainder(STACK, k, delta)
    except CmcRadiusError:
        return
    assert 0.0 <= delta < 1.0 and math.isfinite(k)
    assert value.shape == (3,) and np.all(np.isfinite(value))
