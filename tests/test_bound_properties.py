"""Property tests: the bound and cap entry points return finite values or raise a package error."""

import math
import re
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from cmcradius import bounds, spaceforms
from cmcradius.errors import CmcRadiusError


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
    try:
        res = bounds.best_bound(bounds.BoundInput(n, delta, H, K, S))
    except CmcRadiusError:
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
    if rec.applicable:
        assert rec.c_best > 0.0 and rec.rho_star is not None and rec.ratio is not None
