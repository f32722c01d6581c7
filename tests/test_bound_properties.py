"""Property tests: the bound entry points return a finite bound or raise a package error."""

import math
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from cmcradius import bounds
from cmcradius.errors import CmcRadiusError


def _edges(x: float) -> list[float]:
    """x and its two float neighbours."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


EDGE_DELTAS = [d for q in (*(bounds.delta_threshold(n) for n in (2, 3, 4)), 0.75)
               for d in _edges(float(q))]
deltas = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(EDGE_DELTAS))
reals = st.floats(allow_nan=False, allow_infinity=False)


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
