"""Property test: the mesh entry point returns a report or raises a package error."""

import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcradius import discrete
from cmcradius.errors import CmcRadiusError, MeshError

reals = st.floats(allow_nan=False, allow_infinity=False)
# Every decimal order of magnitude equally often, either sign, so curvatures
# under- and overflow and caps shrink to a few ulps.
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-320, 307))
numbers = st.one_of(reals, magnitudes, st.floats(-4.0, 4.0))
# Levels 0-3 have 1 to about 160 interior vertices: most meshes are smaller
# than one leaf cell of the nested-dissection order.  Repeated levels are drawn too.
levels = st.lists(st.integers(0, 3), min_size=1, max_size=4)


@st.composite
def caps(draw):
    """(kappa, H, rho): any finite numbers, or an attainable H and a radius up to
    1.2 times that of the whole sphere."""
    kappa = draw(numbers)
    if draw(st.booleans()):
        H = math.sqrt(max(-kappa, 0.0)) * draw(st.floats(1.0, 4.0)) + draw(st.floats(0.0, 4.0))
    else:
        H = draw(numbers)
    c = kappa + H * H
    if 0.0 < c < math.inf and draw(st.booleans()):
        rho = draw(st.floats(0.0, 1.2)) * math.pi / math.sqrt(c)
    else:
        rho = draw(numbers)
    return kappa, H, rho


# Runtime warnings are errors suite-wide (pyproject.toml): an overflow or a
# poorly conditioned convergence fit (numpy's RankWarning) is a fault, not a report.
@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(cap=caps(), delta=st.one_of(st.floats(0.0, 1.0), numbers), levels=levels)
def test_mesh_verify_reports_or_raises(cap, delta, levels):
    if len(set(levels)) < len(levels):
        with pytest.raises(MeshError):
            discrete.mesh_verify(*cap, delta, levels)
        return
    try:
        rep = discrete.mesh_verify(*cap, delta, levels)
    except CmcRadiusError:
        return
    assert [row.level for row in rep.levels] == sorted(levels)
    for row in rep.levels:
        assert row.num_vertices >= 4
        assert math.isfinite(row.lambda1) and math.isfinite(row.radius)
        assert row.verdict in ("stable", "unstable", "marginal")
