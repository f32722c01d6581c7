"""Property tests: the mesh entry points return a mesh or a report, or raise a package error."""

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from cmcradius import discrete, mesh
from cmcradius.errors import CmcRadiusError, MeshError

reals = st.floats(allow_nan=False, allow_infinity=False)
# Every decimal order of magnitude equally often, either sign, so curvatures
# under- and overflow and caps shrink to a few ulps.
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-320, 307))
numbers = st.one_of(reals, magnitudes, st.floats(-4.0, 4.0))
# Levels 0-3 have 1 to about 160 interior vertices, and level 3 is the base
# level of the multigrid eigensolve.  Repeated levels are drawn too.
levels = st.lists(st.integers(0, 3), min_size=1, max_size=4)


# Fractions of the whole sphere's radius pi / sqrt(c) within a few ulps to 1e-7 of it,
# where the Dirichlet stiffness of a coarse cap can be numerically singular.
NEAR_SPHERE = st.sampled_from([1 - 1e-7, 1 - 3e-9, 1 - 1e-9, math.nextafter(1.0, 0.0)])


@st.composite
def caps(draw):
    """(kappa, H, rho): any finite numbers, or an attainable H and a radius up to
    1.2 times that of the whole sphere, or just short of it."""
    kappa = draw(numbers)
    if draw(st.booleans()):
        H = math.sqrt(max(-kappa, 0.0)) * draw(st.floats(1.0, 4.0)) + draw(st.floats(0.0, 4.0))
    else:
        H = draw(numbers)
    c = kappa + H * H
    if 0.0 < c < math.inf and draw(st.booleans()):
        rho = draw(st.one_of(NEAR_SPHERE, st.floats(0.0, 1.2))) * math.pi / math.sqrt(c)
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
        assert row.vertices >= 4
        assert math.isfinite(row.lambda1) and math.isfinite(row.radius)
        assert row.verdict in ("stable", "unstable", "marginal")


# Fractions of the whole sphere's radius at the hemisphere within a few ulps, where
# the radial eigenfunction's nu, rounded from an eigenvalue, can pass 1.
HEMISPHERE = st.sampled_from([0.5 * (1.0 + sign * k * 2.0**-52) for sign in (-1, 1) for k in (1, 2, 3, 8)])


@st.composite
def valid_studies(draw):
    """(kappa, H, rho, delta, levels) of a study that is meant to run: an attainable H,
    a radius short of the whole sphere's, delta in [0, 1) and distinct levels up to 4."""
    kappa = draw(st.one_of(st.floats(-4.0, 4.0), st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0),
                                                            st.integers(-300, 300))))
    H = math.sqrt(max(-kappa, 0.0)) * draw(st.floats(1.0, 4.0)) + draw(st.floats(0.0, 4.0, exclude_min=True))
    fraction = draw(st.one_of(HEMISPHERE, NEAR_SPHERE, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    c = kappa + H * H
    assume(c > 0.0)  # H just above sqrt(-kappa) can round to it
    rho = fraction * math.pi / math.sqrt(c)
    delta = draw(st.floats(0.0, 1.0, exclude_max=True))
    levels = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
    return kappa, H, rho, delta, levels


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(study=valid_studies())
def test_valid_mesh_study_reports_or_raises(study):
    try:
        rep = discrete.mesh_verify(*study)
    except CmcRadiusError:
        return
    assert [row.level for row in rep.levels] == sorted(study[-1])
    for row in rep.levels:
        assert row.vertices >= 4
        assert math.isfinite(row.lambda1) and math.isfinite(row.radius)
        assert row.verdict in ("stable", "unstable", "marginal")


@st.composite
def mesh_inputs(draw):
    """(vertices, faces, kappa): a few vertices, rarely not finite or in the
    other model's layout, and up to eight faces, either any index triples
    from -2 to nv + 1 or an open fan around vertex 0 (a disk) with some
    indices redrawn."""
    kappa = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    nv = draw(st.integers(0, 8))
    columns = 3 if kappa == 0.0 else 4
    if draw(st.integers(0, 9)) == 0:
        columns = 7 - columns  # the other model's layout
    coords = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([math.nan, math.inf, -math.inf]))
    vertices = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=nv * columns, max_size=nv * columns)))
    if nv and draw(st.integers(0, 9)) == 0:
        vertices[draw(st.integers(0, nv * columns - 1))] = draw(coords)
    index = st.integers(-2, nv + 1)
    if draw(st.booleans()):
        faces = draw(st.lists(st.lists(index, min_size=3, max_size=3), max_size=8))
    else:
        faces = [[0, i, i + 1] for i in range(1, nv - 1)]
        for _ in range(draw(st.integers(0, 2))):
            if faces:
                faces[draw(st.integers(0, len(faces) - 1))][draw(st.integers(0, 2))] = draw(index)
    return vertices.reshape(nv, columns), np.array(faces, dtype=np.int64).reshape(-1, 3), kappa


@settings(max_examples=300, derandomize=True, database=None)
@given(inputs=mesh_inputs())
def test_trimesh_is_checked_or_raises(inputs):
    vertices, faces, kappa = inputs
    try:
        m = mesh.TriMesh(vertices=vertices, faces=faces, kappa=kappa)
    except MeshError:
        return
    nv = m.num_vertices
    assert faces.min() >= 0 and faces.max() < nv
    assert nv - len(m.edges) + m.num_faces == 1
    assert np.array_equal(np.union1d(m.boundary, m.interior), np.arange(nv))
    assert np.intersect1d(m.boundary, m.interior).size == 0
    assert np.array_equal(m.edges[m.face_edges], np.sort(faces[:, [[1, 2], [2, 0], [0, 1]]], axis=2))
    assert np.isfinite(m.edge_lengths).all() and np.isfinite(mesh.triangle_areas(m.edge_lengths[m.face_edges])).all()


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(cap=caps(), level=st.integers(-1, 5))
def test_prolongation_is_finite_or_raises(cap, level):
    try:
        P = mesh.prolongation(*cap, level)
    except CmcRadiusError:
        return
    assert 1 <= level <= 5
    assert P.shape[0] > P.shape[1] >= 1
    data = reference.ell_to_scipy(P).data
    assert np.isfinite(data).all() and data.min() >= 0.0
    assert np.isfinite(P.values).all() and P.values.min() >= 0.0
    assert 0 <= P.columns.min() and P.columns.max() < P.shape[1]


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(cap=caps(), level=st.integers(-1, 6))
def test_interior_rings_are_finite_or_raise(cap, level):
    try:
        ring = mesh.interior_rings(*cap, level)
    except CmcRadiusError:
        return
    assert 0 <= level <= 6
    # The pole, then every interior ring in order, each with at least 3 vertices.
    counts = np.bincount(ring)
    assert ring.dtype.kind == "i" and np.all(np.diff(ring) >= 0)
    assert counts.size == 2**level and counts[0] == 1 and np.all(counts[1:] >= 3)
