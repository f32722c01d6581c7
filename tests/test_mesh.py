import itertools
import math

import numpy as np
import pytest

import reference
from cmcradius import mesh as mm
from cmcradius.errors import MeshError
from cmcradius.spaceforms import sphere_from_H


def _per_corner_lengths(m):
    """(nf, 3) geodesic lengths computed at every face corner, entry i opposite corner i."""
    v, f = m.vertices, m.faces
    return np.stack(
        [mm.ambient_distance(m.kappa, v[f[:, j]], v[f[:, k]]) for j, k in ((1, 2), (2, 0), (0, 1))],
        axis=1,
    )


class TestBuildCapMesh:
    def test_hemisphere_area(self):
        m = mm.build_cap_mesh(0.0, 1.0, math.pi / 2, 4)
        area = mm.triangle_areas(_per_corner_lengths(m)).sum()
        assert area == pytest.approx(2 * math.pi, rel=0.01)

    def test_level_zero_is_a_disk(self):
        m = mm.build_cap_mesh(0.0, 1.0, math.pi / 2, 0)
        assert m.num_vertices - len(m.edges) + m.num_faces == 1
        assert np.array_equal(m.boundary, np.arange(1, m.num_vertices))
        assert np.array_equal(m.interior, [0])

    def test_hyperboloid_constraint(self):
        m = mm.build_cap_mesh(-1.0, 2.5, 0.6856, 5)
        assert m.vertices.shape[1] == 4
        assert reference.model_constraint_residual(m, sphere_from_H(-1.0, 2.5).r_ambient) <= 1e-10

    def test_spherical_model_constraint(self):
        m = mm.build_cap_mesh(1.0, 1.0, 0.4, 3)
        assert reference.model_constraint_residual(m, sphere_from_H(1.0, 1.0).r_ambient) <= 1e-10

    def test_boundary_is_last_ring(self):
        for (kappa, H), level in itertools.product([(-1.0, 2.5), (0.0, 1.0), (1.0, 1.0)], range(5)):
            m = mm.build_cap_mesh(kappa, H, 1.0 / math.sqrt(kappa + H * H), level)
            # build_cap_mesh places the rings outward, so the last ring is the
            # trailing block of vertices at the largest polar angle.
            phi = np.hypot(*mm.pole_chart(m, np.arange(m.num_vertices)).T)
            last_ring = np.flatnonzero(np.isclose(phi, phi.max(), rtol=1e-9, atol=0.0))
            assert 0 < last_ring[0]
            assert np.array_equal(last_ring, np.arange(last_ring[0], m.num_vertices)), (kappa, level)
            assert np.array_equal(m.boundary, last_ring), (kappa, level)
            assert np.array_equal(m.interior, np.arange(last_ring[0])), (kappa, level)

    def test_invalid_cap(self):
        with pytest.raises(MeshError):
            mm.build_cap_mesh(0.0, 1.0, math.pi + 0.2, 3)
        with pytest.raises(MeshError):
            mm.build_cap_mesh(0.0, 1.0, 1.0, -1)

    def test_level_above_max_is_rejected(self):
        # Checked before any ring is placed, so this returns at once.
        assert mm.MAX_LEVEL < 40
        with pytest.raises(MeshError, match="level"):
            mm.build_cap_mesh(0.0, 1.0, 1.0, 40)

    def test_cap_whose_areas_overflow(self):
        # Heron's product for edges of about 1e114 overflows.
        with pytest.raises(MeshError):
            mm.build_cap_mesh(1.057370767916776e-228, 0.0, 1.5275879615279113e114, 0)
        m = mm.build_cap_mesh(1e-200, 0.0, 0.99 * mm.MAX_CAP_RADIUS, 0)
        assert np.isfinite(m.areas).all()

    def test_deterministic(self):
        a = mm.build_cap_mesh(-1.0, 2.5, 0.6, 3)
        b = mm.build_cap_mesh(-1.0, 2.5, 0.6, 3)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)


class TestTopologyRecord:
    @pytest.mark.parametrize("kappa, H, level", [(-1.0, 2.5, 4), (0.0, 1.0, 5), (1.0, 1.0, 3)])
    def test_matches_row_unique_reference(self, kappa, H, level):
        m = mm.build_cap_mesh(kappa, H, 0.5 / math.sqrt(kappa + H * H), level)
        f = m.faces
        half = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
        edges, counts = np.unique(half, axis=0, return_counts=True)
        assert np.array_equal(m.edges, edges)
        assert counts.max() == 2
        assert np.array_equal(m.boundary, np.unique(edges[counts == 1]))
        lengths = mm.ambient_distance(kappa, m.vertices[edges[:, 0]], m.vertices[edges[:, 1]])
        assert np.array_equal(m.edge_lengths, lengths)
        assert np.array_equal(m.edges[m.face_edges], np.sort(m.faces[:, [[1, 2], [2, 0], [0, 1]]], axis=2))
        assert np.array_equal(m.face_lengths, _per_corner_lengths(m))
        assert np.array_equal(m.areas, mm.triangle_areas(_per_corner_lengths(m)))

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_edge_lengths_scatter_to_faces_exactly(self, kappa):
        # One distance per undirected edge is bit-identical to one per face corner.
        H = 2.5 if kappa < 0 else 1.0
        for level in range(8):
            m = mm.build_cap_mesh(kappa, H, 1.4 / math.sqrt(kappa + H * H), level)
            assert np.array_equal(m.face_lengths, _per_corner_lengths(m)), f"level {level}"


class TestAmbientDistance:
    def test_euclidean(self):
        p = np.array([[0.0, 0.0, 0.0]])
        q = np.array([[3.0, 4.0, 0.0]])
        assert mm.ambient_distance(0.0, p, q)[0] == pytest.approx(5.0)

    def test_hyperbolic_antipodal_axis(self):
        # Points at hyperbolic distance 2t along a geodesic through the origin.
        t = 0.8
        p = np.array([[math.cosh(t), math.sinh(t), 0.0, 0.0]])
        q = np.array([[math.cosh(t), -math.sinh(t), 0.0, 0.0]])
        assert mm.ambient_distance(-1.0, p, q)[0] == pytest.approx(2 * t, rel=1e-12)

    def test_spherical(self):
        p = np.array([[1.0, 0.0, 0.0, 0.0]])
        q = np.array([[0.0, 1.0, 0.0, 0.0]])
        assert mm.ambient_distance(1.0, p, q)[0] == pytest.approx(math.pi / 2, rel=1e-12)


def _mpmath_distance(kappa, p, q):
    """Geodesic distance, at 200 digits, between the model projections of float points p and q."""
    import mpmath

    with mpmath.workdps(200):
        k = mpmath.mpf(kappa)
        P, Q = ([mpmath.mpf(float(x)) for x in v] for v in (p, q))
        sign = [1 if kappa > 0 else -1] + [1] * (len(P) - 1)

        def dot(a, b):
            return sum(s * x * y for s, x, y in zip(sign, a, b))

        cos = k * dot(P, Q) / mpmath.sqrt(k * dot(P, P) * k * dot(Q, Q))
        angle = mpmath.acos(cos) if kappa > 0 else mpmath.acosh(cos)
        return angle / mpmath.sqrt(abs(k))


class TestEdgeLengthPrecision:
    # (kappa, H, rho, level): the kappa = -1 and kappa = 1 studies of the
    # mesh-refine benchmark, a cap 1e-5 across on the unit sphere, a
    # hyperboloid whose model coordinates reach 1/sqrt|kappa| = 5.6e36, and
    # a cap 1.4e-39 across.
    @pytest.mark.parametrize("kappa, H, rho, level", [
        (-1.0, 2.7, 1.25 / math.sqrt(-1.0 + 2.7**2), 6),
        (1.0, 1.0, 1.4 / math.sqrt(2.0), 6),
        (1.0, 1.0, 1e-5, 6),
        (-3.204783484537852e-74, 0.561453524084345, 2.7146211501970328, 3),
        (1.298757156924908, 2.7158195916232217, 1.4478499894312238e-39, 2),
    ])
    def test_edge_lengths_match_mpmath(self, kappa, H, rho, level):
        m = mm.build_cap_mesh(kappa, H, rho, level)
        sample = np.random.default_rng(0).choice(len(m.edges), size=min(200, len(m.edges)), replace=False)
        for e in sample:
            i, j = m.edges[e]
            exact = _mpmath_distance(kappa, m.vertices[i], m.vertices[j])
            assert abs(m.edge_lengths[e] - exact) <= 2 * np.finfo(float).eps * exact


class TestIntrinsicRadius:
    def test_fine_mesh_brackets_rho(self):
        rho = 0.8
        m = mm.build_cap_mesh(-1.0, 2.5, rho, 5)
        r = mm.intrinsic_radius(m)
        assert rho <= r <= 1.1 * rho

    def test_single_ring(self):
        m = mm.build_cap_mesh(0.0, 1.0, 0.5, 0)
        r = mm.intrinsic_radius(m)
        # One interior vertex (the center); distance is the radial edge.
        edge = mm.ambient_distance(0.0, m.vertices[:1], m.vertices[1:2])[0]
        assert r == pytest.approx(edge, rel=1e-12)

    def test_hemisphere(self):
        m = mm.build_cap_mesh(0.0, 1.0, math.pi / 2, 6)
        assert mm.intrinsic_radius(m) == pytest.approx(math.pi / 2, rel=0.03)

    def test_no_boundary_error(self):
        # An icosahedron with two antipodal vertices identified: every edge
        # lies in two faces, the orientation is consistent and V - E + F =
        # 11 - 30 + 20 = 1, so it passes as a disk with no boundary.
        vertices, faces = _icosahedron()
        faces = np.where(faces == 11, 0, faces)  # vertex 11 is antipodal to vertex 0
        m = mm.TriMesh(vertices=vertices[:11], faces=faces, kappa=0.0)
        assert m.boundary.size == 0
        with pytest.raises(MeshError, match="no boundary"):
            mm.intrinsic_radius(m)


class TestExport:
    def test_plain_text_round_trip(self, tmp_path):
        m = mm.build_cap_mesh(0.0, 1.0, 1.0, 2)
        path = tmp_path / "cap.txt"
        mm.save_mesh(m, str(path))
        lines = path.read_text().splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == m.num_vertices
        assert len(f_lines) == m.num_faces
        verts = np.array([[float(x) for x in l.split()[1:]] for l in v_lines])
        faces = np.array([[int(x) - 1 for x in l.split()[1:]] for l in f_lines])
        assert np.allclose(verts, m.vertices)
        assert np.array_equal(faces, m.faces)

    def test_deterministic_bytes(self, tmp_path):
        m = mm.build_cap_mesh(-1.0, 2.5, 0.6, 3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        mm.save_mesh(m, str(p1))
        mm.save_mesh(m, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _legacy_zip_rings(inner, inner_ang, outer, outer_ang):
    """Step-by-step walk over both rings, kept as the oracle for the array-built strips."""
    faces = []
    na, nb = len(inner), len(outer)
    ia = ib = 0
    ang_a = np.append(inner_ang, inner_ang[0] + 2.0 * math.pi)
    ang_b = np.append(outer_ang, outer_ang[0] + 2.0 * math.pi)
    while ia < na or ib < nb:
        advance_a = ib >= nb or (ia < na and ang_a[ia + 1] <= ang_b[ib + 1])
        if advance_a:
            faces.append((inner[(ia + 1) % na], inner[ia], outer[ib % nb]))
            ia += 1
        else:
            faces.append((outer[ib], outer[(ib + 1) % nb], inner[ia % na]))
            ib += 1
    return np.array(faces, dtype=np.int64).reshape(-1, 3)


class TestRingStrips:
    @pytest.mark.parametrize("kappa, H", [(-1.0, 2.5), (0.0, 1.0), (1.0, 1.0)])
    def test_faces_match_legacy_walk(self, kappa, H, monkeypatch):
        rho = 0.6 * math.pi / math.sqrt(kappa + H * H)
        built = [mm.build_cap_mesh(kappa, H, rho, level).faces for level in range(8)]
        monkeypatch.setattr(mm, "_zip_rings", _legacy_zip_rings)
        for level, faces in enumerate(built):
            expected = mm.build_cap_mesh(kappa, H, rho, level).faces
            assert np.array_equal(faces, expected), f"level {level}"

    def test_unequal_rings_with_ties(self):
        # Ring sizes sharing divisors put angles of both rings on the same value.
        for na, nb in ((3, 9), (6, 12), (8, 12), (12, 18), (5, 7)):
            inner, outer = np.arange(1, na + 1), np.arange(na + 1, na + nb + 1)
            ang_a = 2.0 * math.pi * np.arange(na) / na
            ang_b = 2.0 * math.pi * np.arange(nb) / nb
            got = np.asarray(mm._zip_rings(inner, ang_a, outer, ang_b))
            assert np.array_equal(got, _legacy_zip_rings(inner, ang_a, outer, ang_b))


def _with_extra(m, vertices, faces):
    """Copy of m with vertices and faces appended (new faces index the new vertices too)."""
    return mm.TriMesh(
        vertices=np.vstack([m.vertices, vertices]),
        faces=np.vstack([m.faces, np.asarray(faces, dtype=np.int64).reshape(-1, 3)]),
        kappa=m.kappa,
    )


def _icosahedron():
    """Unit icosahedron with outward faces: vertex 0 at the north pole, 11 at the south pole."""
    ring = 2.0 * math.pi * np.arange(5) / 5
    z, r = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    upper = np.stack([r * np.cos(ring), r * np.sin(ring), np.full(5, z)], axis=1)
    lower = np.stack([r * np.cos(ring + math.pi / 5), r * np.sin(ring + math.pi / 5), np.full(5, -z)], axis=1)
    vertices = np.vstack([[0.0, 0.0, 1.0], upper, lower, [0.0, 0.0, -1.0]])
    faces = []
    for i in range(5):
        a, b, c, d = 1 + i, 1 + (i + 1) % 5, 6 + i, 6 + (i + 1) % 5
        faces += [[0, a, b], [a, c, b], [b, c, d], [11, d, c]]
    faces = np.array(faces)
    p = vertices[faces]
    outward = np.einsum("ij,ij->i", np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), p.sum(axis=1)) > 0
    return vertices, np.where(outward[:, None], faces, faces[:, ::-1])


class TestCheckTopology:
    """The checks that the TriMesh constructor runs on every mesh."""

    def _cap(self):
        return mm.build_cap_mesh(0.0, 1.0, 1.0, 2)

    def test_valid_cap_passes(self):
        m = self._cap()
        rebuilt = mm.TriMesh(vertices=m.vertices, faces=m.faces, kappa=m.kappa)
        assert np.array_equal(rebuilt.edges, m.edges)
        assert np.array_equal(rebuilt.areas, m.areas)

    def test_edge_in_three_faces(self):
        m = self._cap()
        a, b, _ = m.faces[0]  # a-b is shared by the centre fan and the first strip
        with pytest.raises(MeshError, match="more than two faces"):
            _with_extra(m, [[5.0, 5.0, 5.0]], [[a, b, m.num_vertices]])

    def test_one_flipped_face(self):
        m = self._cap()
        faces = m.faces.copy()
        faces[0] = faces[0, ::-1]
        with pytest.raises(MeshError, match="orientation"):
            mm.TriMesh(vertices=m.vertices, faces=faces, kappa=m.kappa)

    def test_extra_disjoint_triangle_is_not_a_disk(self):
        m = self._cap()
        nv = m.num_vertices
        tri = [[5.0, 0.0, 0.0], [6.0, 0.0, 0.0], [5.0, 1.0, 0.0]]
        with pytest.raises(MeshError, match="not a disk"):
            _with_extra(m, tri, [[nv, nv + 1, nv + 2]])

    def test_closed_surface_is_not_a_disk(self):
        vertices, faces = _icosahedron()
        with pytest.raises(MeshError, match="Euler characteristic 2"):
            mm.TriMesh(vertices=vertices, faces=faces, kappa=0.0)


_TRIANGLE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestTriMeshInput:
    def test_single_triangle(self):
        m = mm.TriMesh(vertices=_TRIANGLE, faces=np.array([[0, 1, 2]]), kappa=0.0)
        assert np.array_equal(m.edges, [[0, 1], [0, 2], [1, 2]])
        assert np.array_equal(m.boundary, [0, 1, 2])
        assert m.interior.size == 0
        assert m.areas[0] == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(MeshError, match="no interior vertices"):
            mm.intrinsic_radius(m)

    @pytest.mark.parametrize("faces, match", [
        ([[0, 1, 5]], r"\[0, 3\)"),  # the edge key would alias (1, 5) to (2, 2)
        ([[0, 1, -1]], r"\[0, 3\)"),
        ([[0, 1, 1]], "repeats"),
        (np.zeros((0, 3), dtype=np.int64), "non-empty"),
        ([0, 1, 2], r"\(nf, 3\)"),
        ([[0, 1, 2, 0]], r"\(nf, 3\)"),
        ([[0.0, 1.0, 2.0]], "integer"),
    ])
    def test_bad_faces(self, faces, match):
        with pytest.raises(MeshError, match=match):
            mm.TriMesh(vertices=_TRIANGLE, faces=np.asarray(faces), kappa=0.0)

    @pytest.mark.parametrize("vertices, kappa", [
        (_TRIANGLE, -1.0),  # the hyperboloid model has 4 columns
        (np.hstack([_TRIANGLE, np.ones((3, 1))]), 0.0),
        (np.where(np.eye(3, dtype=bool), np.nan, _TRIANGLE), 0.0),
        (np.where(np.eye(3, dtype=bool), np.inf, _TRIANGLE), 0.0),
        (_TRIANGLE.ravel(), 0.0),
    ])
    def test_bad_vertices(self, vertices, kappa):
        with pytest.raises(MeshError, match="vertices"):
            mm.TriMesh(vertices=vertices, faces=np.array([[0, 1, 2]]), kappa=kappa)
