import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

import reference
from cmcradius import mesh as mm
from cmcradius.errors import MeshError


def _per_corner_lengths(m, kappa):
    """(nf, 3) geodesic lengths computed at every face corner, entry i opposite corner i."""
    v, f = m.vertices, m.faces
    return np.stack(
        [mm.ambient_distance(kappa, (v[f[:, j]] - v[f[:, k]]).T) for j, k in ((1, 2), (2, 0), (0, 1))],
        axis=1,
    )


PINNED_MESHES = Path(__file__).resolve().parent / "pinned" / "cap_meshes.json"
PINNED_CAPS = {-1.0: (2.5, 0.55), 0.0: (1.0, 1.9), 1.0: (0.5, 1.25)}


def _ring_counts(m):
    """Vertices per ring, the pole first: a vertex's ring is its edge-hop distance from the pole."""
    n = m.num_vertices
    graph = csr_matrix((np.ones(len(m.edges)), m.edges.T), shape=(n, n))
    hops = shortest_path(graph, directed=False, unweighted=True, indices=0)
    return np.bincount(hops.astype(int)).tolist()


def _faces_digest(m):
    return hashlib.sha256(m.faces.astype("<i8").tobytes()).hexdigest()


class TestBuildCapMesh:
    @pytest.mark.parametrize("kappa", sorted(PINNED_CAPS))
    @pytest.mark.parametrize("level", range(6))
    def test_rings_and_faces_are_pinned(self, kappa, level):
        # Integers only, so the pin does not depend on the platform's float rounding.
        pinned = json.loads(PINNED_MESHES.read_text())[repr(kappa)][level]
        m = mm.build_cap_mesh(kappa, *PINNED_CAPS[kappa], level)
        assert _ring_counts(m) == pinned["ring_counts"]
        assert m.faces.shape == (pinned["faces"], 3)
        assert _faces_digest(m) == pinned["faces_sha256"]

    def test_hemisphere_area(self):
        m = mm.build_cap_mesh(0.0, 1.0, math.pi / 2, 4)
        area = mm.triangle_areas(_per_corner_lengths(m, 0.0)).sum()
        assert area == pytest.approx(2 * math.pi, rel=0.01)

    def test_level_zero_is_a_disk(self):
        m = mm.build_cap_mesh(0.0, 1.0, math.pi / 2, 0)
        assert m.num_vertices - len(m.edges) + len(m.faces) == 1
        assert np.array_equal(m.boundary, np.arange(1, m.num_vertices))
        assert np.array_equal(m.interior, [0])

    def test_hyperboloid_constraint(self):
        m = mm.build_cap_mesh(-1.0, 2.5, 0.6856, 5)
        assert m.vertices.shape[1] == 4
        assert reference.model_constraint_residual(m, -1.0) <= 1e-10

    def test_spherical_model_constraint(self):
        m = mm.build_cap_mesh(1.0, 1.0, 0.4, 3)
        assert reference.model_constraint_residual(m, 1.0) <= 1e-10

    @pytest.mark.parametrize("kappa, H", [(-1.0, 2.5), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (-4.0, 2.1)])
    def test_vertices_lie_on_the_sphere_of_mean_curvature_H(self, kappa, H):
        # Every vertex lies at one ambient distance r from the model's centre,
        # and the geodesic r-sphere has principal curvatures cot_kappa(r) = H.
        m = mm.build_cap_mesh(kappa, H, 1.0 / math.sqrt(kappa + H * H), 3)
        centre = np.zeros(m.vertices.shape[1])
        if kappa:
            centre[0 if kappa < 0.0 else -1] = 1.0 / math.sqrt(abs(kappa))
        for r in mm.ambient_distance(kappa, (m.vertices - centre).T):
            assert reference.cot_kappa(kappa, float(r)) == pytest.approx(H, rel=1e-12, abs=1e-15)

    def test_boundary_is_last_ring(self):
        for (kappa, H), level in itertools.product([(-1.0, 2.5), (0.0, 1.0), (1.0, 1.0)], range(5)):
            m = mm.build_cap_mesh(kappa, H, 1.0 / math.sqrt(kappa + H * H), level)
            # build_cap_mesh places the rings outward, so the last ring is the
            # trailing block of vertices at the largest polar angle.
            phi = reference.polar_angles(m, kappa)
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
        assert np.isfinite(mm.triangle_areas(m.edge_lengths[m.face_edges])).all()

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
        lengths = mm.ambient_distance(kappa, (m.vertices[edges[:, 0]] - m.vertices[edges[:, 1]]).T)
        assert np.array_equal(m.edge_lengths, lengths)
        assert np.array_equal(m.edges[m.face_edges], np.sort(m.faces[:, [[1, 2], [2, 0], [0, 1]]], axis=2))
        # The assembly reads each face's lengths and Heron areas through face_edges.
        face_lengths = m.edge_lengths[m.face_edges]
        assert np.array_equal(face_lengths, _per_corner_lengths(m, kappa))
        assert np.array_equal(mm.triangle_areas(face_lengths), mm.triangle_areas(_per_corner_lengths(m, kappa)))

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_edge_lengths_scatter_to_faces_exactly(self, kappa):
        # One distance per undirected edge is bit-identical to one per face corner.
        H = 2.5 if kappa < 0 else 1.0
        for level in range(8):
            m = mm.build_cap_mesh(kappa, H, 1.4 / math.sqrt(kappa + H * H), level)
            assert np.array_equal(m.edge_lengths[m.face_edges], _per_corner_lengths(m, kappa)), f"level {level}"


def _hand_built(name):
    """(vertices, faces, kappa) of a valid hand-built mesh of this module."""
    if name == "triangle":
        return _TRIANGLE, np.array([[0, 1, 2]]), 0.0
    if name == "jittered grid":
        m = _grid(10, np.random.default_rng(3).normal(size=100))
        return m.vertices + np.random.default_rng(4).normal(scale=1e-3, size=(100, 3)), m.faces, 0.0
    if name == "negative zero grid":
        z = np.zeros(100)
        z[37] = -0.0
        m = _grid(10, z)
        return m.vertices, m.faces, 0.0
    up = 1.0 + 2.0**-52  # near-antipodal points on the sphere
    vertices = np.array([[up, 0.0, 0.0, 0.0], [-up, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 1e-9, 0.0, 0.0]])
    return vertices, np.array([[0, 1, 2], [0, 2, 3]]), 1.0


class TestNaiveTopology:
    """Every TriMesh array equals, in value and dtype, its naive derivation in tests/reference.py."""

    @staticmethod
    def _check(vertices, faces, kappa):
        m = mm.TriMesh(vertices=vertices, faces=faces, kappa=kappa)
        edges, face_edges, boundary, interior = reference.naive_topology(faces, len(vertices))
        expected = {"vertices": np.asarray(vertices, dtype=float), "faces": np.asarray(faces, dtype=np.int64),
                    "edges": edges, "face_edges": face_edges, "boundary": boundary, "interior": interior,
                    "edge_lengths": reference.row_gather_edge_lengths(m, kappa)}  # from m.edges, checked first
        expected["by_hi"] = np.argsort(edges[:, 1], kind="stable").astype(np.int32)
        assert set(vars(m)) == set(expected)  # the mesh keeps these arrays and nothing else
        for name, want in expected.items():
            got = getattr(m, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        face_lengths = expected["edge_lengths"][face_edges]  # what the assembly derives
        assert np.array_equal(m.edge_lengths[m.face_edges], face_lengths)
        assert np.array_equal(mm.triangle_areas(m.edge_lengths[m.face_edges]), mm.triangle_areas(face_lengths))

    @pytest.mark.parametrize("kappa", sorted(PINNED_CAPS))
    @pytest.mark.parametrize("level", range(7))
    def test_pinned_caps(self, kappa, level):
        cap = mm.build_cap_mesh(kappa, *PINNED_CAPS[kappa], level)
        self._check(cap.vertices.copy(), cap.faces.copy(), kappa)

    @pytest.mark.parametrize("name", ["triangle", "jittered grid", "negative zero grid", "near-antipodal"])
    def test_hand_built_meshes(self, name):
        self._check(*_hand_built(name))


class TestAmbientDistance:
    def test_euclidean(self):
        p = np.array([[0.0, 0.0, 0.0]])
        q = np.array([[3.0, 4.0, 0.0]])
        assert mm.ambient_distance(0.0, (p - q).T)[0] == pytest.approx(5.0)

    def test_hyperbolic_antipodal_axis(self):
        # Points at hyperbolic distance 2t along a geodesic through the origin.
        t = 0.8
        p = np.array([[math.cosh(t), math.sinh(t), 0.0, 0.0]])
        q = np.array([[math.cosh(t), -math.sinh(t), 0.0, 0.0]])
        assert mm.ambient_distance(-1.0, (p - q).T)[0] == pytest.approx(2 * t, rel=1e-12)

    def test_spherical(self):
        p = np.array([[1.0, 0.0, 0.0, 0.0]])
        q = np.array([[0.0, 1.0, 0.0, 0.0]])
        assert mm.ambient_distance(1.0, (p - q).T)[0] == pytest.approx(math.pi / 2, rel=1e-12)


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


class TestProlongation:
    # A cap of each model, one past the hemisphere and one near the antipode.
    CAPS = [(-1.0, 2.7, 0.5), (0.0, 2.0, 0.95), (1.0, 0.0, 3.1)]

    @staticmethod
    def _interior_polar(cap, level):
        m = mm.build_cap_mesh(*cap, level)
        return reference.polar_angles(m, cap[0])[m.interior]

    @pytest.mark.parametrize("cap", CAPS)
    def test_rows_sum_to_one_away_from_the_boundary(self, cap):
        s = cap[2] * math.sqrt(cap[0] + cap[1] ** 2)  # ring i lies at polar angle i s / 2**level
        for level in (1, 4, 6):
            P = reference.ell_to_scipy(mm.prolongation(*cap, level))
            fine = self._interior_polar(cap, level)
            assert P.shape == (fine.size, self._interior_polar(cap, level - 1).size)
            assert P.min() >= 0.0
            ring = np.rint(fine * 2**level / s)
            sums = np.asarray(P.sum(axis=1)).ravel()
            # The ring next to the boundary averages a coarse ring and the boundary's zeros.
            last = ring == 2**level - 1
            assert np.abs(sums[~last] - 1.0).max() <= 4e-16
            assert np.array_equal(sums[last], np.full(last.sum(), 0.5))

    @pytest.mark.parametrize("cap", CAPS)
    def test_smooth_radial_function_is_second_order(self, cap):
        # cos(pi phi / 2s) is radial, smooth and 0 on the boundary.
        s = cap[2] * math.sqrt(cap[0] + cap[1] ** 2)
        errors = []
        for level in (4, 5, 6, 7):
            coarse = np.cos(0.5 * math.pi * self._interior_polar(cap, level - 1) / s)
            fine = np.cos(0.5 * math.pi * self._interior_polar(cap, level) / s)
            errors.append(np.abs(mm.prolongation(*cap, level) @ coarse - fine).max())
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios

    @pytest.mark.parametrize("cap", CAPS)
    def test_arrays_match_the_summed_triplets(self, cap):
        # Every stored entry in place, the explicit zeros at frac = 0 included:
        # an even ring's two reads of one coarse ring merge bit for bit.
        for level in range(1, 8):
            P = mm.prolongation(*cap, level)
            assert P.columns.dtype == np.int32 and P.columns.shape == P.values.shape == (4, P.shape[0])
            got, want = reference.ell_to_scipy(P), reference.coo_prolongation(*cap, level)
            assert got.shape == want.shape and got.has_canonical_format
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (level, name)
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
            assert level == 1 or np.count_nonzero(got.data == 0.0) > 0  # level 1 reads only the pole

    def test_level_zero_has_no_coarser_level(self):
        with pytest.raises(MeshError, match="^level 0 has no coarser level$"):
            mm.prolongation(*self.CAPS[0], 0)


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
        edge = mm.ambient_distance(0.0, (m.vertices[:1] - m.vertices[1:2]).T)[0]
        assert r == pytest.approx(edge, rel=1e-12)

    def test_hemisphere(self):
        m = mm.build_cap_mesh(0.0, 1.0, math.pi / 2, 6)
        assert mm.intrinsic_radius(m) == pytest.approx(math.pi / 2, rel=0.03)

    @pytest.mark.parametrize("kappa", sorted(PINNED_CAPS))
    @pytest.mark.parametrize("level", range(8))
    def test_equals_dijkstra_on_pinned_caps(self, kappa, level):
        m = mm.build_cap_mesh(kappa, *PINNED_CAPS[kappa], level)
        assert mm.intrinsic_radius(m) == reference.dijkstra_radius(m)

    def test_equals_dijkstra_on_a_shuffled_cap(self):
        # Any vertex numbering gives the same least path sums; only the sweeps' cost depends on it.
        cap = mm.build_cap_mesh(-1.0, *PINNED_CAPS[-1.0], 5)
        order = np.random.default_rng(11).permutation(cap.num_vertices)
        new_index = np.argsort(order)
        m = mm.TriMesh(vertices=cap.vertices[order], faces=new_index[cap.faces], kappa=-1.0)
        assert mm.intrinsic_radius(m) == reference.dijkstra_radius(m) == mm.intrinsic_radius(cap)

    @pytest.mark.parametrize("name", ["jittered grid", "negative zero grid"])
    def test_equals_dijkstra_on_hand_built_meshes(self, name):
        m = mm.TriMesh(*_hand_built(name))
        assert mm.intrinsic_radius(m) == reference.dijkstra_radius(m)

    def test_no_boundary_error(self):
        # An icosahedron with two antipodal vertices identified: every edge
        # lies in two faces, the orientation is consistent and V - E + F =
        # 11 - 30 + 20 = 1, so only the boundary rule rejects it.
        vertices, faces = _icosahedron()
        faces = np.where(faces == 11, 0, faces)  # vertex 11 is antipodal to vertex 0
        with pytest.raises(MeshError, match="no boundary"):
            mm.TriMesh(vertices=vertices[:11], faces=faces, kappa=0.0)


class TestExport:
    def test_plain_text_round_trip(self, tmp_path):
        m = mm.build_cap_mesh(0.0, 1.0, 1.0, 2)
        path = tmp_path / "cap.txt"
        mm.save_mesh(m, str(path))
        lines = path.read_text().splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == m.num_vertices
        assert len(f_lines) == len(m.faces)
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

    @pytest.mark.parametrize("kappa", sorted(PINNED_CAPS))
    def test_cap_bytes_match_line_by_line_export(self, kappa, tmp_path):
        # Ring heights, and the model coordinate for kappa != 0, are formatted once per run.
        path = tmp_path / "cap.txt"
        for level in range(6):
            m = mm.build_cap_mesh(kappa, *PINNED_CAPS[kappa], level)
            mm.save_mesh(m, str(path))
            assert path.read_text() == reference.export_text(m), f"level {level}"

    def test_level_seven_cap_bytes(self, tmp_path):
        m = mm.build_cap_mesh(1.0, 0.5, 1.25, 7)
        path = tmp_path / "cap.txt"
        mm.save_mesh(m, str(path))
        assert path.read_text() == reference.export_text(m)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocked_export_bytes(self, block, tmp_path, monkeypatch):
        # Runs and face lines split at every block bound, down to one row per write.
        monkeypatch.setattr(mm, "EXPORT_BLOCK", block)
        path = tmp_path / "mesh.txt"
        for m in [mm.build_cap_mesh(-1.0, *PINNED_CAPS[-1.0], 3), _grid(10, np.zeros(100)),
                  mm.TriMesh(*_hand_built("jittered grid"))]:
            mm.save_mesh(m, str(path))
            assert path.read_text() == reference.export_text(m)

    @pytest.mark.parametrize("name", ["triangle", "every column varies", "negative zero"])
    def test_hand_built_mesh_bytes(self, name, tmp_path):
        if name == "triangle":
            m = mm.TriMesh(vertices=_TRIANGLE, faces=np.array([[0, 1, 2]]), kappa=0.0)
        elif name == "every column varies":
            m = _grid(10, np.random.default_rng(3).normal(size=100))
            jitter = np.random.default_rng(4).normal(scale=1e-3, size=(100, 3))
            m = mm.TriMesh(vertices=m.vertices + jitter, faces=m.faces, kappa=0.0)
        else:
            # The height column is constant but for one -0.0 among the 0.0s: equal as
            # floats, but printed as -0 and 0, so a run must end at each sign change.
            z = np.zeros(100)
            z[37] = -0.0
            m = _grid(10, z)
        path = tmp_path / "mesh.txt"
        mm.save_mesh(m, str(path))
        assert path.read_text() == reference.export_text(m)
        if name == "negative zero":
            assert path.read_text().splitlines()[37].endswith(" -0")


def _grid(k, z):
    """k x k vertices of the unit square at heights z, cut into 2 (k-1)^2 triangles."""
    gx, gy = np.meshgrid(np.arange(k) / (k - 1), np.arange(k) / (k - 1), indexing="ij")
    a = (np.arange(k - 1)[:, None] * k + np.arange(k - 1)[None, :]).ravel()
    faces = np.concatenate([np.stack([a, a + k, a + k + 1], axis=1), np.stack([a, a + k + 1, a + 1], axis=1)])
    return mm.TriMesh(vertices=np.stack([gx.ravel(), gy.ravel(), z], axis=1), faces=faces, kappa=0.0)


class TestEdgeLengthsByColumn:
    """TriMesh gathers each coordinate column once; its lengths equal the row-gather formula bit for bit."""

    @pytest.mark.parametrize("kappa", sorted(PINNED_CAPS))
    def test_caps(self, kappa):
        for level in [*range(6), 7]:
            m = mm.build_cap_mesh(kappa, *PINNED_CAPS[kappa], level)
            assert np.array_equal(m.edge_lengths, reference.row_gather_edge_lengths(m, kappa)), f"level {level}"

    @pytest.mark.parametrize("kappa, H, rho", [
        (1.0, 1.0, 1e-5),
        (-3.204783484537852e-74, 0.561453524084345, 2.7146211501970328),
        (1.298757156924908, 2.7158195916232217, 1.4478499894312238e-39),
        (0.0, 1.0, 1e-300),
    ])
    def test_tiny_chords(self, kappa, H, rho):
        m = mm.build_cap_mesh(kappa, H, rho, 4)
        assert np.array_equal(m.edge_lengths, reference.row_gather_edge_lengths(m, kappa))

    def test_near_antipodal_points_on_the_sphere(self):
        # Chords a few ulp longer than the diameter 2: half the chord clips to 1.
        up = 1.0 + 2.0**-52
        vertices = np.array([[up, 0.0, 0.0, 0.0], [-up, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                             [-1.0, 1e-9, 0.0, 0.0]])
        m = mm.TriMesh(vertices=vertices, faces=np.array([[0, 1, 2], [0, 2, 3]]), kappa=1.0)
        assert np.array_equal(m.edge_lengths, reference.row_gather_edge_lengths(m, 1.0))
        assert m.edge_lengths[0] == math.pi


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
    """Copy of the flat mesh m with vertices and faces appended (new faces index the new vertices too)."""
    return mm.TriMesh(
        vertices=np.vstack([m.vertices, vertices]),
        faces=np.vstack([m.faces, np.asarray(faces, dtype=np.int64).reshape(-1, 3)]),
        kappa=0.0,
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


def _torus_faces(offset):
    """Consistently oriented faces of a 4 x 4 grid torus on vertices offset, ..., offset + 15."""
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")

    def vertex(di, dj):
        return offset + ((i + di) % 4 * 4 + (j + dj) % 4).ravel()

    p, q, r, s = vertex(0, 0), vertex(1, 0), vertex(1, 1), vertex(0, 1)
    return np.concatenate([np.stack([p, q, r], axis=1), np.stack([p, r, s], axis=1)])


class TestCheckTopology:
    """The checks that the TriMesh constructor runs on every mesh."""

    def _cap(self):
        return mm.build_cap_mesh(0.0, 1.0, 1.0, 2)

    def test_valid_cap_passes(self):
        m = self._cap()
        rebuilt = mm.TriMesh(vertices=m.vertices, faces=m.faces, kappa=0.0)
        assert np.array_equal(rebuilt.edges, m.edges)
        assert np.array_equal(rebuilt.edge_lengths, m.edge_lengths)

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
            mm.TriMesh(vertices=m.vertices, faces=faces, kappa=0.0)

    def test_extra_disjoint_triangle_is_not_a_disk(self):
        m = self._cap()
        nv = m.num_vertices
        tri = [[5.0, 0.0, 0.0], [6.0, 0.0, 0.0], [5.0, 1.0, 0.0]]
        with pytest.raises(MeshError, match="not a disk"):
            _with_extra(m, tri, [[nv, nv + 1, nv + 2]])

    def test_disk_plus_a_torus_is_not_a_disk(self):
        # A level-1 cap and a disjoint 4 x 4 grid torus: Euler characteristic
        # 1 + 0, every edge in at most two faces, consistently oriented.
        m = mm.build_cap_mesh(0.0, 1.0, 1.0, 1)
        i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        a, b = 2.0 * math.pi * i.ravel() / 4, 2.0 * math.pi * j.ravel() / 4
        torus = np.stack([(3 + np.cos(b)) * np.cos(a), (3 + np.cos(b)) * np.sin(a), np.sin(b)], axis=1)
        with pytest.raises(MeshError, match="2 connected components"):
            _with_extra(m, torus + 10.0, _torus_faces(m.num_vertices))

    @pytest.mark.parametrize("second", ["torus", "disk"])
    def test_component_roots_agree_with_scipy(self, second):
        from scipy.sparse.csgraph import connected_components

        cap = mm.build_cap_mesh(0.0, 1.0, 1.0, 1)
        faces = _torus_faces(cap.num_vertices) if second == "torus" else cap.faces + cap.num_vertices
        nv = int(faces.max()) + 1
        edges = reference.naive_topology(np.vstack([cap.faces, faces]), nv)[0]
        roots = mm.component_roots(edges, nv)
        graph = csr_matrix((np.ones(len(edges)), edges.T), shape=(nv, nv))
        count, labels = connected_components(graph, directed=False)
        assert count == 2 and np.count_nonzero(roots == np.arange(nv)) == count
        assert np.array_equal(np.unique(roots, return_inverse=True)[1], labels)

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
        assert mm.triangle_areas(m.edge_lengths[m.face_edges])[0] == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(MeshError, match="^mesh has no interior vertices$"):
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
