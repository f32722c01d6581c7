import math

import numpy as np
import pytest

from cmcradius import discrete as dd
from cmcradius import mesh as mm
from cmcradius import spaceforms as sf
from cmcradius.errors import MeshError
from cmcradius.mesh import TriMesh


def _flat_triangle_mesh(points, faces):
    return TriMesh(vertices=np.asarray(points, dtype=float), faces=np.asarray(faces, dtype=np.int64), kappa=0.0)


def _flat_grid_mesh(k):
    """Unit square cut into k x k cells, each split into two triangles, in the plane z = 0."""
    xs = np.linspace(0.0, 1.0, k + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    a = (np.arange(k)[:, None] * (k + 1) + np.arange(k)[None, :]).ravel()
    b, c, d = a + k + 1, a + k + 2, a + 1
    faces = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])
    return _flat_triangle_mesh(points, faces)


def _reference_system(m):
    """Dense full cotangent stiffness and lumped mass, assembled one face at a time.

    Lengths are model distances between each face's corners and areas come
    from Heron's formula, in Python floats.  Corner i of every face is
    visited before corner i + 1 of any, the order in which the package sums
    a vertex's masses, so the masses agree exactly.
    """
    v, faces = m.vertices, m.faces.tolist()
    squares, areas = [], []
    for f in faces:
        a, b, c = (float(mm.ambient_distance(m.kappa, v[f[q]], v[f[r]])[0])
                   for q, r in ((1, 2), (2, 0), (0, 1)))
        s = 0.5 * (a + b + c)
        squares.append((a * a, b * b, c * c))
        areas.append(math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0)))
    K = np.zeros((m.num_vertices, m.num_vertices))
    mass = np.zeros(m.num_vertices)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for f, l2, area in zip(faces, squares, areas):
            w = (l2[j] + l2[k] - l2[i]) / (8.0 * area)  # half-cotangent of the angle at corner i
            K[f[j], f[k]] -= w
            K[f[k], f[j]] -= w
            K[f[j], f[j]] += w
            K[f[k], f[k]] += w
            mass[f[i]] += area / 3.0
    return K, mass


def _assert_matches_reference(m, problem):
    K, mass = _reference_system(m)
    idx = problem.interior
    scale = np.abs(K).max()
    assert np.abs(problem.stiffness.toarray() - K[np.ix_(idx, idx)]).max() <= 1e-13 * scale
    assert np.array_equal(problem.mass, mass[idx])


class TestStiffness:
    def test_equilateral_cotangent_weight(self):
        m = _flat_triangle_mesh([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]], [[0, 1, 2]])
        K, _ = _reference_system(m)
        w = 1.0 / (2.0 * math.sqrt(3.0))
        off = np.array([[K[0, 1], K[0, 2], K[1, 2]]])
        assert np.allclose(off, -w, rtol=1e-12)
        assert np.allclose(K @ np.ones(3), 0.0, atol=1e-14)
        # A hexagon fan of unit equilateral triangles: the centre, its one
        # interior vertex, has six edges in two faces each, of weight 2w.
        ang = np.arange(6) * math.pi / 3.0
        pts = np.vstack([np.zeros(3), np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)])
        fan = _flat_triangle_mesh(pts, [[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)])
        stiffness = dd.assemble_stability(fan).stiffness.toarray()
        assert stiffness == pytest.approx(np.array([[12.0 * w]]), rel=1e-12)

    def test_kernel_and_symmetry_on_cap(self):
        m = mm.build_cap_mesh(-1.0, 2.5, 0.6, 4)
        K, _ = _reference_system(m)
        assert np.array_equal(K, K.T)
        assert np.abs(K @ np.ones(m.num_vertices)).max() < 1e-12
        problem = dd.assemble_stability(m)
        S = problem.stiffness
        assert (S != S.T).nnz == 0
        _assert_matches_reference(m, problem)
        # Positive definite: Rayleigh quotient positive on random vectors.
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=S.shape[0])
            assert x @ (S @ x) > 0.0

    def test_degenerate_triangle_rejected(self):
        m = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0.5, 1.0, 0]],
            [[0, 1, 3], [1, 2, 3], [0, 2, 1]],
        )
        with pytest.raises(MeshError):
            dd.assemble_stability(m)

    def test_mass_rowsums_are_vertex_areas(self):
        m = mm.build_cap_mesh(0.0, 1.0, 1.0, 3)
        _, masses = _reference_system(m)
        total = mm.triangle_areas(m.face_lengths).sum()
        assert masses.sum() == pytest.approx(total, rel=1e-12)
        assert (masses > 0).all()
        problem = dd.assemble_stability(m)
        assert np.array_equal(problem.mass, masses[problem.interior])


class TestLambda1Dirichlet:
    def test_one_interior_vertex_closed_form(self):
        # Square split into four triangles around its center: the reduced
        # problem is 1x1 and solvable by hand.
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]]
        faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        m = _flat_triangle_mesh(pts, faces)
        problem = dd.assemble_stability(m)
        K, mass = _reference_system(m)
        expected = K[4, 4] / mass[4]
        assert dd.lambda1_dirichlet(problem, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_flat_cap_matches_ode_oracle(self):
        rho = math.pi / 3
        m = mm.build_cap_mesh(0.0, 1.0, rho, 6)
        lam = dd.lambda1_dirichlet(dd.assemble_stability(m), -2.0)
        oracle = sf.lambda1_ball(2, 1.0, rho) - 2.0
        assert lam == pytest.approx(oracle, rel=0.02)

    def test_potential_shift_is_exact(self):
        # A constant potential only shifts the spectrum: the iterates do not
        # depend on the shift, which is added to the same Rayleigh quotient.
        m = mm.build_cap_mesh(-1.0, 2.5, 0.5, 4)
        problem = dd.assemble_stability(m)
        lam0 = dd.lambda1_dirichlet(problem, 0.0)
        for s in (-8.5, -1.25, 3.0):
            assert dd.lambda1_dirichlet(problem, s) - lam0 == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_stiffness_is_full_stiffness_on_the_interior(self):
        m = mm.build_cap_mesh(1.0, 1.0, 1.0, 4)
        _assert_matches_reference(m, dd.assemble_stability(m))


class TestMeshVerify:
    def test_stable_case(self):
        rep = dd.mesh_verify(-1.0, 2.5, 0.55, 0.0, [3, 4, 5])
        finest = rep.levels[-1]
        assert finest.verdict == "stable"
        assert rep.agrees_with_oracle
        assert rep.c_best is not None and finest.radius <= rep.c_best
        assert finest.status == "pass"

    def test_unstable_case(self):
        rep = dd.mesh_verify(-1.0, 2.5, 0.80, 0.0, [3, 4, 5])
        finest = rep.levels[-1]
        assert finest.verdict == "unstable"
        assert rep.agrees_with_oracle
        assert finest.status == "pass"  # the bound is checked on stable levels only

    def test_marginal_case(self):
        rho_star = sf.max_stable_cap_radius(2, -1.0, 2.5, 0.0)
        rep = dd.mesh_verify(-1.0, 2.5, rho_star, 0.0, [5])
        assert rep.levels[-1].verdict == "marginal"
        assert rep.agrees_with_oracle

    def test_levels_out_of_range_are_rejected_before_any_mesh(self, monkeypatch):
        monkeypatch.setattr(dd, "build_cap_mesh", lambda *args: pytest.fail("a mesh was built"))
        for levels in ([3, 40], [-1, 3]):
            with pytest.raises(MeshError, match="levels"):
                dd.mesh_verify(-1.0, 2.5, 0.55, 0.0, levels)

    def test_convergence_order(self):
        rep = dd.mesh_verify(0.0, 1.0, math.pi / 3, 0.0, [3, 4, 5, 6])
        assert rep.convergence_order is not None
        assert rep.convergence_order >= 1.5

    def test_radius_within_distortion_band(self):
        # Coarse levels may undershoot rho slightly (ambient chords are
        # shorter than surface arcs); fine levels overestimate by the
        # Dijkstra zigzag factor, well under 10%.
        rho = 0.6
        for level in (3, 4, 5, 6):
            r = mm.intrinsic_radius(mm.build_cap_mesh(-1.0, 2.5, rho, level))
            assert 0.98 * rho <= r <= 1.1 * rho
            if level >= 5:
                assert r >= rho


class TestShortEdges:
    # Caps whose edges are far shorter than the curvature radius, or whose
    # model coordinates are huge: edge lengths come from the model chord.
    def test_small_cap_on_unit_sphere_converges(self):
        rep = dd.mesh_verify(1.0, 1.0, 1e-5, 0.0, [3, 5, 7])
        assert 1.9 <= rep.convergence_order <= 2.1
        errors = [row.oracle_error for row in rep.levels]
        assert errors == sorted(errors, reverse=True)
        assert rep.agrees_with_oracle

    def test_tiny_cap_resolves_its_edges(self):
        rho = 1.4478499894312238e-39
        rep = dd.mesh_verify(1.298757156924908, 2.7158195916232217, rho, 4.168669966605997e-26, [1, 2])
        assert all(row.max_edge < rho for row in rep.levels)
        assert 1.9 <= rep.convergence_order <= 2.1
        assert rep.agrees_with_oracle

    def test_tiny_negative_kappa_is_stable(self):
        rho = 2.7146211501970328
        rep = dd.mesh_verify(-3.204783484537852e-74, 0.561453524084345, rho, 0.7846050826883366, [0, 1, 2, 3])
        assert all(row.max_edge < rho for row in rep.levels)
        assert rep.oracle_lambda1 > 0.0
        assert rep.levels[-1].verdict == "stable"
        assert rep.agrees_with_oracle


class TestDenseReference:
    @pytest.mark.parametrize("kappa, H, rho, delta", [(-1.0, 2.5, 0.6, 0.0), (1.0, 1.0, 1.0, 0.4)])
    def test_lambda1_matches_dense_pencil(self, kappa, H, rho, delta):
        from scipy.linalg import eigh

        m = mm.build_cap_mesh(kappa, H, rho, 3)
        problem = dd.assemble_stability(m)
        K, mass = _reference_system(m)
        idx = m.interior
        K_ii, mass = K[np.ix_(idx, idx)], mass[idx]
        q = 2.0 * (1.0 - delta) * (kappa + H * H)
        dense = eigh(K_ii - q * np.diag(mass), np.diag(mass), eigvals_only=True)
        assert dd.lambda1_dirichlet(problem, -q) == pytest.approx(dense[0], rel=1e-10)

    def test_grid_with_collapsed_chart(self):
        # Grid points on one ray from the origin share a chart point, so the
        # order has ties in every cell; the un-permuted solve still gives
        # the dense eigenvalue.
        from scipy.linalg import eigh

        m = _flat_grid_mesh(9)
        problem = dd.assemble_stability(m)
        dense = eigh(problem.stiffness.toarray(), np.diag(problem.mass), eigvals_only=True)
        assert dd.lambda1_dirichlet(problem, 0.0) == pytest.approx(dense[0], rel=1e-10)


# One study per model with the scaled radii s = rho * sqrt(kappa + H^2) of the
# mesh-refine benchmark: (kappa, H, rho, delta).
STUDIES = [
    (-1.0, 2.7, 1.25 / math.sqrt(-1.0 + 2.7**2), 0.15),
    (0.0, 2.0, 1.9 / 2.0, 0.05),
    (1.0, 1.0, 1.4 / math.sqrt(2.0), 0.45),
]


class TestNestedDissection:
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_order_is_a_permutation_of_the_interior(self, kappa):
        H = 2.5 if kappa < 0 else 1.0
        for level in range(8):
            m = mm.build_cap_mesh(kappa, H, 1.4 / math.sqrt(kappa + H * H), level)
            interior = dd.assemble_stability(m).interior
            assert np.array_equal(np.sort(interior), m.interior), f"level {level}"

    def test_order_on_hand_built_flat_meshes(self):
        square = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]],
            [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
        )
        for m in (square, _flat_grid_mesh(9), _flat_grid_mesh(20)):
            interior = dd.assemble_stability(m).interior
            assert np.array_equal(np.sort(interior), m.interior)

    def test_order_without_edges(self):
        # No edge crosses a cell, so nothing separates: cells in post-order.
        points = np.random.default_rng(5).random((500, 2))
        order = dd.nested_dissection(points, np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(np.sort(order), np.arange(500))

    @pytest.mark.parametrize("kappa, H, rho, delta", STUDIES)
    def test_level5_matches_eigsh(self, kappa, H, rho, delta):
        from scipy.sparse.linalg import eigsh

        from scipy.sparse import diags

        m = mm.build_cap_mesh(kappa, H, rho, 5)
        problem = dd.assemble_stability(m)
        M = diags(problem.mass).tocsc()
        lam_K = eigsh(problem.stiffness, k=1, M=M, sigma=0, return_eigenvectors=False)[0]
        q = 2.0 * (1.0 - delta) * (kappa + H * H)
        assert dd.lambda1_dirichlet(problem, -q) == pytest.approx(lam_K - q, rel=1e-10)

    @pytest.mark.parametrize("kappa, H, rho, delta", STUDIES)
    def test_level7_fill_at_most_minimum_degree(self, kappa, H, rho, delta):
        from scipy.sparse.linalg import splu

        problem = dd.assemble_stability(mm.build_cap_mesh(kappa, H, rho, 7))
        vertex_order = np.argsort(problem.interior)
        K_ii = problem.stiffness[vertex_order][:, vertex_order].tocsc()
        opts = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        nd = splu(problem.stiffness, permc_spec="NATURAL", **opts)
        mmd = splu(K_ii, permc_spec="MMD_AT_PLUS_A", **opts)
        assert nd.L.nnz + nd.U.nnz <= mmd.L.nnz + mmd.U.nnz
