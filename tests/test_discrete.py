import math

import numpy as np
import pytest

from cmcradius import discrete as dd
from cmcradius import mesh as mm
from cmcradius import spaceforms as sf
from cmcradius.errors import MeshError
from cmcradius.mesh import TriMesh


def _flat_triangle_mesh(points, faces, boundary):
    n = len(points)
    return TriMesh(
        vertices=np.asarray(points, dtype=float),
        faces=np.asarray(faces, dtype=np.int64),
        boundary=np.asarray(boundary, dtype=bool),
        potential=np.zeros(n),
        kappa=0.0,
    )


def _flat_grid_mesh(k):
    """Unit square cut into k x k cells, each split into two triangles, in the plane z = 0."""
    xs = np.linspace(0.0, 1.0, k + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    a = (np.arange(k)[:, None] * (k + 1) + np.arange(k)[None, :]).ravel()
    b, c, d = a + k + 1, a + k + 2, a + 1
    faces = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])
    i, j = np.divmod(np.arange(gx.size), k + 1)
    boundary = (i == 0) | (i == k) | (j == 0) | (j == k)
    return _flat_triangle_mesh(points, faces, boundary)


class TestStiffness:
    def test_equilateral_cotangent_weight(self):
        m = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]],
            [[0, 1, 2]],
            [True, True, False],
        )
        K = dd.cotangent_stiffness(m).toarray()
        w = 1.0 / (2.0 * math.sqrt(3.0))
        off = np.array([[K[0, 1], K[0, 2], K[1, 2]]])
        assert np.allclose(off, -w, rtol=1e-12)
        assert np.allclose(K @ np.ones(3), 0.0, atol=1e-14)

    def test_kernel_and_symmetry_on_cap(self):
        m = mm.build_cap_mesh(-1.0, 2.5, 0.6, 4)
        K = dd.cotangent_stiffness(m)
        assert abs(K - K.T).max() < 1e-13
        assert np.abs(K @ np.ones(m.num_vertices)).max() < 1e-12
        # PSD: Rayleigh quotient nonnegative on random vectors.
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=m.num_vertices)
            assert x @ (K @ x) >= -1e-10

    def test_degenerate_triangle_rejected(self):
        m = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0.5, 1.0, 0]],
            [[0, 1, 3], [1, 2, 3], [0, 2, 1]],
            [True, False, True, True],
        )
        with pytest.raises(MeshError):
            dd.cotangent_stiffness(m)

    def test_mass_rowsums_are_vertex_areas(self):
        m = mm.build_cap_mesh(0.0, 1.0, 1.0, 3)
        masses = dd.lumped_mass(m)
        total = dd.triangle_areas(m.topology.face_lengths).sum()
        assert masses.sum() == pytest.approx(total, rel=1e-12)
        assert (masses > 0).all()


class TestLambda1Dirichlet:
    def test_one_interior_vertex_closed_form(self):
        # Square split into four triangles around its center: the reduced
        # problem is 1x1 and solvable by hand.
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]]
        faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        m = _flat_triangle_mesh(pts, faces, [True, True, True, True, False])
        problem = dd.assemble_stability(m, 0.0)
        K = dd.cotangent_stiffness(m).toarray()
        mass = dd.lumped_mass(m)
        expected = K[4, 4] / mass[4]
        assert dd.lambda1_dirichlet(problem) == pytest.approx(expected, rel=1e-10)

    def test_flat_cap_matches_ode_oracle(self):
        rho = math.pi / 3
        m = mm.build_cap_mesh(0.0, 1.0, rho, 6)
        problem = dd.assemble_stability(m, 0.0)
        lam = dd.lambda1_dirichlet(problem)
        oracle = sf.lambda1_ball(2, 1.0, rho) - 2.0
        assert lam == pytest.approx(oracle, rel=0.02)

    def test_potential_shift_is_exact(self):
        # Constant potential only shifts the spectrum.
        m = mm.build_cap_mesh(-1.0, 2.5, 0.5, 4)
        p0 = dd.assemble_stability(m, 0.0)
        p1 = dd.assemble_stability(m, 0.5)
        lam0 = dd.lambda1_dirichlet(p0)
        lam1 = dd.lambda1_dirichlet(p1)
        q = m.potential[0]
        assert lam1 - lam0 == pytest.approx(0.5 * q, rel=1e-8)


class TestMeshVerify:
    def test_stable_case(self):
        rep = dd.mesh_verify(-1.0, 2.5, 0.55, 0.0, [3, 4, 5])
        finest = rep.levels[-1]
        assert finest.verdict == "stable"
        assert rep.agrees_with_oracle
        assert finest.bound_ok is True

    def test_unstable_case(self):
        rep = dd.mesh_verify(-1.0, 2.5, 0.80, 0.0, [3, 4, 5])
        finest = rep.levels[-1]
        assert finest.verdict == "unstable"
        assert rep.agrees_with_oracle
        assert finest.bound_ok is None

    def test_marginal_case(self):
        rho_star = sf.max_stable_cap_radius(2, -1.0, 2.5, 0.0)
        rep = dd.mesh_verify(-1.0, 2.5, rho_star, 0.0, [5])
        assert rep.levels[-1].verdict == "marginal"
        assert rep.agrees_with_oracle

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


class TestDenseReference:
    @pytest.mark.parametrize("kappa, H, rho, delta", [(-1.0, 2.5, 0.6, 0.0), (1.0, 1.0, 1.0, 0.4)])
    def test_lambda1_matches_dense_pencil(self, kappa, H, rho, delta):
        from scipy.linalg import eigh

        m = mm.build_cap_mesh(kappa, H, rho, 3)
        problem = dd.assemble_stability(m, delta)
        idx = problem.interior
        K_ii = dd.cotangent_stiffness(m).toarray()[np.ix_(idx, idx)]
        mass = dd.lumped_mass(m)[idx]
        V = np.diag(-(1.0 - delta) * m.potential[idx] * mass)
        dense = eigh(K_ii + V, np.diag(mass), eigvals_only=True)
        assert dd.lambda1_dirichlet(problem) == pytest.approx(dense[0], rel=1e-10)

    def test_grid_with_collapsed_chart(self):
        # Grid points on one ray from the origin share a chart point, so the
        # order has ties in every cell; the un-permuted solve still gives
        # the dense eigenvalue.
        from scipy.linalg import eigh

        m = _flat_grid_mesh(9)
        problem = dd.assemble_stability(m, 0.0)
        dense = eigh(problem.stiffness.toarray(), problem.mass.toarray(), eigvals_only=True)
        assert dd.lambda1_dirichlet(problem) == pytest.approx(dense[0], rel=1e-10)


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
            order = dd.assemble_stability(m, 0.0).order
            assert np.array_equal(np.sort(order), np.arange(m.interior.size)), f"level {level}"

    def test_order_on_hand_built_flat_meshes(self):
        square = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]],
            [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
            [True, True, True, True, False],
        )
        triangle = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]], [[0, 1, 2]], [True, True, False]
        )
        for m in (square, triangle, _flat_grid_mesh(9), _flat_grid_mesh(20)):
            order = dd.assemble_stability(m, 0.0).order
            assert np.array_equal(np.sort(order), np.arange(m.interior.size))

    def test_order_without_edges(self):
        # No edge crosses a cell, so nothing separates: cells in post-order.
        points = np.random.default_rng(5).random((500, 2))
        order = dd.nested_dissection(points, np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(np.sort(order), np.arange(500))

    @pytest.mark.parametrize("kappa, H, rho, delta", STUDIES)
    def test_level5_matches_eigsh(self, kappa, H, rho, delta):
        from scipy.sparse.linalg import eigsh

        m = mm.build_cap_mesh(kappa, H, rho, 5)
        problem = dd.assemble_stability(m, delta)
        lam_K = eigsh(problem.stiffness, k=1, M=problem.mass, sigma=0, return_eigenvectors=False)[0]
        expected = lam_K - (1.0 - delta) * m.potential[0]
        assert dd.lambda1_dirichlet(problem) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kappa, H, rho, delta", STUDIES)
    def test_level7_fill_at_most_minimum_degree(self, kappa, H, rho, delta):
        from scipy.sparse.linalg import splu

        problem = dd.assemble_stability(mm.build_cap_mesh(kappa, H, rho, 7), delta)
        K, p = problem.stiffness, problem.order
        opts = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        nd = splu(K[p][:, p], permc_spec="NATURAL", **opts)
        mmd = splu(K, permc_spec="MMD_AT_PLUS_A", **opts)
        assert nd.L.nnz + nd.U.nnz <= mmd.L.nnz + mmd.U.nnz

    def test_non_constant_potential_rejected(self):
        m = _flat_grid_mesh(5)
        m.potential[m.interior[0]] = 1.0
        with pytest.raises(MeshError, match="not constant"):
            dd.assemble_stability(m, 0.0)
