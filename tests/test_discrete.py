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
        total = dd.triangle_areas(mm.face_edge_lengths(m)).sum()
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

        problem = dd.assemble_stability(mm.build_cap_mesh(kappa, H, rho, 3), delta)
        dense = eigh(problem.operator.toarray(), problem.mass.toarray(), eigvals_only=True)
        assert dd.lambda1_dirichlet(problem) == pytest.approx(dense[0], rel=1e-10)
