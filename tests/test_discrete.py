import math

import numpy as np
import pytest
from scipy.sparse import csc_matrix

import reference
from cmcradius import discrete as dd
from cmcradius import ell
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


def _reference_system(m, kappa):
    """Dense full cotangent stiffness and lumped mass, assembled one face at a time.

    Lengths are model distances between each face's corners and areas come
    from Heron's formula, in Python floats.  Corner i of every face is
    visited before corner i + 1 of any, the order in which the package sums
    a vertex's masses, so the masses agree exactly.
    """
    v, faces = m.vertices, m.faces.tolist()
    squares, areas = [], []
    for f in faces:
        a, b, c = (float(mm.ambient_distance(kappa, np.atleast_2d(v[f[q]] - v[f[r]]).T)[0])
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


def _cap_problem(kappa, H, rho, level):
    """The level's Dirichlet problem over the ring hierarchy that mesh_verify builds under it."""
    problem = None
    for lv in range(min(dd.BASE_LEVEL, level), level + 1):
        coarser, problem = problem, dd.assemble_stability(mm.build_cap_mesh(kappa, H, rho, lv))
        if lv > dd.BASE_LEVEL:
            problem.coarser, problem.prolongation = coarser, mm.prolongation(kappa, H, rho, lv)
    return problem


def _assert_matches_reference(m, kappa, problem):
    K, mass = _reference_system(m, kappa)
    idx = m.interior
    scale = np.abs(K).max()
    assert np.abs(problem.stiffness.toarray() - K[np.ix_(idx, idx)]).max() <= 1e-13 * scale
    assert np.array_equal(problem.mass, mass[idx])


class TestStiffness:
    def test_equilateral_cotangent_weight(self):
        m = _flat_triangle_mesh([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]], [[0, 1, 2]])
        K, _ = _reference_system(m, 0.0)
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
        K, _ = _reference_system(m, -1.0)
        assert np.array_equal(K, K.T)
        assert np.abs(K @ np.ones(m.num_vertices)).max() < 1e-12
        problem = dd.assemble_stability(m)
        S = problem.stiffness
        csc = reference.ell_to_scipy(S, "csc")
        assert (csc != csc.T).nnz == 0
        _assert_matches_reference(m, -1.0, problem)
        # Positive definite: Rayleigh quotient positive on random vectors.
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=S.shape[0])
            assert x @ (S @ x) > 0.0

    @pytest.mark.parametrize("level", range(8))
    def test_stiffness_is_the_canonical_csc_of_its_triplets(self, level):
        # STUDIES[0] is the mesh-refine benchmark's kappa = -1 cap.
        meshes = [mm.build_cap_mesh(kappa, H, rho, level) for kappa, H, rho, _ in STUDIES]
        if level == 0:
            ang = np.arange(6) * math.pi / 3.0
            pts = np.vstack([np.zeros(3), np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)])
            meshes += [_flat_triangle_mesh(pts, [[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)]),
                       _flat_grid_mesh(3), _flat_grid_mesh(8)]
        rng = np.random.default_rng(level)
        for m in meshes:
            stiffness = dd.assemble_stability(m).stiffness
            n = m.interior.size
            assert stiffness.shape == (n, n) and stiffness.columns.dtype == np.int32
            # Each row's columns ascend, and its padding is its own index at weight 0.
            padding = ~reference.ell_entries(stiffness)
            assert not stiffness.values[padding].any()
            assert np.array_equal(stiffness.columns[padding], np.nonzero(padding)[1])
            # Row i of the symmetric stiffness is column i of the canonical CSC of its
            # triplets, which does not depend on their order: scipy sorts them shuffled.
            entries = ~padding.T
            rows, columns, data = np.nonzero(entries)[0], stiffness.columns.T[entries], stiffness.values.T[entries]
            order = rng.permutation(data.size)
            canonical = csc_matrix((data[order], (rows[order], columns[order])), shape=stiffness.shape)
            canonical.sum_duplicates()
            assert np.array_equal(canonical.indptr, np.append(0, np.cumsum(entries.sum(axis=1))))
            for name, ours in (("indices", columns), ("data", data)):
                theirs = getattr(canonical, name)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
            csc = reference.ell_to_scipy(stiffness, "csc")
            x = rng.normal(size=n)
            assert (stiffness @ x).tobytes() == (csc @ x).tobytes()
            assert stiffness.diagonal().tobytes() == csc.diagonal().tobytes()
            if n <= dd.MAX_FACTORED:
                assert np.array_equal(stiffness.toarray(), csc.toarray())

    @pytest.mark.parametrize("level", range(1, 8))
    def test_transfer_products_equal_scipy_bit_for_bit(self, level):
        # The V-cycle's prolongation P, each row padded with column 0, and its transposed
        # product, the restriction, against scipy's P.T.tocsr(): also where the residual
        # has exact zeros or -0.0 entries, whose products with the padding are signed zeros.
        rng = np.random.default_rng(level)
        for kappa, H, rho, _ in STUDIES:
            P = mm.prolongation(kappa, H, rho, level)
            csr = reference.ell_to_scipy(P)
            padding = ~reference.ell_entries(P)
            assert P.columns.dtype == np.int32
            assert not P.values[padding].any() and not P.columns[padding].any()
            assert P.shape == csr.shape
            x = rng.normal(size=P.shape[1])
            assert (P @ x).tobytes() == (csr @ x).tobytes()
            transposed = csr.T.tocsr()
            y = rng.normal(size=P.shape[0])
            some = rng.random(y.size) < 0.5
            for r in (y, np.where(some, 0.0, y), np.where(some, -0.0, -y), np.full_like(y, -0.0)):
                assert P.rmatvec(r).tobytes() == (transposed @ r).tobytes()

    @pytest.mark.parametrize("level", range(4, 8))
    def test_slot_loop_and_tail_keep_the_bits_of_every_product(self, level, monkeypatch):
        # Forced onto the slot loop, which adds the last slots of a few rows on those rows
        # only and, from level 6, reads the stiffness's diagonal and its neighbours by shifted
        # slices: all rows but one in 16 have them in the same three slots.
        kappa, H, rho, _ = STUDIES[0]
        P = mm.prolongation(kappa, H, rho, level)
        built = [dd.assemble_stability(mm.build_cap_mesh(kappa, H, rho, level)).stiffness, P]
        monkeypatch.setattr(ell, "GATHER_WHOLE", 0)
        looped = [ell.Ell(matrix.columns, matrix.values, matrix.shape[1]) for matrix in built]
        assert looped[0].tail_rows.size and looped[0].width < looped[0].columns.shape[0]
        assert [band[0] for band in looped[0].bands if band is not None] == ([-1, 0, 1] if level >= 6 else [])
        rng = np.random.default_rng(level)
        for matrix in looped:
            x = rng.normal(size=matrix.shape[1])
            assert (matrix @ x).tobytes() == (reference.ell_to_scipy(matrix) @ x).tobytes()

    def test_degenerate_triangle_rejected(self):
        m = _flat_triangle_mesh(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0.5, 1.0, 0]],
            [[0, 1, 3], [1, 2, 3], [0, 2, 1]],
        )
        with pytest.raises(MeshError):
            dd.assemble_stability(m)

    def test_mesh_without_interior_vertices_rejected(self):
        m = _flat_triangle_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError, match="^mesh has no interior vertices$"):
            dd.assemble_stability(m)

    def test_mass_rowsums_are_vertex_areas(self):
        m = mm.build_cap_mesh(0.0, 1.0, 1.0, 3)
        _, masses = _reference_system(m, 0.0)
        total = mm.triangle_areas(m.edge_lengths[m.face_edges]).sum()
        assert masses.sum() == pytest.approx(total, rel=1e-12)
        assert (masses > 0).all()
        problem = dd.assemble_stability(m)
        assert np.array_equal(problem.mass, masses[m.interior])


class TestLambda1Dirichlet:
    def test_one_interior_vertex_closed_form(self):
        # Square split into four triangles around its center: the reduced
        # problem is 1x1 and solvable by hand.
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]]
        faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        m = _flat_triangle_mesh(pts, faces)
        problem = dd.assemble_stability(m)
        K, mass = _reference_system(m, 0.0)
        expected = K[4, 4] / mass[4]
        assert dd.lambda1_dirichlet(problem, 0.0, np.ones(1)) == pytest.approx(expected, rel=1e-10)

    def test_flat_cap_matches_ode_oracle(self):
        rho = math.pi / 3
        problem = _cap_problem(0.0, 1.0, rho, 6)
        lam = dd.lambda1_dirichlet(problem, -2.0, np.ones_like(problem.mass))
        oracle = sf.lambda1_ball(2, 1.0, rho) - 2.0
        assert lam == pytest.approx(oracle, rel=0.02)

    def test_potential_shift_is_exact(self):
        # A constant potential only shifts the spectrum: the iterates do not
        # depend on the shift, which is added to the same Rayleigh quotient.
        m = mm.build_cap_mesh(-1.0, 2.5, 0.5, 4)
        problem = dd.assemble_stability(m)
        ones = np.ones_like(problem.mass)
        lam0 = dd.lambda1_dirichlet(problem, 0.0, ones)
        for s in (-8.5, -1.25, 3.0):
            assert dd.lambda1_dirichlet(problem, s, ones) - lam0 == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_stiffness_is_full_stiffness_on_the_interior(self):
        m = mm.build_cap_mesh(1.0, 1.0, 1.0, 4)
        _assert_matches_reference(m, 1.0, dd.assemble_stability(m))


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

    def test_singular_stiffness_is_a_mesh_error(self):
        # A level-0 cap this close to the whole unit sphere has a numerically
        # singular Dirichlet stiffness; np.linalg.LinAlgError must not escape.
        with pytest.raises(MeshError, match="Dirichlet stiffness"):
            dd.mesh_verify(1.0, 0.0, (1 - 1e-9) * math.pi, 0.0, [0])

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


class _CountingInverse:
    """Forwards to a base level's dense inverse and appends each solve's size to `solves`."""

    def __init__(self, inverse, solves: list):
        self._inverse, self._solves = inverse, solves

    def __matmul__(self, b):
        self._solves.append(b.size)
        return self._inverse @ b


def _record_steps(monkeypatch) -> list:
    """Make each eigensolve append (its steps, the steps from the constant start) to the list returned.

    Each step preconditions once, and every V-cycle ends in one solve with the
    base level's inverse, so an eigensolve's solves are its steps.
    """
    inverse, solves, steps = vars(dd.SpectralProblem)["_inverse"], [], []  # the cached property
    monkeypatch.setattr(dd.SpectralProblem, "_inverse",
                        property(lambda problem: _CountingInverse(inverse.__get__(problem), solves)))
    lambda1 = dd.lambda1_dirichlet

    def solved(*args):
        before = len(solves)
        return lambda1(*args), len(solves) - before

    def counted(problem, shift, start):
        lam, warm = solved(problem, shift, start)
        steps.append((warm, solved(problem, shift, np.ones_like(start))[1]))
        return lam

    monkeypatch.setattr(dd, "lambda1_dirichlet", counted)
    return steps


class TestWarmStart:
    # The eigensolve starts from the cap's radial eigenfunction.
    STUDY = (-1.0, 2.7, 1.25 / math.sqrt(6.29), 0.1, [3, 4, 5, 6])

    def test_saves_solves(self, monkeypatch):
        # Measured: 5-9 steps per level from the radial start, 9-17 from the constant one.
        steps = _record_steps(monkeypatch)
        for study in STUDIES:
            steps.clear()
            dd.mesh_verify(*study, [3, 4, 5, 6, 7])
            assert len(steps) == 5 and all(1 <= warm <= 10 and warm < constant for warm, constant in steps), steps

    def test_eigenvalues_match_the_constant_start(self):
        kappa, H, rho, delta, _ = self.STUDY
        q = 2.0 * (1.0 - delta) * (kappa + H * H)
        rep = dd.mesh_verify(*self.STUDY)
        for row in rep.levels:
            problem = _cap_problem(kappa, H, rho, row.level)
            lam = dd.lambda1_dirichlet(problem, -q, np.ones_like(problem.mass))
            assert abs(row.lambda1 - lam) <= 1e-10 * max(abs(lam), 1.0, q)

    def test_ring_index_and_start_vector(self, monkeypatch):
        # Interior vertex i lies on ring interior_rings[i], at the polar angle
        # ring s / 2**level that its coordinates give, and each level's start
        # vector is the radial profile at its vertices' ring angles.
        kappa, H, rho, delta, _ = self.STUDY
        c = kappa + H * H
        s = rho * math.sqrt(c)
        lambda1, starts = dd.lambda1_dirichlet, []
        monkeypatch.setattr(dd, "lambda1_dirichlet", lambda problem, shift, start: starts.append(start)
                            or lambda1(problem, shift, start))
        levels = [0, 3, 5]
        dd.mesh_verify(kappa, H, rho, delta, levels)
        assert len(starts) == len(levels)
        for level, start in zip(levels, starts):
            m = mm.build_cap_mesh(kappa, H, rho, level)
            ring = mm.interior_rings(kappa, H, rho, level)
            assert ring.size == m.interior.size and ring[0] == 0
            assert np.array_equal(np.unique(ring), np.arange(2**level))
            angles = ring * s / 2**level
            assert np.abs(reference.polar_angles(m, kappa)[m.interior] - angles).max() <= 1e-12
            assert np.array_equal(start, sf.radial_profile(2, c, rho, (ring / 2**level).tolist()))


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
        K, mass = _reference_system(m, kappa)
        idx = m.interior
        K_ii, mass = K[np.ix_(idx, idx)], mass[idx]
        q = 2.0 * (1.0 - delta) * (kappa + H * H)
        dense = eigh(K_ii - q * np.diag(mass), np.diag(mass), eigvals_only=True)
        lam = dd.lambda1_dirichlet(problem, -q, np.ones_like(problem.mass))
        assert lam == pytest.approx(dense[0], rel=1e-10)

    def test_grid_with_collapsed_chart(self):
        # A plane grid is no cap: about the pole axis every point but the
        # origin has polar angle pi/2.  Assembly reads no angle, so the
        # solve still gives the dense eigenvalue.
        from scipy.linalg import eigh

        m = _flat_grid_mesh(9)
        problem = dd.assemble_stability(m)
        dense = eigh(problem.stiffness.toarray(), np.diag(problem.mass), eigvals_only=True)
        lam = dd.lambda1_dirichlet(problem, 0.0, np.ones_like(problem.mass))
        assert lam == pytest.approx(dense[0], rel=1e-10)


# One study per model with the scaled radii s = rho * sqrt(kappa + H^2) of the
# mesh-refine benchmark: (kappa, H, rho, delta).
STUDIES = [
    (-1.0, 2.7, 1.25 / math.sqrt(-1.0 + 2.7**2), 0.15),
    (0.0, 2.0, 1.9 / 2.0, 0.05),
    (1.0, 1.0, 1.4 / math.sqrt(2.0), 0.45),
]

# A unit-sphere cap of radius 3.1, near the antipode: the V-cycle is weakest there.
NEAR_ANTIPODE = (1.0, 0.0, 3.1, 0.0)


def _spectrum_estimate(problem, steps=30):
    """Least and greatest Ritz values of B K, B = problem.precondition, from a Lanczos run.

    B K is self-adjoint in the inner product x.(K y), so Lanczos in that inner
    product, with full reorthogonalisation, gives a tridiagonal whose extreme
    eigenvalues approach those of B K from inside within a few dozen steps.
    """
    K = problem.stiffness
    v = np.random.default_rng(0).normal(size=K.shape[0])
    basis, diagonal, off = [], [], []
    for _ in range(steps):
        v = v / math.sqrt(v @ (K @ v))
        basis.append(v)
        Kv = K @ v
        w = problem.precondition(Kv)
        diagonal.append(w @ Kv)
        for _ in range(2):
            for u in basis:
                w = w - u * (w @ (K @ u))
        off.append(math.sqrt(w @ (K @ w)))
        v = w
    ritz = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    return float(ritz[0]), float(ritz[-1])


class TestSparseReference:
    @pytest.mark.parametrize("kappa, H, rho, delta", STUDIES)
    def test_level5_matches_eigsh(self, kappa, H, rho, delta):
        from scipy.sparse.linalg import eigsh

        from scipy.sparse import diags

        problem = _cap_problem(kappa, H, rho, 5)
        M = diags(problem.mass).tocsc()
        K = reference.ell_to_scipy(problem.stiffness, "csc")
        lam_K = eigsh(K, k=1, M=M, sigma=0, return_eigenvectors=False)[0]
        q = 2.0 * (1.0 - delta) * (kappa + H * H)
        lam = dd.lambda1_dirichlet(problem, -q, np.ones_like(problem.mass))
        assert lam == pytest.approx(lam_K - q, rel=1e-10)


class TestMultigrid:
    def test_a_fine_problem_without_a_coarser_level_is_refused(self):
        problem = dd.assemble_stability(mm.build_cap_mesh(*STUDIES[0][:3], 5))
        assert problem.stiffness.shape[0] > dd.MAX_FACTORED
        with pytest.raises(MeshError, match="needs a coarser level"):
            dd.lambda1_dirichlet(problem, 0.0, np.ones_like(problem.mass))

    def test_only_the_base_level_is_factored(self, monkeypatch):
        cholesky, sizes = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky", lambda K: sizes.append(K.shape[0]) or cholesky(K))
        for study in STUDIES:
            sizes.clear()
            dd.mesh_verify(*study, [3, 4, 5, 6, 7])
            assert sizes == [mm.build_cap_mesh(*study[:3], dd.BASE_LEVEL).interior.size]

    @pytest.mark.parametrize("kappa, H, rho, delta", [*STUDIES, NEAR_ANTIPODE])
    def test_level7_matches_eigsh(self, kappa, H, rho, delta):
        from scipy.sparse import diags
        from scipy.sparse.linalg import eigsh

        problem = dd.assemble_stability(mm.build_cap_mesh(kappa, H, rho, 7))
        M = diags(problem.mass).tocsc()
        K = reference.ell_to_scipy(problem.stiffness, "csc")
        lam_K = eigsh(K, k=1, M=M, sigma=0, return_eigenvectors=False)[0]
        q = 2.0 * (1.0 - delta) * (kappa + H * H)
        (row,) = dd.mesh_verify(kappa, H, rho, delta, [7]).levels
        assert row.lambda1 == pytest.approx(lam_K - q, rel=1e-10)

    @pytest.mark.parametrize("kappa, H, rho, delta", [*STUDIES, NEAR_ANTIPODE])
    def test_vcycle_spectrum(self, kappa, H, rho, delta):
        # The inverse iteration converges when ||I - B K||_K < 1, that is, when the
        # spectrum of B K lies in (0, 2).  Measured at level 5: [0.54, 1.02] on the
        # studies and [0.35, 1.02] near the antipode.
        lo, hi = _spectrum_estimate(_cap_problem(kappa, H, rho, 5))
        assert 0.25 < lo <= hi < 1.25, (lo, hi)

    def test_near_antipode_steps_are_bounded(self, monkeypatch):
        # The weakest V-cycle measured: 5, 15, 16, 13 and 11 steps at levels 3-7.
        steps = _record_steps(monkeypatch)
        dd.mesh_verify(*NEAR_ANTIPODE, [3, 4, 5, 6, 7])
        assert len(steps) == 5 and max(warm for warm, _ in steps) <= 20, steps

    def test_finest_row_does_not_depend_on_the_other_levels(self):
        finest = dd.mesh_verify(*STUDIES[0], [3, 4, 5, 6, 7]).levels[-1]
        assert dd.mesh_verify(*STUDIES[0], [7]).levels == [finest]
        assert dd.mesh_verify(*STUDIES[0], [3, 5, 7]).levels[-1] == finest

