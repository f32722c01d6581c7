import math

import numpy as np
import pytest

from cmcradius import spaceforms as sf
from cmcradius.errors import PreconditionViolation, UnattainableCurvature


class TestCotKappa:
    def test_euclidean(self):
        assert sf.cot_kappa(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_horosphere_limit(self):
        assert sf.cot_kappa(-1.0, 50.0) == pytest.approx(1.0, rel=1e-12)

    def test_equator_is_minimal(self):
        assert sf.cot_kappa(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_continuity_at_zero_curvature(self):
        r = 0.7
        base = sf.cot_kappa(0.0, r)
        for kappa in (1e-8, -1e-8):
            assert sf.cot_kappa(kappa, r) == pytest.approx(base, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(PreconditionViolation):
            sf.cot_kappa(0.0, -1.0)
        with pytest.raises(PreconditionViolation):
            sf.cot_kappa(1.0, math.pi)


class TestSphereFromH:
    def test_hyperbolic_reference(self):
        g = sf.sphere_from_H(2, -1.0, 2.5)
        assert g.r_ambient == pytest.approx(math.atanh(1 / 2.5), rel=1e-12)
        assert g.c_int == pytest.approx(5.25, rel=1e-15)
        # Round trip through the curvature of the geodesic sphere.
        assert sf.cot_kappa(-1.0, g.r_ambient) == pytest.approx(2.5, rel=1e-12)

    def test_horosphere_excluded(self):
        with pytest.raises(UnattainableCurvature):
            sf.sphere_from_H(2, -1.0, 1.0)

    def test_flat_unit_sphere_n3(self):
        g = sf.sphere_from_H(3, 0.0, 1.0)
        assert g.r_ambient == 1.0
        assert g.normA2 == 3.0
        assert g.ric_nu == 0.0
        assert g.c_int == 1.0

    def test_positive_curvature_equator(self):
        g = sf.sphere_from_H(2, 1.0, 0.0)
        assert g.r_ambient == pytest.approx(math.pi / 2, rel=1e-12)

    def test_gauss_consistency(self):
        # c_int equals the umbilic Ricci prediction R_11 / (n-1) = kappa + H^2.
        from cmcradius.algebra import TracelessMatrix, gauss_ricci_contraction

        for n in (2, 3, 4):
            for kappa, H in [(-1.0, 2.5), (0.0, 1.0), (1.0, 0.5)]:
                g = sf.sphere_from_H(n, kappa, H)
                phi = TracelessMatrix(n, np.zeros((n, n)))
                r11 = gauss_ricci_contraction(phi, H, (n - 1) * kappa)
                assert g.c_int == pytest.approx(r11 / (n - 1), rel=1e-12)


class TestLambda1Ball:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c", [0.5, 1.0, 5.25])
    def test_hemisphere_identity(self, n, c):
        rho = math.pi / (2 * math.sqrt(c))
        lam = sf.lambda1_ball(n, c, rho)
        assert abs(lam - n * c) <= 1e-6 * n * c

    def test_scaling_identity(self):
        for c in (0.5, 5.25):
            for x in (0.8, 1.2):
                lam = sf.lambda1_ball(2, c, x / math.sqrt(c))
                ref = c * sf.lambda1_ball(2, 1.0, x)
                assert lam == pytest.approx(ref, rel=1e-7)

    def test_monotone_decreasing_in_rho(self):
        rhos = np.linspace(0.4, 2.8, 9)
        vals = [sf.lambda1_ball(2, 1.0, float(r)) for r in rhos]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_just_past_hemisphere(self):
        assert sf.lambda1_ball(2, 1.0, math.pi / 2 + 0.01) < 2.0

    def test_domain_errors(self):
        with pytest.raises(PreconditionViolation):
            sf.lambda1_ball(2, -1.0, 0.5)
        with pytest.raises(PreconditionViolation):
            sf.lambda1_ball(2, 1.0, math.pi + 0.1)

    def test_tolerance_below_float_spacing_terminates(self):
        # Near lambda = 6e8 the absolute tolerance tol * c_int = 1e-8 is below
        # the float spacing, so the bisection stops on adjacent floats.
        rho = 1e-4
        lam = sf.lambda1_ball(2, 1.0, rho)
        assert lam == pytest.approx(578318595.96, rel=1e-8)
        j01 = 2.404825557695773  # first zero of the Bessel function J_0
        assert lam == pytest.approx(j01**2 / rho**2, rel=1e-8)


class TestMaxStableCapRadius:
    def test_hemisphere_at_delta_zero(self):
        rho = sf.max_stable_cap_radius(2, -1.0, 2.5, 0.0)
        assert rho == pytest.approx(math.pi / (2 * math.sqrt(5.25)), rel=1e-9)

    @pytest.mark.parametrize("n,kappa,H", [(2, 0.0, 1.0), (3, -1.0, 2.5), (4, 0.0, 0.7)])
    def test_scale_invariant_hemisphere_identity(self, n, kappa, H):
        g = sf.sphere_from_H(n, kappa, H)
        rho = sf.max_stable_cap_radius(n, kappa, H, 0.0)
        assert rho * math.sqrt(g.c_int) == pytest.approx(math.pi / 2, rel=1e-9)

    def test_delta_half_consistency(self):
        # rho* must satisfy lambda1(rho*) = q, checked via the independent
        # eigenvalue bisection.
        rho = sf.max_stable_cap_radius(2, -1.0, 2.5, 0.5)
        assert rho > math.pi / (2 * math.sqrt(5.25))
        lam = sf.lambda1_ball(2, 5.25, rho)
        assert lam == pytest.approx(5.25, rel=1e-6)  # q = 2 * 0.5 * c_int

    def test_strictly_increasing_in_delta(self):
        deltas = np.linspace(0.0, 0.8, 9)
        radii = [sf.max_stable_cap_radius(2, -1.0, 2.5, float(d)) for d in deltas]
        assert all(a < b for a, b in zip(radii, radii[1:]))


class TestCapCase:
    def test_potential_value(self):
        g = sf.sphere_from_H(2, -1.0, 2.5)
        cap = sf.CapCase.make(g, 0.5, 0.6)
        assert cap.q == pytest.approx(2 * 0.5 * 5.25, rel=1e-15)

    def test_rejects_improper_cap(self):
        g = sf.sphere_from_H(2, 0.0, 1.0)
        with pytest.raises(PreconditionViolation):
            sf.CapCase.make(g, 0.0, math.pi + 0.1)
        with pytest.raises(PreconditionViolation):
            sf.CapCase.make(g, 1.0, 0.5)


class TestClosedSphere:
    def test_reference_values(self):
        assert sf.closed_sphere_lowest_eigenvalue(2, -1.0, 2.5, 0.0) == pytest.approx(-10.5)
        assert sf.closed_sphere_lowest_eigenvalue(4, 0.0, 1.0, 0.0) == pytest.approx(-4.0)

    def test_vanishes_at_delta_one_limit(self):
        val = sf.closed_sphere_lowest_eigenvalue(2, -1.0, 2.5, 1.0 - 1e-15)
        assert val == pytest.approx(0.0, abs=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("kappa, H", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.nan), (-1.0, math.inf),
    ])
    def test_sphere_from_H_rejects(self, kappa, H):
        with pytest.raises(PreconditionViolation, match="finite"):
            sf.sphere_from_H(2, kappa, H)

    def test_verify_cap_bound_rejects_nan_H(self):
        with pytest.raises(PreconditionViolation):
            sf.verify_cap_bound(2, -1.0, math.nan, 0.0)


class TestVerifyCapBound:
    def test_reference_hyperbolic_case(self):
        rec = sf.verify_cap_bound(2, -1.0, 2.5, 0.0)
        assert rec.applicable and rec.passed
        assert rec.rho_star == pytest.approx(0.6856, abs=2e-4)
        assert rec.c_best == pytest.approx(0.8618, abs=2e-4)
        assert rec.ratio == pytest.approx(9 / (8 * math.sqrt(2)), rel=1e-8)

    def test_flat_case(self):
        rec = sf.verify_cap_bound(2, 0.0, 1.0, 0.0)
        assert rec.passed
        assert rec.rho_star == pytest.approx(math.pi / 2, rel=1e-9)
        # Optimal k is the vertex 7/4 of (4-k)(2k+1): c = pi*sqrt((16/9)/4.5),
        # strictly below the k=1 value 2*pi/3.
        assert rec.c_best == pytest.approx(math.pi * math.sqrt(16 / 9 / 4.5), rel=1e-9)
        assert rec.c_best < 2 * math.pi / 3
        assert rec.ratio == pytest.approx(9 / (8 * math.sqrt(2)), rel=1e-8)

    def test_not_applicable_case(self):
        rec = sf.verify_cap_bound(3, -1.0, 1.5, 0.0)
        assert not rec.applicable
        assert rec.c_best is None
        assert rec.rho_star > 0.0
        assert rec.reason
