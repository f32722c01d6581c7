import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cmcradius import spaceforms as sf
from cmcradius.errors import (
    DimensionError,
    NonConvergence,
    PreconditionViolation,
    UnattainableCurvature,
)


def shoot_first_zero(n: int, lam: float) -> float:
    """First zero of f'' + (n-1) cot(s) f' + lam f = 0, f(0) = 1, on the unit sphere.

    Independent reference for the closed-form oracle: DOP853 shooting from
    s0 = 1e-4, started on the series f = 1 - lam s^2/(2n) + b s^4.
    """
    s0 = 1e-4
    b = lam * (lam - 2 * (n - 1) / 3) / (8 * n * (n + 2))
    f0 = 1 - lam * s0**2 / (2 * n) + b * s0**4
    g0 = -lam * s0 / n + 4 * b * s0**3

    def crossing(s, y):
        return y[0]

    crossing.terminal = True
    sol = solve_ivp(lambda s, y: (y[1], -(n - 1) / math.tan(s) * y[1] - lam * y[0]),
                    (s0, math.pi - 1e-6), (f0, g0), method="DOP853", rtol=1e-13, atol=1e-15,
                    events=crossing)
    assert sol.t_events[0].size, f"no zero of the radial solution for n={n}, lam={lam}"
    return float(sol.t_events[0][0])


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
        # nu is about 24,048 here; the root-finder stops within a few ulp.
        rho = 1e-4
        lam = sf.lambda1_ball(2, 1.0, rho)
        assert lam == pytest.approx(578318595.96, rel=1e-8)
        j01 = 2.404825557695773  # first zero of the Bessel function J_0
        assert lam == pytest.approx(j01**2 / rho**2, rel=1e-8)

    def test_unsupported_dimension(self):
        with pytest.raises(DimensionError):
            sf.lambda1_ball(5, 1.0, 1.0)


class TestClosedFormOracle:
    """The closed-form oracle against DOP853 shooting, exact n = 3 forms and
    40-digit hypergeometric values (mpmath)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3, 0.5, 0.7, 0.85, 0.95])
    def test_cap_radius_matches_shooting(self, n, delta):
        rho = sf.max_stable_cap_radius(n, 0.0, 1.0, delta)  # c_int = 1
        assert rho == pytest.approx(shoot_first_zero(n, n * (1 - delta)), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 1.5, 2.0, 2.6, 2.9, 3.1])
    def test_lambda1_ball_matches_shooting(self, n, s):
        # The radial solution at the returned eigenvalue first vanishes at s.
        lam = sf.lambda1_ball(n, 1.0, s)
        assert shoot_first_zero(n, lam) == pytest.approx(s, rel=1e-9)
        c = 5.25
        assert sf.lambda1_ball(n, c, s / math.sqrt(c)) == pytest.approx(c * lam, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3, 0.58, 0.9, 0.999])
    def test_n3_cap_radius_closed_form(self, delta):
        rho = sf.max_stable_cap_radius(3, 0.0, 1.0, delta)
        assert rho == pytest.approx(math.pi / math.sqrt(4 - 3 * delta), rel=1e-13)

    @pytest.mark.parametrize("s", [1e-4, 0.1, 1.0, math.pi / 2, 2.0, 3.0, 3.1])
    def test_n3_lambda1_closed_form(self, s):
        assert sf.lambda1_ball(3, 1.0, s) == pytest.approx((math.pi / s) ** 2 - 1, rel=1e-13)

    @pytest.mark.parametrize("n, delta, expected", [
        (2, 0.97, 3.1412919656015327),
        (3, 0.999, 3.1368908410468204),
        (4, 0.999, 3.0897744986821171),
    ])
    def test_radius_near_pi(self, n, delta, expected):
        # Zeros beyond 63*pi/64, which a scan must still reach.
        assert sf.max_stable_cap_radius(n, 0.0, 1.0, delta) == pytest.approx(expected, rel=1e-13)

    def test_no_radius_before_scan_end(self):
        # For n = 2, delta = 0.999 the zero lies far closer to pi than S_MAX.
        with pytest.raises(NonConvergence):
            sf.max_stable_cap_radius(2, 0.0, 1.0, 0.999)

    @pytest.mark.parametrize("n, nu, s, expected", [
        (2, 0.3825, 1.2, 0.8066327105502583),
        (2, 7.5, 0.4, -0.32506246194097094),
        (2, 0.6, 2.2, -0.10012366966046332),
        (2, 0.05, 3.1415, 0.0017127683115842906),
        # z = sin^2(s/2) = 0.9999, where scipy.special.hyp2f1 returns 6.75.
        (2, 0.3825, 3.1215923202414615, -2.0777525882437235),
        (2, 24048.2, 1e-4, -2.3071987781577233e-05),
        (3, 0.4, 3.0, -4.411522729565444),
        (4, 0.02, 1.9, 0.958943229614178),
        (4, 9.0, 0.6, -0.0730980518088651),
        (4, 0.3, 2.9, -6.160419240912499),
        (4, 0.9, 3.14159, -10140825460.380842),
    ])
    def test_radial_function_values(self, n, nu, s, expected):
        # 2F1(-nu, nu+n-1; n/2; sin^2(s/2)) evaluated by mpmath at 40 digits.
        assert sf._radial(n, nu, s) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("s", [2.6, 2.9, 3.1, 3.14])
    def test_n4_past_the_equator(self, s):
        # z > 0.92: the first nu lies in (0, 1), while a bracket growing past
        # nu = 1 would meet the nu = 1.06-1.3 inputs where scipy.special.hyp2f1
        # returns NaN.  The root-finder stays in (0, 1] there.
        lam = sf.lambda1_ball(4, 1.0, s)
        assert 0.0 < lam < 4.0
        assert shoot_first_zero(4, lam) == pytest.approx(s, rel=1e-9)
        with pytest.raises(PreconditionViolation):
            sf._radial(4, 1.2, s)

    def test_large_nu_regression(self):
        # nu ~ 24,048, where scipy.special.hyp2f1 returns NaN.
        assert sf.lambda1_ball(2, 1.0, 1e-4) == pytest.approx(578318595.96134506332, rel=1e-13)


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

    @pytest.mark.parametrize("kappa, H", [(0.0, 1e-200), (0.0, 1e200), (1e308, 1e154)])
    def test_sphere_from_H_rejects_curvature_out_of_float_range(self, kappa, H):
        # kappa + H^2 underflows to 0 or overflows to inf.
        with pytest.raises(PreconditionViolation, match="float range"):
            sf.sphere_from_H(2, kappa, H)

    def test_verify_cap_bound_rejects_nan_H(self):
        with pytest.raises(PreconditionViolation):
            sf.verify_cap_bound(2, -1.0, math.nan, 0.0)


class TestVerifyCapBound:
    def test_no_radius_is_not_applicable(self):
        rec = sf.verify_cap_bound(2, 0.0, 1.0, 0.999)
        assert not rec.applicable and not rec.passed
        assert rec.rho_star is None
        assert "not found" in rec.reason

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
