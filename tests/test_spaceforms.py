import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import reference
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
        assert reference.cot_kappa(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_horosphere_limit(self):
        assert reference.cot_kappa(-1.0, 50.0) == pytest.approx(1.0, rel=1e-12)

    def test_equator_is_minimal(self):
        assert reference.cot_kappa(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_continuity_at_zero_curvature(self):
        r = 0.7
        base = reference.cot_kappa(0.0, r)
        for kappa in (1e-8, -1e-8):
            assert reference.cot_kappa(kappa, r) == pytest.approx(base, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(PreconditionViolation):
            reference.cot_kappa(0.0, -1.0)
        with pytest.raises(PreconditionViolation):
            reference.cot_kappa(1.0, math.pi)


class TestSphereFromH:
    """The intrinsic curvature of the geodesic sphere with mean curvature H."""

    def test_hyperbolic_reference(self):
        assert sf.intrinsic_curvature(-1.0, 2.5) == pytest.approx(5.25, rel=1e-15)

    def test_horosphere_excluded(self):
        with pytest.raises(UnattainableCurvature):
            sf.intrinsic_curvature(-1.0, 1.0)

    def test_flat_unit_sphere_n3(self):
        assert sf.intrinsic_curvature(0.0, 1.0) == 1.0

    def test_positive_curvature_equator(self):
        # The totally geodesic equator is the unit sphere itself.
        assert sf.intrinsic_curvature(1.0, 0.0) == 1.0

    def test_gauss_consistency(self):
        # c_int equals the umbilic Ricci prediction R_11 / (n-1) = kappa + H^2.
        from cmcradius.algebra import TracelessMatrix
        from reference import gauss_ricci_contraction

        for n in (2, 3, 4):
            for kappa, H in [(-1.0, 2.5), (0.0, 1.0), (1.0, 0.5)]:
                c = sf.intrinsic_curvature(kappa, H)
                phi = TracelessMatrix(n, np.zeros((n, n)))
                r11 = gauss_ricci_contraction(phi, H, (n - 1) * kappa)
                assert c == pytest.approx(r11 / (n - 1), rel=1e-12)


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

    def test_out_of_float_range(self):
        # The eigenvalue mu / rho^2 overflows: at rho = 5e-324, where s = rho * sqrt(c_int)
        # underflows to 0 and mu is j^2 = pi^2, and at rho = 1e-154, where s = 1.3.
        with pytest.raises(PreconditionViolation):
            sf.lambda1_ball(3, 5e-324, 5e-324)
        with pytest.raises(PreconditionViolation):
            sf.lambda1_ball(2, 1.7e308, 1e-154)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c, rho", [(1.0, 1e-149), (1.0, 1e-151), (1.0, 1e-153), (1e-4, 1e-152)])
    def test_tiny_balls(self, n, c, rho):
        # The flat limit j^2 / rho^2, with j the first zero of J_{n/2-1}; for n = 3
        # exactly (pi/rho)^2 - c.  At c = 1e-4, rho = 1e-152, nu is about 2.4e154,
        # whose square overflows although the eigenvalue does not.
        j = {2: 2.404825557695773, 4: 3.8317059702075125}
        exact = (math.pi / rho) ** 2 - c if n == 3 else j[n] ** 2 / rho**2
        assert sf.lambda1_ball(n, c, rho) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ball_whose_eigenvalue_overflows(self, n):
        start = time.perf_counter()
        with pytest.raises(PreconditionViolation, match="eigenvalue at s=1e-155 overflows float range"):
            sf.lambda1_ball(n, 1.0, 1e-155)
        assert time.perf_counter() - start < 5.0

    def test_ball_with_subnormal_curvature(self):
        # With c_int subnormal the zero in nu, about pi / s = 3e310, lies past the
        # float range, but the zero in w = nu s does not; the eigenvalue is finite.
        c, rho = 5e-324, 4.5e-149
        assert sf.lambda1_ball(3, c, rho) == pytest.approx((math.pi / rho) ** 2 - c, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_balls_next_to_the_whole_sphere(self, n):
        # s = pi (1 - 2^-k), up to two floats below pi.  For n = 4 and k >= 29 the
        # zero in w lies below 1e-16 and the radial function at the far end is
        # below -1e17, so a secant point from w = 0 rounds onto or past 0.
        values = [sf.lambda1_ball(n, 1.0, math.pi * (1.0 - 2.0**-k)) for k in range(2, 53)]
        assert all(0.0 < v < math.inf for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

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
        assert sf._radial(n, nu * s, s) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("s", [2.6, 2.9, 3.1, 3.14])
    def test_n4_past_the_equator(self, s):
        # z > 0.92: the first nu lies in (0, 1), while a bracket growing past
        # nu = 1 would meet the nu = 1.06-1.3 inputs where scipy.special.hyp2f1
        # returns NaN.  The root-finder stays in (0, 1] there.
        lam = sf.lambda1_ball(4, 1.0, s)
        assert 0.0 < lam < 4.0
        assert shoot_first_zero(4, lam) == pytest.approx(s, rel=1e-9)
        with pytest.raises(PreconditionViolation):
            sf._radial(4, 1.2 * s, s)

    def test_large_nu_regression(self):
        # nu ~ 24,048, where scipy.special.hyp2f1 returns NaN.
        assert sf.lambda1_ball(2, 1.0, 1e-4) == pytest.approx(578318595.96134506332, rel=1e-13)


class TestRootFinder:
    """The bracketed root-finder of the oracle, and the oracle's effort."""

    def test_steep_bracket_next_to_the_pole(self):
        # n = 4 past the equator: the radial function falls to about -2.7e14
        # at S_MAX, next to its 1/w pole, while its root lies near 3.09.
        lam = 4 * (1 - 0.999)
        nu = 2 * lam / (3 + math.sqrt(9 + 4 * lam))

        def f(s):
            return sf._radial(4, nu * s, s)

        root = sf._false_position(f, math.pi / 2, sf.S_MAX, f(math.pi / 2), f(sf.S_MAX))
        eps = 2.0**-52
        # The zero of 2F1 at this nu, by mpmath at 40 digits.
        assert abs(root - 3.089774498682117142320481734825858354275) <= 4 * eps * root
        assert f(root * (1 - 4 * eps)) > 0.0 > f(root * (1 + 4 * eps))

    def test_nan_does_not_pass_for_a_root(self):
        with pytest.raises(NonConvergence):
            sf._false_position(lambda x: math.nan, 0.0, 1.0, 1.0, -1.0)

    def test_radial_evaluations_per_cap_sweep(self, monkeypatch):
        # The cap-sweep's 36 (n, delta) cells, at their grid centres: each
        # solved cold costs a scan and a root search.  The ceiling is the
        # count measured when the solver was put in.
        calls = []
        radial = sf._radial

        def counting(*args):
            calls.append(args)
            return radial(*args)

        monkeypatch.setattr(sf, "_radial", counting)
        sf._scaled_marginal_radius.cache_clear()
        try:
            for n in (2, 3, 4):
                for delta in (0.0, 0.05, 0.12, 0.2, 0.27, 0.33, 0.42, 0.5, 0.56, 0.65, 0.72, 0.85):
                    sf.max_stable_cap_radius(n, 0.0, 1.0, delta)
        finally:
            sf._scaled_marginal_radius.cache_clear()
        assert len(calls) <= 340

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c, rho", [(1.0, 3.1), (1.0, 1.25), (1.0, 0.01), (1.0, 1e-8), (1.0, 1e-149),
                                        (1.0, 1e-152), (1e-300, 1e-150)])
    def test_radial_evaluations_per_ball(self, monkeypatch, n, c, rho):
        # One false-position search on a fixed bracket in w = nu s, whatever the
        # size of the ball; a scan in nu made 856 evaluations at s = 1e-149.
        calls = []
        radial = sf._radial

        def counting(*args):
            calls.append(args)
            return radial(*args)

        monkeypatch.setattr(sf, "_radial", counting)
        sf.lambda1_ball(n, c, rho)
        assert len(calls) <= 24


class TestRadialProfile:
    # From a tiny ball through the hemisphere, one float past it, to one float short of the sphere.
    @pytest.mark.parametrize("s", [1e-300, 1e-4, 0.6, 1.25, 0.5 * math.pi * (1.0 + 2.0**-52), 1.9, 3.1,
                                   math.pi * (1.0 - 2.0**-52)])
    def test_one_at_the_centre_and_zero_at_the_rim(self, s):
        for n in (2, 3, 4):
            # Near the antipode the eigenvalue tends to 0 (for n >= 3 as fast as the
            # excluded ball's capacity), and the profile to 1 short of the rim.
            centre, middle, rim = sf.radial_profile(n, 1.0, s, [0.0, 0.5, 1.0])
            assert centre == 1.0 and 0.0 < middle <= 1.0
            assert abs(rim) <= 1e-12

    def test_scales_with_the_curvature(self):
        # On the sphere of curvature c the rho-ball's profile is that of the s-ball, s = rho sqrt(c).
        c, rho = 6.29, 0.5
        fractions = [k / 8 for k in range(9)]
        profile = sf.radial_profile(2, c, rho, fractions)
        unit = sf.radial_profile(2, 1.0, rho * math.sqrt(c), fractions)
        assert profile == pytest.approx(unit, rel=1e-13, abs=1e-15)
        assert profile != pytest.approx(sf.radial_profile(2, 1.0, rho, fractions), rel=1e-3)

    @pytest.mark.parametrize("fraction", [-1e-300, -0.5, 1.0 + 2.0**-52, 2.0, math.nan, math.inf])
    def test_fraction_outside_the_ball_is_rejected(self, fraction):
        with pytest.raises(PreconditionViolation):
            sf.radial_profile(2, 1.0, 1.0, [0.0, fraction, 1.0])

    def test_nu_of_the_largest_eigenvalues_is_finite(self):
        nu = sf._solve_w(2, 1.0, 1e308)  # w at s = 1 is nu
        assert math.isfinite(nu) and nu * (nu + 1.0) == pytest.approx(1e308, rel=1e-15)

    def test_profile_of_a_huge_eigenvalue_is_finite_or_raises(self):
        # The eigenvalue of this ball overflows, but its profile never forms it.
        with pytest.raises(PreconditionViolation):
            sf.lambda1_ball(2, 1.0, 1e-160)
        centre, middle, rim = sf.radial_profile(2, 1.0, 1e-160, [0.0, 0.5, 1.0])
        assert centre == 1.0 and 0.0 < middle < 1.0 and abs(rim) <= 1e-12


class TestMaxStableCapRadius:
    def test_hemisphere_at_delta_zero(self):
        rho = sf.max_stable_cap_radius(2, -1.0, 2.5, 0.0)
        assert rho == pytest.approx(math.pi / (2 * math.sqrt(5.25)), rel=1e-9)

    @pytest.mark.parametrize("n,kappa,H", [(2, 0.0, 1.0), (3, -1.0, 2.5), (4, 0.0, 0.7)])
    def test_scale_invariant_hemisphere_identity(self, n, kappa, H):
        c = sf.intrinsic_curvature(kappa, H)
        rho = sf.max_stable_cap_radius(n, kappa, H, 0.0)
        assert rho * math.sqrt(c) == pytest.approx(math.pi / 2, rel=1e-9)

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


class TestClosedSphere:
    def test_reference_values(self):
        assert reference.closed_sphere_lowest_eigenvalue(2, -1.0, 2.5, 0.0) == pytest.approx(-10.5)
        assert reference.closed_sphere_lowest_eigenvalue(4, 0.0, 1.0, 0.0) == pytest.approx(-4.0)

    def test_vanishes_at_delta_one_limit(self):
        val = reference.closed_sphere_lowest_eigenvalue(2, -1.0, 2.5, 1.0 - 1e-15)
        assert val == pytest.approx(0.0, abs=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("kappa, H", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.nan), (-1.0, math.inf),
    ])
    def test_sphere_from_H_rejects(self, kappa, H):
        with pytest.raises(PreconditionViolation, match="finite"):
            sf.intrinsic_curvature(kappa, H)

    @pytest.mark.parametrize("kappa, H", [(0.0, 1e-200), (0.0, 1e200), (1e308, 1e154)])
    def test_sphere_from_H_rejects_curvature_out_of_float_range(self, kappa, H):
        # kappa + H^2 underflows to 0 or overflows to inf.
        with pytest.raises(PreconditionViolation, match="float range"):
            sf.intrinsic_curvature(kappa, H)

    def test_verify_cap_bound_rejects_nan_H(self):
        with pytest.raises(PreconditionViolation):
            sf.verify_cap_bound(2, -1.0, math.nan, 0.0)


class TestVerifyCapBound:
    def test_no_radius_is_not_applicable(self):
        rec = sf.verify_cap_bound(2, 0.0, 1.0, 0.999)
        assert rec.status == "not-applicable"
        assert rec.rho_star is None
        assert "not found" in rec.reason

    def test_reference_hyperbolic_case(self):
        rec = sf.verify_cap_bound(2, -1.0, 2.5, 0.0)
        assert rec.status == "pass"
        assert rec.rho_star == pytest.approx(0.6856, abs=2e-4)
        assert rec.c_best == pytest.approx(0.8618, abs=2e-4)
        assert rec.ratio == pytest.approx(9 / (8 * math.sqrt(2)), rel=1e-8)

    def test_flat_case(self):
        rec = sf.verify_cap_bound(2, 0.0, 1.0, 0.0)
        assert rec.status == "pass"
        assert rec.rho_star == pytest.approx(math.pi / 2, rel=1e-9)
        # Optimal k is the vertex 7/4 of (4-k)(2k+1): c = pi*sqrt((16/9)/4.5),
        # strictly below the k=1 value 2*pi/3.
        assert rec.c_best == pytest.approx(math.pi * math.sqrt(16 / 9 / 4.5), rel=1e-9)
        assert rec.c_best < 2 * math.pi / 3
        assert rec.ratio == pytest.approx(9 / (8 * math.sqrt(2)), rel=1e-8)

    def test_not_applicable_case(self):
        rec = sf.verify_cap_bound(3, -1.0, 1.5, 0.0)
        assert rec.status == "not-applicable"
        assert rec.c_best is None
        assert rec.rho_star > 0.0
        assert rec.reason

    @pytest.mark.parametrize("n, kappa, H", [(2, -1.0, 0.3), (3, -1.0, 1.0), (4, 0.0, 0.0), (2, 1.0, -0.5)])
    def test_unattainable_curvature_is_not_applicable(self, n, kappa, H):
        rec = sf.verify_cap_bound(n, kappa, H, 0.0)
        assert rec.status == "not-applicable"
        assert (rec.rho_star, rec.c_best, rec.ratio, rec.source) == (None, None, None, None)
        with pytest.raises(UnattainableCurvature) as exc:
            sf.intrinsic_curvature(kappa, H)
        assert rec.reason == str(exc.value)

    def test_fields_are_the_cap_row(self):
        assert list(sf.VerificationRecord._fields) == ["n", "kappa", "H", "delta", "rho_star", "c_best", "ratio", "source", "status", "reason"]

    # The n = 2 scalar route is fed S = 6*kappa, and on the unit S^3 that
    # gives c below the radius of the marginally stable hemisphere, so the
    # theorem reads as failing on a classical example.  Once the
    # normalisation of S is settled these pass, and the marker must go.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="S = 6*kappa on the n = 2 scalar route gives c < rho*")
    @pytest.mark.parametrize("H", [
        0.0,  # the hemisphere: rho* = pi/2 = 1.5708, c = 2*pi/sqrt(18) = 1.4810
        0.53,  # rho* = 1.38791 > c = 1.38677
    ])
    def test_small_H_on_the_unit_sphere(self, H):
        assert sf.verify_cap_bound(2, 1.0, H, 0.0).status == "pass"
