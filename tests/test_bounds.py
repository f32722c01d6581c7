import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import reference
from cmcradius import bounds
from cmcradius.errors import (
    DimensionError,
    EmptyIntervalError,
    HypothesisViolation,
    NoApplicableBound,
    PreconditionViolation,
)


def _padded(iv: bounds.KInterval) -> tuple[float, float]:
    """The k-interval in floats, padded 1e-6 of its width inside each end."""
    pad = float(iv.width) * 1e-6
    return float(iv.lo) + pad, float(iv.hi) - pad


class TestDeltaThreshold:
    @pytest.mark.parametrize("n,expected", [
        (2, Fraction(27, 32)),
        (3, Fraction(7, 12)),
        (4, Fraction(19, 64)),
    ])
    def test_exact_rationals(self, n, expected):
        assert bounds.delta_threshold(n) == expected

    @pytest.mark.parametrize("n", [1, 5, 0, -2])
    def test_dimension_out_of_range(self, n):
        with pytest.raises(DimensionError):
            bounds.delta_threshold(n)


class TestKInterval:
    def test_n3_delta0(self):
        iv = bounds.k_interval(3, 0)
        assert (iv.lo, iv.hi) == (Fraction(5, 6), Fraction(2))

    def test_n2_delta0(self):
        iv = bounds.k_interval(2, 0)
        assert (iv.lo, iv.hi) == (Fraction(5, 8), Fraction(4))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_empty_exactly_at_threshold(self, n):
        thr = bounds.delta_threshold(n)
        with pytest.raises(EmptyIntervalError):
            bounds.k_interval(n, thr)
        # Just below the threshold the interval is nonempty.
        iv = bounds.k_interval(n, thr - Fraction(1, 10**9))
        assert iv.lo < iv.hi

    def test_delta_out_of_range(self):
        with pytest.raises(PreconditionViolation):
            bounds.k_interval(2, 1.5)


class TestCoefficients:
    def test_A_scalar_choice_n2(self):
        # k = 1/(1-delta) reproduces 4(1-delta)/(3-4delta)
        for delta in (0.0, 0.25, 0.5, 0.7):
            k = 1.0 / (1.0 - delta)
            expected = 4.0 * (1.0 - delta) / (3.0 - 4.0 * delta)
            assert reference.coeff_A(2, k) == pytest.approx(expected, rel=1e-14)

    def test_A_direct_values(self):
        assert reference.coeff_A(2, 7 / 4) == pytest.approx(16 / 9, rel=1e-14)
        assert reference.coeff_A(3, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_A_domain_error(self):
        with pytest.raises(HypothesisViolation):
            reference.coeff_A(3, 2.0)

    def test_B_negative_ambient_n2(self):
        # B = (2k+1)(H^2 - 1) for n=2, delta=0, K=-1.
        for k, H in [(1.0, 2.0), (1.5, 3.0), (0.7, 2.5)]:
            expected = (2 * k + 1) * (H * H - 1.0)
            assert reference.coeff_B(2, k, 0.0, H, -1.0) == pytest.approx(expected, rel=1e-14)
        assert reference.coeff_B(2, 1.0, 0.0, 2.0, -1.0) == pytest.approx(9.0, rel=1e-14)

    def test_B_scalar_pipeline_coefficient(self):
        # n=2, k=1/(1-delta), K=0: coefficient 2k(1-delta)+1 = 3.
        for delta in (0.0, 0.3, 0.6):
            k = 1.0 / (1.0 - delta)
            for H in (0.5, 1.0, 2.0):
                assert reference.coeff_B(2, k, delta, H, 0.0) == pytest.approx(3 * H * H, rel=1e-14)

    def test_B_positive_curvature_term_dropped(self):
        assert reference.coeff_B(3, 1.0, 0.0, 1.0, 5.0) == reference.coeff_B(3, 1.0, 0.0, 1.0, 0.0)

    def test_B_lower_endpoint_n4(self):
        k = 15 / 16
        assert reference.coeff_B(4, k, 0.0, 1.0, 0.0) == pytest.approx(4 * k - 1, rel=1e-12)


class TestMeanCurvatureThreshold:
    @pytest.mark.parametrize("K,expected", [(0.0, 0.0), (-1.0, 2.0), (5.0, 0.0), (-4.0, 4.0)])
    def test_values(self, K, expected):
        assert bounds.mean_curvature_threshold(K) == expected


class TestQuotientBound:
    @pytest.mark.parametrize("n,k,delta,expected", [
        (2, 1.0, 0.0, 1.0),
        (3, 1.0, 0.0, 5 / 4),
        (4, 1.0, 0.0, 7 / 3),
    ])
    def test_direct_values(self, n, k, delta, expected):
        assert reference.check_quotient_bound(n, k, delta) == pytest.approx(expected, rel=1e-14)

    def test_below_four_on_grid(self):
        for n in (2, 3, 4):
            thr = float(bounds.delta_threshold(n))
            for delta in np.linspace(0.0, 0.95 * thr, 12):
                iv = bounds.k_interval(n, float(delta))
                lo, hi = _padded(iv)
                for k in np.linspace(lo, hi, 25):
                    assert reference.check_quotient_bound(n, float(k), float(delta)) < 4.0

    def test_domain_error(self):
        with pytest.raises(PreconditionViolation):
            reference.check_quotient_bound(4, 0.1, 0.0)


class TestRadiusBoundFixedK:
    def test_reference_case(self):
        inp = bounds.BoundInput(2, 0.0, 2.5, -1.0)
        res = reference.radius_bound_fixed_k(inp, 7 / 4)
        expected = (4 * math.sqrt(2) / 9) * math.pi / math.sqrt(5.25)
        assert res.c == pytest.approx(expected, rel=1e-12)
        assert res.c == pytest.approx(0.8618, abs=2e-4)

    def test_flat_unit_case(self):
        res = reference.radius_bound_fixed_k(bounds.BoundInput(2, 0.0, 1.0, 0.0), 1.0)
        assert res.c == pytest.approx(2 * math.pi / 3, rel=1e-12)

    def test_boundary_case_flags_both(self):
        inp = bounds.BoundInput(2, 0.0, 2.0, -1.0)
        with pytest.raises(HypothesisViolation) as exc:
            reference.radius_bound_fixed_k(inp, 5 / 8)
        msg = str(exc.value)
        assert "k=" in msg and "threshold" in msg

    def test_b_nonpositive(self):
        # H below threshold makes B <= 0 for small k.
        with pytest.raises(HypothesisViolation):
            reference.radius_bound_fixed_k(bounds.BoundInput(2, 0.0, 0.5, -1.0), 1.0)


class TestRadiusBound:
    def test_optimum_matches_parabola_vertex(self):
        # Oracle: maximize (4-k)(2k+1), a downward parabola with vertex 7/4.
        inp = bounds.BoundInput(2, 0.0, 2.5, -1.0)
        res = bounds.radius_bound(inp)
        assert res.k_star == pytest.approx(7 / 4, abs=1e-6)
        assert res.c == pytest.approx((4 * math.sqrt(2) / 9) * math.pi / math.sqrt(5.25), rel=1e-9)

    def test_grid_scan_oracle(self):
        # Dense grid scan over k must not beat the optimizer.
        inp = bounds.BoundInput(2, 0.0, 2.5, -1.0)
        res = bounds.radius_bound(inp)
        iv = bounds.k_interval(2, 0.0)
        lo, hi = _padded(iv)
        best_grid = min(
            reference.radius_bound_fixed_k(inp, float(k)).c for k in np.arange(lo, hi, 1e-4)
        )
        assert res.c <= best_grid * (1 + 1e-10)

    def test_h_scaling_ratio(self):
        c3 = bounds.radius_bound(bounds.BoundInput(2, 0.0, 3.0, -1.0)).c
        c5 = bounds.radius_bound(bounds.BoundInput(2, 0.0, 5.0, -1.0)).c
        assert c3 / c5 == pytest.approx(math.sqrt(3), rel=1e-10)

    def test_threshold_delta_raises(self):
        with pytest.raises((HypothesisViolation, EmptyIntervalError)):
            bounds.radius_bound(bounds.BoundInput(3, 7 / 12, 3.0, -1.0))

    def test_optimizer_dominance(self):
        inp = bounds.BoundInput(3, 0.2, 3.0, -1.0)
        res = bounds.radius_bound(inp)
        iv = bounds.k_interval(3, 0.2)
        lo, hi = _padded(iv)
        for k in np.linspace(lo, hi, 50):
            assert res.c <= reference.radius_bound_fixed_k(inp, float(k)).c * (1 + 1e-9)

    def test_monotone_in_delta(self):
        prev = -math.inf
        for delta in np.linspace(0.0, 0.55, 10):
            c = bounds.radius_bound(bounds.BoundInput(3, float(delta), 3.0, -1.0)).c
            assert c >= prev - 1e-12
            prev = c


class TestRadiusBoundScalar:
    def test_reference_value(self):
        res = bounds.radius_bound_scalar(0.0, 2.5, -6.0)
        assert res.c == pytest.approx(2 * math.pi / (3 * math.sqrt(2.5**2 - 2)), rel=1e-12)
        assert res.c == pytest.approx(1.0159, abs=2e-4)

    def test_simple_values(self):
        assert bounds.radius_bound_scalar(0.0, 1.0, 0.0).c == pytest.approx(2 * math.pi / 3, rel=1e-12)
        assert bounds.radius_bound_scalar(0.5, 1.0, 0.0).c == pytest.approx(
            2 * math.pi / math.sqrt(6), rel=1e-12)

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolation):
            bounds.radius_bound_scalar(0.8, 1.0, 0.0)
        with pytest.raises(HypothesisViolation):
            bounds.radius_bound_scalar(0.0, 1.0, -3.0)

    def test_matches_fixed_k_route(self):
        # pi*sqrt(A/B) with A = 4(1-d)/(3-4d), B = 3H^2+S equals the closed form.
        rng = np.random.default_rng(7)
        for _ in range(100):
            delta = rng.uniform(0.0, 0.74)
            H = rng.uniform(0.2, 5.0)
            S = rng.uniform(-3 * H * H + 0.1, 10.0)
            res = bounds.radius_bound_scalar(delta, H, S)
            A = 4 * (1 - delta) / (3 - 4 * delta)
            B = 3 * H * H + S
            assert res.c == pytest.approx(math.pi * math.sqrt(A / B), rel=1e-12)


class TestBestBound:
    def test_sectional_wins(self):
        res = bounds.best_bound(bounds.BoundInput(2, 0.0, 2.5, -1.0, -6.0))
        assert res.source == "sectional"
        assert res.c == pytest.approx(0.8618, abs=2e-4)

    def test_only_scalar_applies(self):
        res = bounds.best_bound(bounds.BoundInput(2, 0.0, 1.6, -1.0, -6.0))
        assert res.source == "scalar"
        assert res.B == pytest.approx(3 * 1.6**2 - 6, rel=1e-12)

    def test_no_applicable(self):
        with pytest.raises(NoApplicableBound):
            bounds.best_bound(bounds.BoundInput(3, 0.0, 1.0, -1.0))


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["delta", "H", "K_inf", "S_inf"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejected(self, field, value):
        kwargs = dict(n=2, delta=0.0, H=2.5, K_inf=-1.0, S_inf=-6.0)
        kwargs[field] = value
        with pytest.raises(PreconditionViolation, match=f"{field} must be finite"):
            bounds.BoundInput(**kwargs)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_fixed_k_rejects_non_finite_k(self, k):
        with pytest.raises(PreconditionViolation, match="k must be finite"):
            reference.radius_bound_fixed_k(bounds.BoundInput(2, 0.0, 2.5, -1.0), k)

    def test_infinite_H_is_not_a_zero_radius_pass(self):
        with pytest.raises(PreconditionViolation):
            bounds.best_bound(bounds.BoundInput(2, 0.0, math.inf, -1.0))


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def exact_infimum(n, delta, H, K):
    """Infimum of pi*sqrt(A/B) over the open k-interval, from exact coefficients.

    A/B = 4(a1 k + a0) / ((4 - m k)(b1 k + b0)) with m = n-1, a1 = 2-n,
    a0 = n-1, b1 = n(1-d)(H^2 + min(0,K)), b0 = (-n^2+5n-5)H^2 + m min(0,K).
    Its derivative vanishes where a1 m b1 k^2 + 2 a0 m b1 k
    + (4 a1 b0 - 4 a0 b1 + a0 m b0) = 0; the coefficients are Fractions and
    the roots are taken at 40 digits, so the infimum is the smallest value
    at a root inside the interval or at an end (A/B is finite at 4/m only
    for n = 3, where A = 2).
    """
    d, h, kk = Fraction(delta), Fraction(H), Fraction(K)
    m, a1, a0 = n - 1, 2 - n, n - 1
    Km = min(Fraction(0), kk)
    b1 = n * (1 - d) * (h * h + Km)
    b0 = (-n * n + 5 * n - 5) * h * h + m * Km
    lo, hi = Fraction(5 * m, 4 * n) / (1 - d), Fraction(4, m)
    assert b1 * lo + b0 > 0

    def ratio(k):
        return 4 * (a1 * k + a0) / ((4 - m * k) * (b1 * k + b0))

    with mp.workdps(40):
        cands = [_mpf(ratio(lo))] + ([_mpf(2 / (b1 * hi + b0))] if n == 3 else [])
        qa, qb, qc = a1 * m * b1, 2 * a0 * m * b1, 4 * a1 * b0 - 4 * a0 * b1 + a0 * m * b0
        if qa == 0:
            roots = [_mpf(-qc / qb)]
        else:
            disc = qb * qb - 4 * qa * qc
            roots = [] if disc < 0 else [(-_mpf(qb) + sign * mp.sqrt(_mpf(disc))) / (2 * _mpf(qa))
                                         for sign in (1, -1)]
        for r in roots:
            if _mpf(lo) < r < _mpf(hi):
                cands.append(4 * (a1 * r + a0) / ((4 - m * r) * (_mpf(b1) * r + _mpf(b0))))
        return float(mp.pi * mp.sqrt(min(cands)))


def assert_matches_reference(inp):
    res = bounds.radius_bound(inp)
    inf = exact_infimum(inp.n, inp.delta, inp.H, inp.K_inf)
    assert res.c >= inf * (1 - 5e-12)
    assert res.c <= inf * (1 + 1e-8)
    iv = bounds.k_interval(inp.n, inp.delta)
    assert iv.lo < Fraction(res.k_star) < iv.hi or res.k_star in (float(iv.lo), float(iv.hi))
    assert res.c == pytest.approx(math.pi * math.sqrt(res.A / res.B), rel=1e-15)


def _largest_float_below(q: Fraction) -> float:
    x = float(q)
    return x if Fraction(x) < q else math.nextafter(x, 0.0)


class TestExactReference:
    def test_random_admissible_inputs(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            n = rng.choice((2, 3, 4))
            thr = bounds.delta_threshold(n)
            if rng.random() < 0.1:  # within 1e-13..1e-3 of the threshold
                delta = float(thr - Fraction(10.0 ** -rng.uniform(3, 13)))
            else:
                delta = rng.uniform(0.0, _largest_float_below(thr))
            H = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-1.5, 1.5)
            K = rng.choice((0.0, rng.uniform(0.0, 5.0), -rng.uniform(0.0, 0.999) * H * H / 4))
            assert_matches_reference(bounds.BoundInput(n, delta, H, K))

    def test_reference_reproduces_parabola_vertex(self):
        # n = 2, delta = 0, H = 2.5, K = -1: the optimum is k = 7/4.
        assert exact_infimum(2, 0.0, 2.5, -1.0) == pytest.approx(
            (4 * math.sqrt(2) / 9) * math.pi / math.sqrt(5.25), rel=1e-15)


class TestNearThreshold:
    @pytest.mark.parametrize("eps", [1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("K", [0.0, -0.05])
    def test_bound_exists_and_is_tight(self, n, eps, K):
        delta = float(bounds.delta_threshold(n) - Fraction(eps))
        assert_matches_reference(bounds.BoundInput(n, delta, 3.0, K))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_largest_float_below_threshold(self, n):
        delta = _largest_float_below(bounds.delta_threshold(n))
        inp = bounds.BoundInput(n, delta, 3.0, 0.0)
        try:
            res = bounds.radius_bound(inp)
        except HypothesisViolation as exc:
            assert "k must satisfy" not in str(exc)
        else:
            assert 0 < res.c < math.inf
            assert_matches_reference(inp)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_float_at_or_above_threshold_raises(self, n):
        thr = bounds.delta_threshold(n)
        delta = float(thr) if Fraction(float(thr)) >= thr else math.nextafter(float(thr), 1.0)
        with pytest.raises(HypothesisViolation, match="threshold"):
            bounds.radius_bound(bounds.BoundInput(n, delta, 3.0, 0.0))


class TestFloatRange:
    @pytest.mark.parametrize("H", [1e-170, 1e160, 1e300])
    def test_unrepresentable_bound_raises(self, H):
        for n in (2, 3, 4):
            with pytest.raises(HypothesisViolation):
                bounds.radius_bound(bounds.BoundInput(n, 0.0, H, 0.0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_overflowing_B_is_named(self, n):
        # H^2 overflows, so B is inf - inf = nan: the reason names the overflow.
        with pytest.raises(HypothesisViolation, match="float range") as info:
            bounds.radius_bound(bounds.BoundInput(n, 0.0, 1e200, 0.0))
        assert "not positive" not in str(info.value)

    def test_scalar_route_out_of_range(self):
        with pytest.raises(HypothesisViolation, match="float range"):
            bounds.radius_bound_scalar(0.0, 1e200, 0.0)
        # (3 - 4 delta) * B underflows to 0 for a subnormal B.
        with pytest.raises(HypothesisViolation, match="float range"):
            bounds.radius_bound_scalar(0.734375, 0.0, 3e-323)
