import math
import sys

import numpy as np
import pytest

from cmcradius import bounds
from cmcradius.algebra import (
    TracelessMatrix,
    check_potential_remainder,
    check_traceless_crude,
)
from reference import gauss_ricci_contraction
from cmcradius.errors import PreconditionViolation


def _gauss_oracle(phi: TracelessMatrix, H: float, kappa_plane: float) -> float:
    """Unsimplified Gauss equation: sum over j of R_1j1j with h = H I + Phi."""
    n = phi.n
    h = H * np.eye(n) + phi.entries
    total = 0.0
    for j in range(1, n):
        total += kappa_plane + h[0, 0] * h[j, j] - h[0, j] ** 2
    return total


class TestTracelessMatrix:
    def test_rejects_nonzero_trace(self):
        with pytest.raises(PreconditionViolation):
            TracelessMatrix(2, np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionViolation):
            TracelessMatrix(2, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_rejects_entries_whose_squares_overflow(self):
        with pytest.raises(PreconditionViolation):
            TracelessMatrix(2, np.array([[1e200, 0.0], [0.0, -1e200]]))
        # Just inside the limit sqrt(float max) / n, |Phi|^2 and the checks stay finite.
        big = 0.99 * math.sqrt(sys.float_info.max) / 3
        phi = TracelessMatrix(3, np.diag([big, -big, 0.0]))
        assert math.isfinite(phi.norm2)
        assert math.isfinite(check_traceless_crude(phi))

    def test_random_is_valid(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            phi = TracelessMatrix.random(n, rng)
            assert abs(np.trace(phi.entries)) < 1e-12


class TestCrudeEstimate:
    def test_zero_matrix(self):
        phi = TracelessMatrix(3, np.zeros((3, 3)))
        assert check_traceless_crude(phi) == 0.0

    def test_equality_case_n2(self):
        phi = TracelessMatrix(2, np.diag([1.0, -1.0]))
        assert check_traceless_crude(phi) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_randomized(self, n):
        rng = np.random.default_rng(42 + n)
        for _ in range(10_000):
            phi = TracelessMatrix.random(n, rng, scale=rng.uniform(0.1, 10.0))
            assert check_traceless_crude(phi) >= -1e-12


class TestPotentialRemainder:
    def test_zero_matrix(self):
        phi = TracelessMatrix(2, np.zeros((2, 2)))
        assert check_potential_remainder(phi, 1.0, 0.0) == 0.0

    def test_near_endpoint_n2(self):
        phi = TracelessMatrix(2, np.diag([1.0, -1.0]))
        eps = 1e-3
        value = check_potential_remainder(phi, 5 / 8 + eps, 0.0)
        # (5/4 + 2 eps) * 2 - 5/4 evaluated at |Phi|^2 = 2, Phi_11 = 1.
        assert value == pytest.approx((5 / 8 + eps) * 2 - 1.25, rel=1e-12)
        assert value > 0.0

    def test_below_threshold_raises(self):
        phi = TracelessMatrix(2, np.zeros((2, 2)))
        with pytest.raises(PreconditionViolation):
            check_potential_remainder(phi, 0.5, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_randomized(self, n):
        rng = np.random.default_rng(7 + n)
        interval = bounds.k_interval(n, 0.0)
        lo, hi = float(interval.lo), float(interval.hi)
        worst = np.inf
        for _ in range(10_000):
            phi = TracelessMatrix.random(n, rng, scale=rng.uniform(0.1, 10.0))
            k = rng.uniform(lo * (1 + 1e-9), hi)
            worst = min(worst, check_potential_remainder(phi, k, 0.0))
        assert worst >= -1e-12


class TestGaussContraction:
    def test_umbilic_sphere_n2(self):
        phi = TracelessMatrix(2, np.zeros((2, 2)))
        for H in (1.5, 2.5, 4.0):
            # Intrinsic Ricci of the umbilic sphere: (n-1)(kappa + H^2).
            assert gauss_ricci_contraction(phi, H, -1.0) == pytest.approx(H * H - 1.0, rel=1e-14)

    def test_totally_geodesic_flat(self):
        phi = TracelessMatrix(3, np.zeros((3, 3)))
        assert gauss_ricci_contraction(phi, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_unsimplified_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2_000):
            phi = TracelessMatrix.random(n, rng, scale=rng.uniform(0.1, 5.0))
            H = rng.uniform(-3.0, 3.0)
            kappa = rng.uniform(-2.0, 2.0)
            got = gauss_ricci_contraction(phi, H, (n - 1) * kappa)
            want = _gauss_oracle(phi, H, kappa)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
