import math
import sys

import numpy as np
import pytest

from cmcradius import bounds, cli
from cmcradius.algebra import (
    TracelessMatrix,
    check_potential_remainder,
    check_traceless_crude,
    traceless_part,
)
from reference import gauss_ricci_contraction, random_traceless
from cmcradius.errors import PreconditionViolation


def _gauss_oracle(phi: TracelessMatrix, H: float, kappa_plane: float) -> float:
    """Unsimplified Gauss equation: sum over j of R_1j1j with h = H I + Phi."""
    n = phi.n
    h = H * np.eye(n) + phi.entries
    total = 0.0
    for j in range(1, n):
        total += kappa_plane + h[0, 0] * h[j, j] - h[0, j] ** 2
    return total


def _random_stack(n: int, m: int, rng: np.random.Generator) -> TracelessMatrix:
    """m random traceless matrices, each with its own scale in [0.1, 10]."""
    raw = rng.normal(0.0, 1.0, (m, n, n)) * rng.uniform(0.1, 10.0, (m, 1, 1))
    return TracelessMatrix(n, traceless_part(raw))


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
            phi = random_traceless(n, rng)
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
        phi = _random_stack(n, 10_000, np.random.default_rng(42 + n))
        assert check_traceless_crude(phi).min() >= -1e-12


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
        phi = _random_stack(n, 10_000, rng)
        k = rng.uniform(lo * (1 + 1e-9), hi, 10_000)
        assert check_potential_remainder(phi, k, 0.0).min() >= -1e-12


class TestStack:
    """A stack of matrices behaves as its members do one at a time."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_checks_match_each_member(self, n):
        rng = np.random.default_rng(200 + n)
        stack = _random_stack(n, 500, rng)
        k = float(bounds.k_interval(n, 0.0).lo) + rng.random(500)
        crude = check_traceless_crude(stack)
        remainder = check_potential_remainder(stack, k, 0.0)
        assert crude.shape == remainder.shape == (500,)
        for i, entries in enumerate(stack.entries):
            phi = TracelessMatrix(n, entries)
            assert crude[i] == check_traceless_crude(phi)
            assert remainder[i] == check_potential_remainder(phi, k[i], 0.0)

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.eye(2),
        np.array([[1e200, 0.0], [0.0, -1e200]]),
    ], ids=["asymmetric", "trace", "overflow"])
    def test_one_bad_member_rejects_the_stack(self, bad):
        with pytest.raises(PreconditionViolation) as alone:
            TracelessMatrix(2, bad)
        entries = traceless_part(np.random.default_rng(3).normal(size=(5, 2, 2)))
        entries[3] = bad
        with pytest.raises(PreconditionViolation) as stacked:
            TracelessMatrix(2, entries)
        assert str(stacked.value) == str(alone.value)

    def test_member_tolerance_is_its_own(self):
        # Asymmetric by 1e-6: within the tolerance of a member with entries
        # near 1e7, but not of a unit member beside it.
        small = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        big = np.array([[1e7, 0.0], [1e-6, -1e7]])
        TracelessMatrix(2, big)
        with pytest.raises(PreconditionViolation, match="not symmetric"):
            TracelessMatrix(2, np.stack([big, small]))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 3, 3), (4, 2, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(PreconditionViolation):
            TracelessMatrix(2, np.zeros(shape))


class TestAlgebraSweep:
    # Raw minima of the `mode = algebra` sweep, as float.hex.  They pin the
    # random stream (each sample draws its matrix, then its k) and the check
    # arithmetic; a change to either moves them, and the reports with them.
    PINNED = {
        1: [("-0x1.0000000000000p-49", "0x1.93a3af672d23bp-13"),
            ("0x1.0188181f0c000p-12", "0x1.73e9e05d07045p-4"),
            ("0x1.27ae42f135300p-5", "0x1.da63b98198816p-2")],
        5: [("-0x1.0000000000000p-50", "0x1.5b12420f530b7p-12"),
            ("0x1.45d3d5c185600p-8", "0x1.34ec6a3af7da5p-3"),
            ("0x1.d207aaa8a7260p-3", "0x1.a6fe9135f6abep-1")],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_minima_are_pinned(self, seed):
        rows = cli._algebra_rows([2, 3, 4], 1000, seed)
        got = [(r["min_crude_slack"].hex(), r["min_remainder"].hex()) for r in rows]
        assert got == self.PINNED[seed]


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
            phi = random_traceless(n, rng, scale=rng.uniform(0.1, 5.0))
            H = rng.uniform(-3.0, 3.0)
            kappa = rng.uniform(-2.0, 2.0)
            got = gauss_ricci_contraction(phi, H, (n - 1) * kappa)
            want = _gauss_oracle(phi, H, kappa)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
