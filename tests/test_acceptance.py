"""Acceptance suite: one test per criterion, one printed verdict line each."""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from cmcradius import algebra, bounds, discrete, spaceforms as sf
from cmcradius.errors import EmptyIntervalError


def _verdict(num: int, label: str) -> None:
    # Printed only when the assertions above it all passed.
    print(f"[acceptance {num}] PASS — {label}")


def test_01_threshold_constants():
    expected = {2: Fraction(27, 32), 3: Fraction(7, 12), 4: Fraction(19, 64)}
    for n, thr in expected.items():
        assert bounds.delta_threshold(n) == thr
        with pytest.raises(EmptyIntervalError):
            bounds.k_interval(n, thr)
        iv = bounds.k_interval(n, thr - Fraction(1, 10**12))
        assert iv.lo < iv.hi
    _verdict(1, "delta thresholds are exactly 27/32, 7/12, 19/64 and close the k-interval")


def test_02_scalar_route_consistency():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 100:
        delta = rng.uniform(0.0, 0.7499)
        H = rng.uniform(0.1, 6.0)
        S = rng.uniform(-10.0, 10.0)
        if 3 * H * H + S <= 1e-9:
            continue
        count += 1
        k = 1.0 / (1.0 - delta)
        # Fixed-k route with the curvature slot carrying B = 3H^2 + S:
        A = reference.coeff_A(2, k)
        B = 3 * H * H + S
        via_fixed = math.pi * math.sqrt(A / B)
        via_scalar = bounds.radius_bound_scalar(delta, H, S).c
        assert via_fixed == pytest.approx(via_scalar, rel=1e-12)
    _verdict(2, "fixed-k route at k = 1/(1-delta) equals the scalar bound on a 100-point grid")


def test_03_cap_vs_bound_sweep():
    checked = 0
    reference_seen = False
    for n in (2, 3, 4):
        thr = float(bounds.delta_threshold(n))
        deltas = np.linspace(0.0, 0.95 * thr, 8)
        for kappa in (-1.0, 0.0):
            h_min = bounds.mean_curvature_threshold(kappa)
            hs = [h_min + step for step in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)]
            for delta in deltas:
                for H in hs:
                    rec = sf.verify_cap_bound(n, kappa, H, float(delta))
                    if rec.status != "not-applicable":
                        checked += 1
                        assert rec.status == "pass", (
                            f"theorem instance failed: n={n} kappa={kappa} H={H} "
                            f"delta={delta}: rho*={rec.rho_star} > c={rec.c_best}"
                        )
                        assert rec.rho_star <= rec.c_best * (1 + 1e-8)
    assert checked > 200
    # Reference instance with closed forms.
    rec = sf.verify_cap_bound(2, -1.0, 2.5, 0.0)
    assert rec.rho_star == pytest.approx(math.pi / (2 * math.sqrt(5.25)), rel=1e-8)
    assert rec.c_best == pytest.approx((4 * math.sqrt(2) / 9) * math.pi / math.sqrt(5.25), rel=1e-8)
    assert rec.ratio == pytest.approx(9 / (8 * math.sqrt(2)), rel=1e-8)
    _verdict(3, f"rho* <= c_best on all {checked} applicable sweep cases, reference instance exact")


def test_04_hemisphere_spectral_identity():
    for n in (2, 3, 4):
        for c in (0.5, 1.0, 5.25):
            rho = math.pi / (2 * math.sqrt(c))
            lam = sf.lambda1_ball(n, c, rho)
            assert abs(lam - n * c) / (n * c) <= 1e-6
    _verdict(4, "hemisphere first Dirichlet eigenvalue equals n*c to 1e-6 relative")


def test_05_algebraic_inequality_suite():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        interval = bounds.k_interval(n, 0.0)
        lo, hi = float(interval.lo), float(interval.hi)
        # 10,000 matrices, each with its own scale in [0.1, 10], checked as one stack.
        raw = rng.normal(0.0, 1.0, (10_000, n, n)) * rng.uniform(0.1, 10.0, (10_000, 1, 1))
        phi = algebra.TracelessMatrix(n, algebra.traceless_part(raw))
        k = rng.uniform(lo * (1 + 1e-12), hi, 10_000)
        assert algebra.check_traceless_crude(phi).min() >= -1e-12
        assert algebra.check_potential_remainder(phi, k, 0.0).min() >= -1e-12
        # Gauss contraction vs the unsimplified equation.
        for _ in range(1_000):
            phi = reference.random_traceless(n, rng)
            H = rng.uniform(-3.0, 3.0)
            kappa = rng.uniform(-2.0, 2.0)
            h = H * np.eye(n) + phi.entries
            oracle = sum(kappa + h[0, 0] * h[j, j] - h[0, j] ** 2 for j in range(1, n))
            got = reference.gauss_ricci_contraction(phi, H, (n - 1) * kappa)
            assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)
    _verdict(5, "crude estimate, potential remainder, and Gauss contraction verified randomly")


def test_06_quotient_bound():
    checked = 0
    for n in (2, 3, 4):
        thr = float(bounds.delta_threshold(n))
        for delta in np.linspace(0.0, 0.95 * thr, 10):
            iv = bounds.k_interval(n, float(delta))
            pad = float(iv.width) * 1e-6
            lo, hi = float(iv.lo) + pad, float(iv.hi) - pad
            for k in np.linspace(lo, hi, 34):
                assert reference.check_quotient_bound(n, float(k), float(delta)) < 4.0
                checked += 1
    assert checked >= 1000
    _verdict(6, f"quotient stays below 4 on {checked} admissible grid points")


def test_07_closed_sphere_instability():
    for n in (2, 3, 4):
        thr = float(bounds.delta_threshold(n))
        for kappa in (-1.0, 0.0):
            h_min = bounds.mean_curvature_threshold(kappa)
            for delta in np.linspace(0.0, 0.95 * thr, 6):
                for H in (h_min + 0.2, h_min + 1.0, h_min + 3.0):
                    assert reference.closed_sphere_lowest_eigenvalue(n, kappa, H, float(delta)) < 0.0
    _verdict(7, "closed umbilic spheres are spectrally unstable in every swept case")


def test_08_mesh_convergence():
    cases = [(0.0, 1.0, math.pi / 3), (-1.0, 2.5, 0.55)]
    for kappa, H, rho in cases:
        rep = discrete.mesh_verify(kappa, H, rho, 0.0, [3, 4, 5, 6])
        finest = rep.levels[-1]
        assert finest.level >= 6
        rel = abs(finest.lambda1 - rep.oracle_lambda1) / abs(rep.oracle_lambda1)
        assert rel <= 0.02, f"finest-level eigenvalue off by {rel:.4f}"
        assert rep.convergence_order is not None and rep.convergence_order >= 1.5
        assert rep.agrees_with_oracle
    _verdict(8, "discrete eigenvalues within 2% at level 6 with order >= 1.5, verdicts agree")


def test_09_monotonicity_properties():
    # c*(delta) nondecreasing at fixed (n, H, K).
    for n, H, K in [(2, 2.5, -1.0), (3, 3.0, -1.0), (4, 1.0, 0.0)]:
        thr = float(bounds.delta_threshold(n))
        cs = [
            bounds.radius_bound(bounds.BoundInput(n, float(d), H, K)).c
            for d in np.linspace(0.0, 0.9 * thr, 8)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(cs, cs[1:]))
    # rho*(delta) strictly increasing.
    radii = [sf.max_stable_cap_radius(2, -1.0, 2.5, float(d)) for d in np.linspace(0.0, 0.85, 8)]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    # lambda1_ball strictly decreasing in rho.
    vals = [sf.lambda1_ball(3, 1.0, float(r)) for r in np.linspace(0.5, 2.6, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    _verdict(9, "bound and oracle monotonicities hold on sampled grids with zero violations")
