"""Closed forms that the tests check the program against; no command reads them.

Each keeps the input checks it had in the package, so the fuzz of
`tests/test_bound_properties.py` holds them to the same contract: a finite
value, or a `CmcRadiusError`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cmcradius import bounds
from cmcradius.algebra import TracelessMatrix
from cmcradius.errors import HypothesisViolation, PreconditionViolation
from cmcradius.mesh import TriMesh
from cmcradius.report import SweepReport
from cmcradius.spaceforms import sphere_from_H


def coeff_A(n: int, k: float) -> float:
    """Gradient-side coefficient A(n, k) = 4(k(2-n) + (n-1)) / (4 - k(n-1))."""
    bounds._check_dimension(n)
    denom = 4.0 - k * (n - 1)
    if denom <= 0.0:
        raise HypothesisViolation(f"k must satisfy k < 4/(n-1) = {4 / (n - 1)}, got k={k}")
    return bounds._finite("A", 4.0 * (k * (2 - n) + (n - 1)) / denom)


def check_quotient_bound(n: int, k: float, delta: float) -> float:
    """Quotient (kn(1-d)+n-1) / (kn(1-d)-n^2+5n-5); stays below 4 inside the interval."""
    bounds._check_dimension(n)
    bounds.check_delta(delta)
    p = k * n * (1.0 - delta)
    denom = p - n * n + 5 * n - 5
    if denom <= 0.0:
        raise PreconditionViolation(
            f"quotient denominator nonpositive ({denom}); k below admissible range"
        )
    return bounds._finite("quotient", (p + n - 1) / denom)


def radius_bound_fixed_k(inp: bounds.BoundInput, k: float) -> bounds.BoundResult:
    """Distance bound at a caller-chosen admissible k (sectional-curvature route)."""
    interval, _ = bounds._sectional_setup(inp)
    problems = []
    if not interval.lo < bounds._finite("k", k) < interval.hi:
        problems.append(f"k={k} is not strictly inside ({interval.lo}, {interval.hi})")
    problems += bounds._H_problems(inp)
    A = coeff_A(inp.n, k) if k < float(interval.hi) else float("nan")
    B = bounds.coeff_B(inp.n, k, inp.delta, inp.H, inp.K_inf)
    return bounds._sectional_result(k, A, B, problems)


def cot_kappa(kappa: float, r: float) -> float:
    """Generalized cotangent: principal curvature of the geodesic r-sphere.

    sqrt(k) cot(sqrt(k) r) for k > 0, 1/r for k = 0,
    sqrt(|k|) coth(sqrt(|k|) r) for k < 0.  A non-finite kappa gives a
    non-finite value, and any such value raises PreconditionViolation.
    """
    if not 0.0 < r < math.inf:
        raise PreconditionViolation(f"radius must be positive and finite, got {r}")
    sq = math.sqrt(abs(kappa))
    if kappa > 0.0 and r >= math.pi / sq:
        raise PreconditionViolation(f"radius {r} exceeds the conjugate distance {math.pi / sq}")
    if sq * r == 0.0:  # kappa = 0, or kappa r^2 below the float range
        cot = 1.0 / r
    elif kappa > 0.0:
        cot = sq / math.tan(sq * r)
    else:
        cot = sq / math.tanh(sq * r)
    return bounds._finite("cot_kappa", cot)


def closed_sphere_lowest_eigenvalue(n: int, kappa: float, H: float, delta: float) -> float:
    """Lowest eigenvalue of the stability operator on the closed umbilic sphere.

    The potential is the constant n(1-delta)(H^2 + kappa), so the constant
    function is the ground state and the eigenvalue is minus the
    potential: negative exactly when the potential is positive, which is
    the non-existence mechanism for closed examples.
    """
    bounds._check_dimension(n)
    bounds.check_delta(delta)
    return bounds._finite("eigenvalue", -n * (1.0 - delta) * sphere_from_H(kappa, H).c_int)


def gauss_ricci_contraction(phi: TracelessMatrix, H: float, ambient_sectional_sum: float) -> float:
    """Contracted Gauss equation for the Ricci curvature in the e_1 direction.

    R_11 = sum_j Rbar_1j1j - Phi_11^2 + (n-2) Phi_11 H + (n-1) H^2
           - sum_j Phi_1j^2,
    with `ambient_sectional_sum` supplying sum_j Rbar_1j1j.
    """
    n = phi.n
    p11 = phi.first_diag
    return (
        ambient_sectional_sum
        - p11 * p11
        + (n - 2) * p11 * H
        + (n - 1) * H * H
        - phi.first_row_tail2
    )


def model_constraint_residual(mesh: TriMesh, r_ambient: float) -> float:
    """Max deviation of vertices from the ambient model constraint.

    For kappa = 0 the model is the Euclidean sphere of radius r_ambient;
    otherwise it is the quadric <v, v> = 1/kappa of the space form.
    """
    v = mesh.vertices
    if mesh.kappa == 0.0:
        return float(np.abs(np.linalg.norm(v, axis=1) - r_ambient).max())
    if mesh.kappa < 0.0:
        norm = -v[:, 0] ** 2 + np.sum(v[:, 1:] ** 2, axis=1)
        return float(np.abs(norm - 1.0 / mesh.kappa).max())
    norm = np.sum(v**2, axis=1)
    return float(np.abs(norm - 1.0 / mesh.kappa).max())


def parse_report_json(text: str) -> SweepReport:
    """Inverse of emit_report(fmt='json'), used by round-trip tests."""
    doc = json.loads(text)
    return SweepReport(kind=doc["kind"], rows=doc["rows"], metadata=doc["metadata"])
