"""Discrete stability operator on triangulated caps.

Cotangent stiffness and lumped mass are built from geodesic edge lengths
(the triangles are treated as intrinsic, via law of cosines and Heron's
formula), read from the mesh's topology record, and the constant
stability potential is folded against the mass.  The first Dirichlet
eigenvalue comes from shifted inverse iteration.  The shifted operator
is symmetric positive definite, so it is factored once by SuperLU in
symmetric mode: a minimum-degree ordering of A + A^T and diagonal pivots
only, which keeps the LU fill well below that of a column ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, diags
from scipy.sparse.linalg import splu

from . import bounds
from .errors import (
    EmptyIntervalError,
    HypothesisViolation,
    MeshError,
    NoApplicableBound,
    NonConvergence,
)
from .mesh import TriMesh, build_cap_mesh, intrinsic_radius, triangle_areas  # noqa: F401
from .spaceforms import lambda1_ball, space_form_scalar_bound, sphere_from_H

DEGENERATE_AREA_FRACTION = 1e-14

#: Relative band (against the potential q) in which a verdict is "marginal".
MARGINAL_BAND = 0.02


def cotangent_stiffness(mesh: TriMesh) -> csc_matrix:
    """Piecewise-linear stiffness matrix with cotangent weights (full, unreduced)."""
    lengths = mesh.topology.face_lengths
    areas = mesh.topology.areas
    mean_area = areas.mean()
    if np.any(areas < DEGENERATE_AREA_FRACTION * mean_area):
        raise MeshError("degenerate triangle in mesh (area below 1e-14 of mean)")
    l2 = lengths**2
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # Half-cotangent of the angle at corner i, weighting edge (j, k).
        w = (l2[:, j] + l2[:, k] - l2[:, i]) / (8.0 * areas)
        vj, vk = mesh.faces[:, j], mesh.faces[:, k]
        rows.extend([vj, vk, vj, vk])
        cols.extend([vk, vj, vj, vk])
        vals.extend([-w, -w, w, w])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def lumped_mass(mesh: TriMesh) -> np.ndarray:
    """Per-vertex lumped mass: one third of each incident triangle area."""
    areas = mesh.topology.areas
    m = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(m, mesh.faces[:, i], areas / 3.0)
    return m


@dataclass
class SpectralProblem:
    """Dirichlet-reduced generalized eigenproblem for the stability operator.

    stiffness, mass and potential are restricted to interior vertices;
    the potential diagonal is -(1-delta) * potential * mass.
    """

    stiffness: csc_matrix
    mass: csc_matrix
    potential: csc_matrix
    interior: np.ndarray
    num_total: int

    @property
    def operator(self) -> csc_matrix:
        return (self.stiffness + self.potential).tocsc()


def assemble_stability(mesh: TriMesh, delta: float) -> SpectralProblem:
    """Assemble the discrete quadratic form of the delta-stability operator."""
    K = cotangent_stiffness(mesh)
    m = lumped_mass(mesh)
    asym = abs(K - K.T).max()
    if asym > 1e-12 * max(1.0, abs(K).max()):
        raise MeshError(f"stiffness not symmetric (deviation {asym})")
    kernel_residual = np.abs(K @ np.ones(mesh.num_vertices)).max()
    if kernel_residual > 1e-10 * max(1.0, abs(K).max()):
        raise MeshError(f"stiffness does not annihilate constants (residual {kernel_residual})")
    v = -(1.0 - delta) * mesh.potential * m
    idx = mesh.interior
    if idx.size == 0:
        raise MeshError("no interior vertices")
    K_ii = K[np.ix_(idx, idx)].tocsc()
    M_ii = diags(m[idx]).tocsc()
    V_ii = diags(v[idx]).tocsc()
    return SpectralProblem(
        stiffness=K_ii, mass=M_ii, potential=V_ii, interior=idx, num_total=mesh.num_vertices
    )


def lambda1_dirichlet(problem: SpectralProblem, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Smallest generalized eigenvalue of (stiffness + potential, mass).

    Shifted inverse iteration with the shift at the potential's lower
    bound (a guaranteed lower bound for the spectrum since the stiffness
    is positive semidefinite), so the iteration converges to the ground
    state.  Stops when successive Rayleigh quotients agree to tol
    relatively.
    """
    A = problem.operator
    m_diag = problem.mass.diagonal()
    v_over_m = problem.potential.diagonal() / m_diag
    scale = max(1.0, float(np.abs(v_over_m).max()))
    sigma = float(v_over_m.min())
    lu = None
    for attempt in range(4):
        try:
            lu = splu(
                (A - sigma * problem.mass).tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            break
        except RuntimeError:
            sigma -= 10.0 ** (attempt - 6) * scale
    if lu is None:
        raise NonConvergence("singular-shift retries exhausted")

    x = np.ones(A.shape[0])
    x /= math.sqrt(float(x @ (m_diag * x)))
    rayleigh = float(x @ (A @ x))
    for _ in range(max_iter):
        y = lu.solve(m_diag * x)
        y /= math.sqrt(float(y @ (m_diag * y)))
        new_rayleigh = float(y @ (A @ y)) / float(y @ (m_diag * y))
        x = y
        if abs(new_rayleigh - rayleigh) <= tol * max(abs(new_rayleigh), scale):
            return new_rayleigh
        rayleigh = new_rayleigh
    raise NonConvergence(f"inverse iteration did not converge in {max_iter} steps")


@dataclass(frozen=True)
class LevelResult:
    """One refinement level of a mesh verification run."""

    level: int
    num_vertices: int
    max_edge: float
    lambda1: float
    radius: float
    verdict: str  # "stable", "unstable" or "marginal"
    oracle_error: float
    bound_ok: bool | None  # radius <= c_best when stable and a bound applies


@dataclass
class ConvergenceReport:
    """Mesh-vs-oracle comparison across refinement levels."""

    kappa: float
    H: float
    rho: float
    delta: float
    oracle_lambda1: float
    c_best: float | None
    levels: list[LevelResult] = field(default_factory=list)
    convergence_order: float | None = None
    agrees_with_oracle: bool = False
    finest_mesh: TriMesh | None = field(default=None, repr=False, compare=False)  # mesh of the last level


def _max_edge(mesh: TriMesh) -> float:
    return float(mesh.topology.face_lengths.max())


def mesh_verify(
    kappa: float,
    H: float,
    rho: float,
    delta: float,
    levels: list[int],
    tol: float = 1e-10,
) -> ConvergenceReport:
    """Discrete stability verdicts and eigenvalue convergence against the closed-form oracle."""
    if not levels:
        raise MeshError("at least one refinement level is required")
    geom = sphere_from_H(2, kappa, H)
    c = geom.c_int
    q = 2.0 * (1.0 - delta) * c
    oracle = lambda1_ball(2, c, rho) - q

    c_best: float | None
    try:
        result = bounds.best_bound(
            bounds.BoundInput(n=2, delta=delta, H=H, K_inf=kappa, S_inf=space_form_scalar_bound(kappa))
        )
        c_best = result.c
    except (NoApplicableBound, HypothesisViolation, EmptyIntervalError):
        c_best = None

    report = ConvergenceReport(
        kappa=kappa, H=H, rho=rho, delta=delta, oracle_lambda1=oracle, c_best=c_best
    )
    for level in sorted(levels):
        m = build_cap_mesh(kappa, H, rho, level)
        problem = assemble_stability(m, delta)
        lam = lambda1_dirichlet(problem, tol=tol)
        radius = intrinsic_radius(m)
        if abs(lam) <= MARGINAL_BAND * q:
            verdict = "marginal"
        elif lam >= -1e-8 * c:
            verdict = "stable"
        else:
            verdict = "unstable"
        bound_ok = None
        if verdict == "stable" and c_best is not None:
            bound_ok = radius <= c_best * (1.0 + 1e-6)
        report.levels.append(
            LevelResult(
                level=level,
                num_vertices=m.num_vertices,
                max_edge=_max_edge(m),
                lambda1=lam,
                radius=radius,
                verdict=verdict,
                oracle_error=abs(lam - oracle),
                bound_ok=bound_ok,
            )
        )
    report.finest_mesh = m

    if len(report.levels) >= 2:
        hs = np.array([row.max_edge for row in report.levels])
        errs = np.array([max(row.oracle_error, 1e-300) for row in report.levels])
        slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
        report.convergence_order = float(slope)

    finest = report.levels[-1]
    oracle_stable = oracle >= 0.0
    if finest.verdict == "marginal":
        report.agrees_with_oracle = abs(oracle) <= 2.0 * MARGINAL_BAND * q
    else:
        report.agrees_with_oracle = (finest.verdict == "stable") == oracle_stable
    return report
