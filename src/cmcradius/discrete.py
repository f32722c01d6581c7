"""Discrete stability operator on triangulated caps.

Cotangent stiffness and lumped mass are built from geodesic edge lengths
(the triangles are treated as intrinsic, via law of cosines and Heron's
formula), as the mesh derives them.  Each undirected edge
gets one weight (cot a + cot b) / 2 and a vertex's diagonal entry is the
sum of its edge weights (Pinkall & Polthier, Experiment. Math. 2, 1993).
The cap's stability potential is constant, so it only shifts the
spectrum of (stiffness, mass).  Only the Dirichlet block is built.  Its
first eigenvalue comes from single-vector LOBPCG, started from the cap's
closed-form radial eigenfunction and stopped when successive Rayleigh
quotients agree to STOP_TOL.  The preconditioner is one V-cycle over the
cap's own ring hierarchy, where level l - 1 has every other ring of level
l: damped Jacobi smoothing, with the weight from a Gershgorin bound on
D^-1 K, around the coarser level's correction, down to BASE_LEVEL.  Only
that level's stiffness is factored, by SuperLU in symmetric mode with
diagonal pivots only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .errors import MeshError, NoApplicableBound, NonConvergence
from .mesh import MAX_LEVEL, TriMesh, build_cap_mesh, intrinsic_radius, pole_chart, prolongation, require_interior
from .spaceforms import cap_bound, intrinsic_curvature, lambda1_ball, radial_profile

DEGENERATE_AREA_FRACTION = 1e-14

#: Relative band (against the potential q) in which a verdict is "marginal".
MARGINAL_BAND = 0.02

#: The eigensolve stops when successive Rayleigh quotients agree to this
#: relative tolerance, and raises NonConvergence after MAX_STEPS.
STOP_TOL = 1e-10
MAX_STEPS = 500


#: Levels up to this one are preconditioned by their own factor; each finer
#: level by a V-cycle down to it.  A level-3 cap has about 150 interior vertices.
BASE_LEVEL = 3


@dataclass
class SpectralProblem:
    """Dirichlet-reduced generalized eigenproblem (stiffness, mass).

    interior lists the interior vertices in ascending order; stiffness is
    the full stiffness restricted to them, mass their lumped masses and
    polar their polar angles in the pole chart, all in that order.  A level
    of a ring hierarchy links to the next coarser level's problem, and
    prolongation interpolates that level's interior values to this one's.
    """

    stiffness: csc_matrix
    mass: np.ndarray
    interior: np.ndarray
    polar: np.ndarray
    coarser: SpectralProblem | None = None
    prolongation: csr_matrix | None = None

    @cached_property
    def _factor(self):
        try:
            return splu(self.stiffness, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise MeshError(f"the Dirichlet stiffness cannot be factored: {exc}") from None

    @cached_property
    def _smoother(self) -> np.ndarray:
        """Damped Jacobi weights 4 / (3 g) / K_ii, with g >= the spectral radius of D^-1 K."""
        K = abs(self.stiffness)
        diagonal = self.stiffness.diagonal()
        gershgorin = float(np.max(np.asarray(K.sum(axis=0)).ravel() / diagonal))
        return 4.0 / (3.0 * gershgorin) / diagonal

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """An SPD approximation of K^-1 r: the factor's solve, or one V-cycle.

        The V-cycle smooths with damped Jacobi before and after the coarse
        correction.  Its weight keeps omega * rho(D^-1 K) <= 4/3 < 2, so the
        smoother contracts in the energy norm and the cycle stays symmetric
        positive definite where cotangent weights are negative.
        """
        if self.coarser is None:
            return self._factor.solve(r)
        K, P, weight = self.stiffness, self.prolongation, self._smoother
        e = weight * r
        e += P @ self.coarser.precondition(P.T @ (r - K @ e))
        return e + weight * (r - K @ e)


def assemble_stability(mesh: TriMesh) -> SpectralProblem:
    """Assemble the Dirichlet stiffness and lumped mass of the cap.

    An edge's weight is the sum of the half-cotangents of the corners
    opposite it, so the stiffness is symmetric and annihilates constants
    by construction.
    """
    areas = mesh.areas
    mean_area = areas.mean()
    if not (0.0 < mean_area < math.inf and np.all(areas >= DEGENERATE_AREA_FRACTION * mean_area)):
        raise MeshError("degenerate triangle in mesh (area below 1e-14 of mean, or not finite)")
    nv = mesh.num_vertices
    idx = require_interior(mesh)
    polar = np.hypot(*pole_chart(mesh, idx).T)
    mass = np.bincount(mesh.faces.T.ravel(), np.tile(areas / 3.0, 3), minlength=nv)[idx]
    l2 = mesh.face_lengths.T**2  # one row per corner
    i = np.arange(3)
    j, k = (i + 1) % 3, (i + 2) % 3
    # Half-cotangent of the angle at corner i, weighting the edge opposite it.
    half_cot = (l2[j] + l2[k] - l2[i]) / (8.0 * areas)
    weight = np.bincount(mesh.face_edges.T.ravel(), half_cot.ravel(), minlength=len(mesh.edges))
    del l2, half_cot  # each temporary is released once spent, to keep the peak low
    diagonal = np.bincount(mesh.edges.ravel(), np.repeat(weight, 2), minlength=nv)

    position = np.full(nv, -1)
    position[idx] = np.arange(idx.size)
    a, b = position[mesh.edges].T
    inner = (a >= 0) & (b >= 0)
    a, b, off = a[inner], b[inner], -weight[inner]  # edges (a, b), a < b, sorted
    # The canonical CSC, filled in place: column j holds its edges (i, j) by i,
    # its diagonal, then its edges (j, k) by k.
    above, below = np.bincount(b, minlength=idx.size), np.bincount(a, minlength=idx.size)
    indptr = np.append(0, np.cumsum(above + below + 1))
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    slot = np.arange(a.size) + np.cumsum(above + 1)[a]
    indices[slot], data[slot] = b, off
    by_column = np.argsort(b, kind="stable")
    slot = np.arange(a.size) + (np.cumsum(below + 1) - below - 1)[b[by_column]]
    indices[slot], data[slot] = a[by_column], off[by_column]
    slot = indptr[:-1] + above
    indices[slot], data[slot] = np.arange(idx.size), diagonal[idx]
    stiffness = csc_matrix((data, indices, indptr), shape=(idx.size, idx.size))
    return SpectralProblem(stiffness=stiffness, mass=mass, interior=idx, polar=polar)


def _m_orthonormal(vectors: list[np.ndarray], m: np.ndarray) -> np.ndarray:
    """Columns spanning the vectors, orthonormal in the inner product x.(m y).

    Gram-Schmidt, done twice; a vector that loses all but 1e-8 of its norm
    to the columns before it lies in their span numerically and is dropped.
    """
    basis = []
    for v in vectors:
        norm = math.sqrt(float(v @ (m * v)))
        for _ in range(2):
            for u in basis:
                v = v - u * float(u @ (m * v))
        rest = math.sqrt(float(v @ (m * v)))
        if rest > 1e-8 * norm:
            basis.append(v / rest)
    return np.stack(basis, axis=1)


def lambda1_dirichlet(problem: SpectralProblem, shift: float, start: np.ndarray) -> float:
    """Smallest generalized eigenvalue of (stiffness + shift * mass, mass).

    Single-vector LOBPCG on (stiffness, mass) (Knyazev, SIAM J. Sci.
    Comput. 23, 2001) from the vector start, one entry per interior
    vertex: each step takes the Rayleigh-Ritz pair of least value on the
    iterate, its preconditioned residual and the previous step.  The
    preconditioner is problem.precondition.  Stops when successive Rayleigh
    quotients of the operator agree to STOP_TOL relatively, against at
    least max(1, |shift|).
    """
    K = problem.stiffness
    m = problem.mass
    scale = max(1.0, abs(shift))
    # M-normalised: unnormalised, M x can under- or overflow.
    x = start / math.sqrt(float(start @ (m * start)))
    Kx = K @ x
    theta = float(x @ Kx)  # the Rayleigh quotient of (stiffness, mass)
    steps = []  # the previous step, once there is one
    for _ in range(MAX_STEPS):
        basis = _m_orthonormal([x, problem.precondition(Kx - theta * (m * x)), *steps], m)
        K_basis = K @ basis
        values, vectors = np.linalg.eigh(basis.T @ K_basis)
        y = vectors[:, 0]
        steps = [basis[:, 1:] @ y[1:]]
        x, Kx = basis @ y, K_basis @ y
        previous, theta = theta, float(values[0])
        if abs(theta - previous) <= STOP_TOL * max(abs(theta + shift), scale):
            return theta + shift
    raise NonConvergence(f"LOBPCG did not converge in {MAX_STEPS} steps")


@dataclass(frozen=True)
class LevelResult:
    """One refinement level of a mesh verification run; its fields are the level columns."""

    level: int
    vertices: int
    max_edge: float
    lambda1: float
    radius: float
    verdict: str  # "stable", "unstable" or "marginal"
    oracle_error: float
    status: str  # "fail" when stable, a bound applies and the radius exceeds it; else "pass"


@dataclass(frozen=True)
class ConvergenceReport:
    """Mesh-vs-oracle comparison across refinement levels."""

    oracle_lambda1: float
    c_best: float | None
    levels: list[LevelResult]
    convergence_order: float | None  # None with a single level
    agrees_with_oracle: bool
    finest_mesh: TriMesh = field(repr=False, compare=False)  # mesh of the last level


def mesh_verify(kappa: float, H: float, rho: float, delta: float, levels: list[int]) -> ConvergenceReport:
    """Discrete stability verdicts and eigenvalue convergence against the closed-form oracle."""
    if not levels or len(set(levels)) < len(levels) or min(levels) < 0 or max(levels) > MAX_LEVEL:
        raise MeshError(f"expected one or more distinct refinement levels in [0, {MAX_LEVEL}], got {levels}")
    c = intrinsic_curvature(kappa, H)
    q = 2.0 * (1.0 - delta) * c
    try:
        c_best = cap_bound(2, kappa, H, delta).c
    except NoApplicableBound:
        c_best = None
    ball = lambda1_ball(2, c, rho)
    oracle = ball - q
    # The eigensolve starts from the cap's eigenfunction, tabulated at the
    # finest level's ring angles; a coarser level's rings are a subset.
    s = rho * math.sqrt(c)
    angles = np.arange(2 ** max(levels) + 1) * s / 2 ** max(levels)
    profile = None

    # Every level from the base up is built, so that each finer one has its
    # V-cycle; a problem is kept as the next one's coarser level, its mesh is not.
    results, problem = [], None
    for level in range(min(BASE_LEVEL, *levels), max(levels) + 1):
        m = None  # released before the next mesh is built
        m = build_cap_mesh(kappa, H, rho, level)
        coarser, problem = problem, assemble_stability(m)
        if level > BASE_LEVEL:
            problem.coarser, problem.prolongation = coarser, prolongation(kappa, H, rho, level)
        if level not in levels:
            continue
        if profile is None:  # after the first mesh, so that a cap too large to mesh says so first
            profile = radial_profile(2, ball * rho * rho, s, angles.tolist())
        lam = lambda1_dirichlet(problem, -q, np.interp(problem.polar, angles, profile))
        radius = intrinsic_radius(m)
        if abs(lam) <= MARGINAL_BAND * q:
            verdict = "marginal"
        elif lam >= -1e-8 * c:
            verdict = "stable"
        else:
            verdict = "unstable"
        fails = verdict == "stable" and c_best is not None and not radius <= c_best * (1.0 + 1e-6)
        results.append(LevelResult(
            level=level, vertices=m.num_vertices, max_edge=float(m.edge_lengths.max()), lambda1=lam,
            radius=radius, verdict=verdict, oracle_error=abs(lam - oracle),
            status="fail" if fails else "pass",
        ))

    order = None
    if len(results) >= 2:
        hs = np.array([row.max_edge for row in results])
        errs = np.array([max(row.oracle_error, 1e-300) for row in results])
        slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
        order = float(slope)

    finest = results[-1]
    if finest.verdict == "marginal":
        agrees = abs(oracle) <= 2.0 * MARGINAL_BAND * q
    else:
        agrees = (finest.verdict == "stable") == (oracle >= 0.0)
    return ConvergenceReport(oracle_lambda1=oracle, c_best=c_best, levels=results, convergence_order=order,
                             agrees_with_oracle=agrees, finest_mesh=m)
