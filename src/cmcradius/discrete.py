"""Discrete stability operator on triangulated caps.

Cotangent stiffness and lumped mass are built from geodesic edge lengths
(the triangles are treated as intrinsic, via law of cosines and Heron's
formula), as the mesh derives them.  Each undirected edge gets one weight
(cot a + cot b) / 2 and a vertex's diagonal entry is the sum of its edge
weights (Pinkall & Polthier, Experiment. Math. 2, 1993).  The cap's
stability potential is constant, so it only shifts the spectrum of
(stiffness, mass).  Only the Dirichlet block is built, straight into the
slots of an ELL matrix.  Its first eigenvalue comes from preconditioned inverse
iteration, one preconditioned residual correction per step, started from
the cap's closed-form radial eigenfunction, read at each interior vertex's
ring, and stopped when successive Rayleigh quotients agree to STOP_TOL.
The preconditioner is one V-cycle over the cap's own ring hierarchy, where
level l - 1 has every other ring of level l: damped Jacobi smoothing, with
the weight from a Gershgorin bound on D^-1 K, around the coarser level's
correction, down to BASE_LEVEL.  Only that level's stiffness is factored,
by a dense Cholesky factorization, and kept as its inverse.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ell import Ell
from .errors import MeshError, NoApplicableBound, NonConvergence
from .mesh import (MAX_LEVEL, MeshArrays, TriMesh, build_cap_mesh, interior_rings, intrinsic_radius,
                   prolongation, require_interior, triangle_areas)
from .spaceforms import cap_bound, intrinsic_curvature, lambda1_ball, radial_profile

DEGENERATE_AREA_FRACTION = 1e-14

#: Relative band (against the potential q) in which a verdict is "marginal".
MARGINAL_BAND = 0.02

#: The eigensolve stops when successive Rayleigh quotients agree to this
#: relative tolerance, and raises NonConvergence after MAX_STEPS.  It
#: converges linearly, so it stops up to about STOP_TOL short of the
#: eigenvalue: 1e-12 keeps that below the reports' 12 significant digits.
STOP_TOL = 1e-12
MAX_STEPS = 500


#: Levels up to this one are preconditioned by their own factor; each finer
#: level by a V-cycle down to it.  A level-3 cap has at most 177 interior vertices:
#: 1 + the sum over rings i = 1..7 of max(3, rint(16 pi sin(i s / 8) / s)) at scaled radius s.
BASE_LEVEL = 3

#: The most unknowns a problem with no coarser level may have: its inverse is dense.
MAX_FACTORED = 2048


class SpectralProblem:
    """Dirichlet-reduced generalized eigenproblem (stiffness, mass).

    stiffness is the full stiffness restricted to the mesh's interior
    vertices, in ascending order, and mass their lumped masses in that
    order.  A level of a ring hierarchy links to the next coarser level's
    problem, and prolongation, an ELL matrix like the stiffness, interpolates
    that level's interior values to this one's; its transposed product
    restricts a residual.
    """

    def __init__(self, stiffness: Ell, mass: np.ndarray, coarser: SpectralProblem | None = None,
                 prolongation: Ell | None = None) -> None:
        self.stiffness, self.mass, self.coarser, self.prolongation = stiffness, mass, coarser, prolongation

    @cached_property
    def _inverse(self) -> np.ndarray:
        """The dense K^-1 = L^-T L^-1 of a base level, from the Cholesky factor K = L L^T."""
        if (n := self.stiffness.shape[0]) > MAX_FACTORED:
            raise MeshError(f"a problem of {n} unknowns needs a coarser level: at most {MAX_FACTORED} are factored")
        try:
            inverse_factor = np.linalg.inv(np.linalg.cholesky(self.stiffness.toarray()))
        except np.linalg.LinAlgError as exc:  # "Matrix is not positive definite"
            raise MeshError(f"the Dirichlet stiffness cannot be factored: {exc}") from None
        return inverse_factor.T @ inverse_factor

    @cached_property
    def _smoother(self) -> np.ndarray:
        """Damped Jacobi weights 4 / (3 g) / K_ii, with g >= the spectral radius of D^-1 K."""
        diagonal = self.stiffness.diagonal()
        gershgorin = float(np.max(np.abs(self.stiffness.values).sum(axis=0) / diagonal))
        return 4.0 / (3.0 * gershgorin) / diagonal

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """An SPD approximation of K^-1 r: the factor's inverse, or one V-cycle.

        The V-cycle smooths with damped Jacobi before and after the coarse
        correction.  Its weight keeps omega * rho(D^-1 K) <= 4/3 < 2, so the
        smoother contracts in the energy norm and the cycle stays symmetric
        positive definite where cotangent weights are negative.
        """
        if self.coarser is None:
            return self._inverse @ r
        K, weight = self.stiffness, self._smoother
        e = weight * r
        e += self.prolongation @ self.coarser.precondition(self.prolongation.rmatvec(r - K @ e))
        return e + weight * (r - K @ e)


def assemble_stability(mesh: TriMesh) -> SpectralProblem:
    """Assemble the Dirichlet stiffness and lumped mass of the cap.

    An edge's weight is the sum of the half-cotangents of the corners
    opposite it, so the stiffness is symmetric and annihilates constants
    by construction.
    """
    # One distance per undirected edge, scattered to the faces' corners: ambient_distance
    # is exactly symmetric in its two points.  Entry i of a face lies opposite corner i.
    lengths = mesh.edge_lengths[mesh.face_edges]
    areas = triangle_areas(lengths)  # Heron areas of the intrinsic triangles
    mean_area = areas.mean()
    if not (0.0 < mean_area < math.inf and np.all(areas >= DEGENERATE_AREA_FRACTION * mean_area)):
        raise MeshError("degenerate triangle in mesh (area below 1e-14 of mean, or not finite)")
    nv = mesh.num_vertices
    idx = require_interior(mesh)
    mass = np.bincount(mesh.faces.T.ravel(), np.tile(areas / 3.0, 3), minlength=nv)[idx]
    l2 = lengths.T**2  # one row per corner
    del lengths
    i = np.arange(3)
    j, k = (i + 1) % 3, (i + 2) % 3
    # Half-cotangent of the angle at corner i, weighting the edge opposite it.
    half_cot = (l2[j] + l2[k] - l2[i]) / (8.0 * areas)
    weight = np.bincount(mesh.face_edges.T.ravel(), half_cot.ravel(), minlength=len(mesh.edges))
    del l2, half_cot  # each temporary is released once spent, to keep the peak low
    diagonal = np.bincount(mesh.edges.ravel(), np.repeat(weight, 2), minlength=nv)

    position = np.full(nv, -1, dtype=np.int32)
    position[idx] = np.arange(idx.size)
    a, b = position[mesh.edges].T
    inner = (a >= 0) & (b >= 0)
    a, b, off = a[inner], b[inner], -weight[inner]  # edges (a, b), a < b, sorted
    by_b = np.cumsum(inner, dtype=np.int32)[mesh.by_hi[inner[mesh.by_hi]]]  # the stable order by b, from 1
    by_b -= 1
    del weight, inner, position
    # Row i holds its edges (k, i) by k, its diagonal, then its edges (i, k) by k, and is
    # padded with its own index at weight 0.  Slot s of row i is item s n + i of the flat arrays.
    n = idx.size
    below, above = np.bincount(b, minlength=n), np.bincount(a, minlength=n)
    columns = np.tile(np.arange(n, dtype=np.int32), (int((below + above).max()) + 1, 1))
    values = np.zeros(columns.shape)
    flat_columns, flat_values = columns.reshape(-1), values.reshape(-1)
    flat_values[below * n + np.arange(n)] = diagonal[idx]
    del diagonal
    # Edge e = (a, b) is entry e - start[a] of row a after its diagonal, and entry
    # rank[e] - start[b] of row b, where rank orders the edges by b, then a.
    e = np.arange(a.size)
    at = (below + 1 - (np.cumsum(above) - above))[a] + e  # its slot in row a
    at *= n
    at += a
    flat_columns[at], flat_values[at] = b, off
    at[by_b] = e
    del e, by_b
    at -= (np.cumsum(below) - below)[b]  # its slot in row b
    at *= n
    at += b
    flat_columns[at], flat_values[at] = a, off
    stiffness = Ell(columns, values, n)
    return SpectralProblem(stiffness=stiffness, mass=mass)


def lambda1_dirichlet(problem: SpectralProblem, shift: float, start: np.ndarray) -> float:
    """Smallest generalized eigenvalue of (stiffness + shift * mass, mass).

    Preconditioned inverse iteration on (stiffness, mass) (Knyazev &
    Neymeyr, Linear Algebra Appl. 358, 2003) from the vector start, one
    entry per interior vertex: each step subtracts the preconditioned
    residual, x <- x - B (K x - theta M x) with B = problem.precondition,
    and takes the Rayleigh quotient theta of the M-normalised result.  It
    converges wherever ||I - B K||_K < 1, as the V-cycle keeps it.  Stops
    when successive Rayleigh quotients of the operator agree to STOP_TOL
    relatively, against at least max(1, |shift|).
    """
    K = problem.stiffness
    m = problem.mass
    scale = max(1.0, abs(shift))
    # M-normalised: unnormalised, M x can under- or overflow.
    x = start / math.sqrt(float(start @ (m * start)))
    Kx = K @ x
    theta = float(x @ Kx)  # the Rayleigh quotient of (stiffness, mass)
    for _ in range(MAX_STEPS):
        x = x - problem.precondition(Kx - theta * (m * x))
        x /= math.sqrt(float(x @ (m * x)))
        Kx = K @ x
        previous, theta = theta, float(x @ Kx)
        if abs(theta - previous) <= STOP_TOL * max(abs(theta + shift), scale):
            return theta + shift
    raise NonConvergence(f"preconditioned inverse iteration did not converge in {MAX_STEPS} steps")


class LevelResult(NamedTuple):
    """One refinement level of a mesh verification run; its fields are the level columns."""

    level: int
    vertices: int
    max_edge: float
    lambda1: float
    radius: float
    verdict: str  # "stable", "unstable" or "marginal"
    oracle_error: float
    status: str  # "fail" when stable, a bound applies and the radius exceeds it; else "pass"


class ConvergenceReport(NamedTuple):
    """Mesh-vs-oracle comparison across refinement levels."""

    oracle_lambda1: float
    c_best: float | None
    levels: list[LevelResult]
    convergence_order: float | None  # None with a single level
    agrees_with_oracle: bool
    finest_mesh: MeshArrays  # vertices and faces of the last level, for the export


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
    oracle = lambda1_ball(2, c, rho) - q
    # The eigensolve starts from the cap's eigenfunction, read at each interior vertex's
    # ring.  Level l's rings lie at the fractions k / 2**l, every 2**(top - l)-th one of the
    # finest level's, so one profile at the finest level serves all of them exactly.
    top = max(levels)
    profile = np.array(radial_profile(2, c, rho, (np.arange(2**top) / 2**top).tolist()))

    # Every level from the base up is built, so that each finer one has its
    # V-cycle; a problem is kept as the next one's coarser level, its mesh is not.
    # A mesh's topology is released once the row's mesh columns and the assembly
    # have read it, before the prolongation and the eigensolve.
    results, problem = [], None
    for level in range(min(BASE_LEVEL, *levels), top + 1):
        m = None  # released before the next mesh is built
        m = build_cap_mesh(kappa, H, rho, level)
        if level in levels:
            vertices, max_edge, radius = m.num_vertices, float(m.edge_lengths.max()), intrinsic_radius(m)
        coarser, problem = problem, assemble_stability(m)
        m = MeshArrays(m.vertices, m.faces)  # the finest level's are the export's
        if level > BASE_LEVEL:
            problem.coarser, problem.prolongation = coarser, prolongation(kappa, H, rho, level)
        if level not in levels:
            continue
        start = profile[::2 ** (top - level)][interior_rings(kappa, H, rho, level)]
        lam = lambda1_dirichlet(problem, -q, start)
        if abs(lam) <= MARGINAL_BAND * q:
            verdict = "marginal"
        elif lam >= -1e-8 * c:
            verdict = "stable"
        else:
            verdict = "unstable"
        fails = verdict == "stable" and c_best is not None and not radius <= c_best * (1.0 + 1e-6)
        results.append(LevelResult(
            level=level, vertices=vertices, max_edge=max_edge, lambda1=lam,
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
