"""Discrete stability operator on triangulated caps.

Cotangent stiffness and lumped mass are built from geodesic edge lengths
(the triangles are treated as intrinsic, via law of cosines and Heron's
formula), as the mesh derives them.  Each undirected edge
gets one weight (cot a + cot b) / 2 and a vertex's diagonal entry is the
sum of its edge weights (Pinkall & Polthier, Experiment. Math. 2, 1993).
The cap's stability potential is constant, so it only shifts the
spectrum of (stiffness, mass).  Only the Dirichlet block is built, and
directly in a geometric nested-dissection elimination order of the
cap's pole chart, which gives less fill than SuperLU's minimum-degree
ordering of A + A^T.  Its first eigenvalue comes from inverse iteration
on the Dirichlet stiffness, factored once by SuperLU in symmetric mode
with diagonal pivots only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import MeshError, NonConvergence
from .mesh import MAX_LEVEL, TriMesh, build_cap_mesh, intrinsic_radius, pole_chart
from .spaceforms import lambda1_ball, sphere_from_H, verify_cap_bound

DEGENERATE_AREA_FRACTION = 1e-14

#: Relative band (against the potential q) in which a verdict is "marginal".
MARGINAL_BAND = 0.02

#: Inverse iteration stops when successive Rayleigh quotients agree to this
#: relative tolerance, and raises NonConvergence after MAX_INVERSE_STEPS.
STOP_TOL = 1e-10
MAX_INVERSE_STEPS = 500


#: Vertices per leaf cell of the nested-dissection order, about.
LEAF_SIZE = 16


def nested_dissection(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order of a mesh graph by geometric nested dissection.

    The points' bounding box is bisected at midpoints, widest side first,
    ceil(log2(n / LEAF_SIZE)) times; every cell of a depth has the same
    shape, so one cut axis per depth gives each vertex an integer code of
    cell bits.  Where the codes of an edge first differ at depth d and
    neither endpoint already separates a shallower cell, the endpoint on
    side 0 becomes a separator at depth d.  A base-3 post-order key (left
    cell, right cell, separator) then orders every cell's separator after
    both halves (George, SIAM J. Numer. Anal. 10, 1973).
    """
    n = points.shape[0]
    depth = ((n - 1) // LEAF_SIZE).bit_length()
    rel = (points - points.min(axis=0)).T.copy()  # one contiguous row per axis
    width = rel.max(axis=1)
    origin = np.zeros_like(rel)
    code = np.zeros(n, dtype=np.int64)
    for _ in range(depth):
        a = int(np.argmax(width))
        width[a] *= 0.5
        upper = rel[a] >= origin[a] + width[a]
        origin[a] += width[a] * upper
        code = 2 * code + upper

    i, j = edges[:, 0], edges[:, 1]
    ci, cj = code[i], code[j]
    # Depth of the first differing bit; depth itself where the codes agree.
    cut_depth = depth - np.frexp((ci ^ cj).astype(float))[1]
    cut = np.flatnonzero(cut_depth < depth)
    cut = cut[np.argsort(cut_depth[cut], kind="stable")]
    starts = np.searchsorted(cut_depth[cut], np.arange(depth + 1))
    i, j, side0 = i[cut], j[cut], np.where(ci < cj, i, j)[cut]
    sep = np.full(n, depth)
    for d in range(depth):
        at = slice(starts[d], starts[d + 1])
        free = (sep[i[at]] == depth) & (sep[j[at]] == depth)
        sep[side0[at][free]] = d

    key = np.zeros(n, dtype=np.int64)
    for d in range(depth):
        bit = (code >> (depth - 1 - d)) & 1
        key = 3 * key + np.where(sep > d, bit, 2 * (sep == d))
    return np.argsort(key, kind="stable")


@dataclass
class SpectralProblem:
    """Dirichlet-reduced generalized eigenproblem (stiffness, mass).

    interior lists the interior vertices in nested-dissection elimination
    order; stiffness is the full stiffness restricted to them and mass
    their lumped masses, both in that order.
    """

    stiffness: csc_matrix
    mass: np.ndarray
    interior: np.ndarray


def assemble_stability(mesh: TriMesh) -> SpectralProblem:
    """Assemble the Dirichlet stiffness and lumped mass of the cap, in elimination order.

    An edge's weight is the sum of the half-cotangents of the corners
    opposite it, so the stiffness is symmetric and annihilates constants
    by construction.
    """
    areas = mesh.areas
    mean_area = areas.mean()
    if not (0.0 < mean_area < math.inf and np.all(areas >= DEGENERATE_AREA_FRACTION * mean_area)):
        raise MeshError("degenerate triangle in mesh (area below 1e-14 of mean, or not finite)")
    nv = mesh.num_vertices
    l2 = mesh.face_lengths.T**2  # one row per corner
    i = np.arange(3)
    j, k = (i + 1) % 3, (i + 2) % 3
    # Half-cotangent of the angle at corner i, weighting the edge opposite it.
    half_cot = (l2[j] + l2[k] - l2[i]) / (8.0 * areas)
    weight = np.bincount(mesh.face_edges.T.ravel(), half_cot.ravel(), minlength=len(mesh.edges))
    diagonal = np.bincount(mesh.edges.ravel(), np.repeat(weight, 2), minlength=nv)
    mass = np.bincount(mesh.faces.T.ravel(), np.tile(areas / 3.0, 3), minlength=nv)

    idx = mesh.interior
    if idx.size == 0:
        raise MeshError("no interior vertices")
    position = np.full(nv, -1)
    position[idx] = np.arange(idx.size)
    inner = (position[mesh.edges] >= 0).all(axis=1)
    idx = idx[nested_dissection(pole_chart(mesh, idx), position[mesh.edges[inner]])]
    position[idx] = np.arange(idx.size)
    a, b = position[mesh.edges[inner]].T
    n = np.arange(idx.size)
    rows, cols = np.concatenate([a, b, n]), np.concatenate([b, a, n])
    entries = np.concatenate([-weight[inner], -weight[inner], diagonal[idx]])
    stiffness = csc_matrix((entries, (rows, cols)), shape=(n.size, n.size))  # no duplicate entries
    return SpectralProblem(stiffness=stiffness, mass=mass[idx], interior=idx)


def lambda1_dirichlet(problem: SpectralProblem, shift: float) -> float:
    """Smallest generalized eigenvalue of (stiffness + shift * mass, mass).

    Inverse iteration on (stiffness, mass): the Dirichlet stiffness is
    symmetric positive definite and already in elimination order, so it
    is factored once as given, with diagonal pivots only.  Stops when
    successive Rayleigh quotients of the operator agree to STOP_TOL
    relatively, against at least max(1, |shift|).
    """
    K = problem.stiffness
    m = problem.mass
    scale = max(1.0, abs(shift))
    lu = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    x = np.ones(K.shape[0])
    x /= math.sqrt(float(x @ (m * x)))
    rayleigh = float(x @ (K @ x)) + shift
    for _ in range(MAX_INVERSE_STEPS):
        y = lu.solve(m * x)
        norm2 = float(y @ (m * y))
        new_rayleigh = float(y @ (K @ y)) / norm2 + shift
        x = y / math.sqrt(norm2)
        if abs(new_rayleigh - rayleigh) <= STOP_TOL * max(abs(new_rayleigh), scale):
            return new_rayleigh
        rayleigh = new_rayleigh
    raise NonConvergence(f"inverse iteration did not converge in {MAX_INVERSE_STEPS} steps")


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


@dataclass
class ConvergenceReport:
    """Mesh-vs-oracle comparison across refinement levels."""

    oracle_lambda1: float
    c_best: float | None
    levels: list[LevelResult] = field(default_factory=list)
    convergence_order: float | None = None
    agrees_with_oracle: bool = False
    finest_mesh: TriMesh | None = field(default=None, repr=False, compare=False)  # mesh of the last level


def mesh_verify(kappa: float, H: float, rho: float, delta: float, levels: list[int]) -> ConvergenceReport:
    """Discrete stability verdicts and eigenvalue convergence against the closed-form oracle."""
    if not levels or len(set(levels)) < len(levels) or min(levels) < 0 or max(levels) > MAX_LEVEL:
        raise MeshError(f"expected one or more distinct refinement levels in [0, {MAX_LEVEL}], got {levels}")
    c = sphere_from_H(kappa, H).c_int
    q = 2.0 * (1.0 - delta) * c
    c_best = verify_cap_bound(2, kappa, H, delta).c_best
    oracle = lambda1_ball(2, c, rho) - q

    report = ConvergenceReport(oracle_lambda1=oracle, c_best=c_best)
    for level in sorted(levels):
        m = build_cap_mesh(kappa, H, rho, level)
        lam = lambda1_dirichlet(assemble_stability(m), -q)
        radius = intrinsic_radius(m)
        if abs(lam) <= MARGINAL_BAND * q:
            verdict = "marginal"
        elif lam >= -1e-8 * c:
            verdict = "stable"
        else:
            verdict = "unstable"
        fails = verdict == "stable" and c_best is not None and not radius <= c_best * (1.0 + 1e-6)
        report.levels.append(LevelResult(
            level=level, vertices=m.num_vertices, max_edge=float(m.edge_lengths.max()), lambda1=lam,
            radius=radius, verdict=verdict, oracle_error=abs(lam - oracle),
            status="fail" if fails else "pass",
        ))
    report.finest_mesh = m

    if len(report.levels) >= 2:
        hs = np.array([row.max_edge for row in report.levels])
        errs = np.array([max(row.oracle_error, 1e-300) for row in report.levels])
        slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
        report.convergence_order = float(slope)

    finest = report.levels[-1]
    if finest.verdict == "marginal":
        report.agrees_with_oracle = abs(oracle) <= 2.0 * MARGINAL_BAND * q
    else:
        report.agrees_with_oracle = (finest.verdict == "stable") == (oracle >= 0.0)
    return report
