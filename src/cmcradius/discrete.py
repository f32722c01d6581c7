"""Discrete stability operator on triangulated caps.

Cotangent stiffness and lumped mass are built from geodesic edge lengths
(the triangles are treated as intrinsic, via law of cosines and Heron's
formula), read from the mesh's topology record.  The cap's stability
potential is constant, so it only shifts the spectrum of (stiffness,
mass).  The first Dirichlet eigenvalue comes from inverse iteration on
the Dirichlet stiffness, which is factored once by SuperLU in symmetric
mode with diagonal pivots only, after a symmetric permutation to a
geometric nested-dissection order of the cap's pole chart; that order
gives less fill than SuperLU's minimum-degree ordering of A + A^T.
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
    if not (0.0 < mean_area < math.inf and np.all(areas >= DEGENERATE_AREA_FRACTION * mean_area)):
        raise MeshError("degenerate triangle in mesh (area below 1e-14 of mean, or not finite)")
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


#: Vertices per leaf cell of the nested-dissection order, about.
LEAF_SIZE = 16


def pole_chart(mesh: TriMesh, idx: np.ndarray) -> np.ndarray:
    """Azimuthal equidistant chart (phi cos theta, phi sin theta) of vertices idx.

    phi and theta are the polar angle and azimuth of each vertex's model
    direction about the pole axis: model coordinates 0-2, or 1-3 on the
    hyperboloid.  Unlike an ambient projection it does not fold caps that
    pass the equator.
    """
    v = mesh.vertices[idx]
    d = v[:, 1:4] if mesh.kappa < 0.0 else v[:, 0:3]
    phi = np.arctan2(np.hypot(d[:, 0], d[:, 1]), d[:, 2])
    theta = np.arctan2(d[:, 1], d[:, 0])
    return np.stack([phi * np.cos(theta), phi * np.sin(theta)], axis=1)


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
    """Dirichlet-reduced generalized eigenproblem for the stability operator.

    stiffness and mass are restricted to interior vertices.  The cap
    potential is constant, so the potential term is shift * mass with
    shift = -(1-delta) * potential, and the eigenvalues are those of
    (stiffness, mass) plus shift.  order is the nested-dissection
    elimination order of the interior vertices.
    """

    stiffness: csc_matrix
    mass: csc_matrix
    shift: float
    order: np.ndarray
    interior: np.ndarray
    num_total: int


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
    idx = mesh.interior
    if idx.size == 0:
        raise MeshError("no interior vertices")
    potential = mesh.potential[idx]
    if potential.min() != potential.max():
        raise MeshError("stability potential is not constant on the interior")
    position = np.full(mesh.num_vertices, -1)
    position[idx] = np.arange(idx.size)
    edges = position[mesh.topology.edges]
    edges = edges[(edges >= 0).all(axis=1)]
    return SpectralProblem(
        stiffness=K[np.ix_(idx, idx)].tocsc(),
        mass=diags(m[idx]).tocsc(),
        shift=-(1.0 - delta) * float(potential[0]),
        order=nested_dissection(pole_chart(mesh, idx), edges),
        interior=idx,
        num_total=mesh.num_vertices,
    )


def lambda1_dirichlet(problem: SpectralProblem, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Smallest generalized eigenvalue of (stiffness + shift * mass, mass).

    Inverse iteration on (stiffness, mass): the Dirichlet stiffness is
    symmetric positive definite, so it is factored once, symmetrically
    permuted to the nested-dissection order, with diagonal pivots only.
    Stops when successive Rayleigh quotients of the operator agree to tol
    relatively, against at least max(1, |shift|).
    """
    K = problem.stiffness
    m_diag = problem.mass.diagonal()
    shift = problem.shift
    scale = max(1.0, abs(shift))
    p = problem.order
    lu = splu(
        K[p][:, p],
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )

    x = np.ones(K.shape[0])
    x /= math.sqrt(float(x @ (m_diag * x)))
    rayleigh = float(x @ (K @ x)) + shift
    for _ in range(max_iter):
        y = np.empty_like(x)
        y[p] = lu.solve((m_diag * x)[p])
        y /= math.sqrt(float(y @ (m_diag * y)))
        new_rayleigh = float(y @ (K @ y)) / float(y @ (m_diag * y)) + shift
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
    S_inf = space_form_scalar_bound(kappa)
    c = geom.c_int
    q = 2.0 * (1.0 - delta) * c
    oracle = lambda1_ball(2, c, rho) - q

    c_best: float | None
    try:
        result = bounds.best_bound(bounds.BoundInput(n=2, delta=delta, H=H, K_inf=kappa, S_inf=S_inf))
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
