"""Closed forms that the tests check the program against; no command reads them.

Each keeps the input checks it had in the package, so the fuzz of
`tests/test_bound_properties.py` holds them to the same contract: a finite
value, or a `CmcRadiusError`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from cmcradius import bounds
from cmcradius.algebra import TracelessMatrix, traceless_part
from cmcradius.errors import HypothesisViolation, PreconditionViolation
from cmcradius.mesh import TriMesh, interior_rings
from cmcradius.report import SweepReport, format_number
from cmcradius.spaceforms import intrinsic_curvature


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


def coeff_B(n: int, k: float, delta: float, H: float, K_inf: float) -> float:
    """Potential-side coefficient B; may be nonpositive (callers gate on sign).

    B = (kn(1-d) - n^2 + 5n - 5) H^2 + (kn(1-d) + n - 1) min(0, K_inf);
    the curvature term drops out automatically when K_inf >= 0.
    """
    bounds._check_dimension(n)
    bounds.check_delta(delta)
    p = k * n * (1.0 - delta)
    curvature = min(0.0, bounds._finite("K_inf", K_inf))
    return bounds._finite("B", (p - n * n + 5 * n - 5) * H * H + (p + n - 1) * curvature)


def radius_bound_fixed_k(inp: bounds.BoundInput, k: float) -> bounds.BoundResult:
    """Distance bound at a caller-chosen admissible k (sectional-curvature route).

    Its hypotheses are checked here, apart from `bounds.radius_bound`: k
    strictly inside 5(n-1)/(4n(1-delta)) < k < 4/(n-1), |H| above
    2 sqrt(|min(0, K)|), B > 0 and a representable c.  The message names
    every hypothesis that fails.
    """
    n = inp.n
    lo, hi = Fraction(5 * (n - 1), 4 * n) / (1 - Fraction(inp.delta)), Fraction(4, n - 1)
    problems = []
    if not lo < bounds._finite("k", k) < hi:
        problems.append(f"k={k} is not strictly inside ({lo}, {hi})")
    threshold = 2.0 * math.sqrt(abs(min(0.0, inp.K_inf)))
    if not abs(inp.H) > threshold:
        problems.append(f"|H|={abs(inp.H)} does not exceed the threshold {threshold}")
    A = coeff_A(n, k) if k < float(hi) else math.nan
    B = coeff_B(n, k, inp.delta, inp.H, inp.K_inf)
    if not B > 0.0:
        problems.append(f"B={B} is not positive")
    if problems:
        raise HypothesisViolation("; ".join(problems))
    c = math.pi * math.sqrt(A / B)
    if not 0.0 < c < math.inf:
        raise HypothesisViolation(f"c = pi*sqrt(A/B) = {c} with A={A}, B={B} is out of float range")
    return bounds.BoundResult(k_star=k, A=A, B=B, c=c, source="sectional")


def random_traceless(n: int, rng: np.random.Generator, scale: float = 1.0) -> TracelessMatrix:
    """Random symmetric n x n matrix with the trace projected out."""
    return TracelessMatrix(n, traceless_part(rng.normal(0.0, scale, size=(n, n))))


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
    return bounds._finite("eigenvalue", -n * (1.0 - delta) * intrinsic_curvature(kappa, H))


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


def model_constraint_residual(mesh: TriMesh, kappa: float) -> float:
    """Max deviation of the vertices of a mesh with kappa != 0 from the
    quadric <v, v> = 1/kappa of the space form's model."""
    v = mesh.vertices
    if kappa < 0.0:
        norm = -v[:, 0] ** 2 + np.sum(v[:, 1:] ** 2, axis=1)
        return float(np.abs(norm - 1.0 / kappa).max())
    norm = np.sum(v**2, axis=1)
    return float(np.abs(norm - 1.0 / kappa).max())


def polar_angles(mesh: TriMesh, kappa: float) -> np.ndarray:
    """Polar angle of every vertex of a cap mesh, from its model coordinates alone.

    The angle between the vertex's model direction (coordinates 0-2, or 1-3
    on the hyperboloid) and the pole's, (0, 0, 1); it reads nothing of the
    ring layout.  Ring i of a level-l cap of scaled radius s lies at i s / 2**l.
    """
    d = mesh.vertices[:, 1:4] if kappa < 0.0 else mesh.vertices[:, :3]
    return np.arctan2(np.hypot(d[:, 0], d[:, 1]), d[:, 2])


def export_text(mesh: TriMesh) -> str:
    """The bytes `save_mesh` must write: one "v" line per vertex with every
    coordinate formatted by %.17g, then one 1-indexed "f" line per face."""
    k = mesh.vertices.shape[1]
    lines = [("v" + " %.17g" * k) % tuple(row) for row in mesh.vertices.tolist()]
    lines += ["f %d %d %d" % tuple(face) for face in (mesh.faces + 1).tolist()]
    return "".join(line + "\n" for line in lines)


def naive_topology(faces: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """edges, face_edges, boundary and interior of a mesh from one np.unique over
    its sorted face edges: the arrays `TriMesh` must derive, values and dtypes.

    Entry i of a face's edges is the edge opposite corner i; a boundary vertex
    lies on an edge of one face only.
    """
    f = np.asarray(faces, dtype=np.int64)
    ends = np.sort(f[:, [[1, 2], [2, 0], [0, 1]]], axis=2).reshape(-1, 2)
    edges, inverse, counts = np.unique(ends, axis=0, return_inverse=True, return_counts=True)
    boundary = np.unique(edges[counts == 1])
    return edges, inverse.reshape(-1, 3), boundary, np.setdiff1d(np.arange(nv), boundary)


def row_gather_edge_lengths(mesh: TriMesh, kappa: float) -> np.ndarray:
    """Geodesic edge lengths from the (ne, k) rows of both ends of every edge,
    with np.linalg.norm and np.sum over each row: the lengths `TriMesh`
    must give bit for bit."""
    d = mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]]
    if kappa == 0.0:
        return np.linalg.norm(d, axis=-1)
    sq = math.sqrt(abs(kappa))
    if kappa < 0.0:
        half = 0.5 * sq * np.sqrt(np.clip(np.sum(d[:, 1:] ** 2, axis=-1) - d[:, 0] ** 2, 0.0, None))
        return 2.0 * np.arcsinh(half) / sq
    half = 0.5 * sq * np.linalg.norm(d, axis=-1)
    return 2.0 * np.arcsin(np.clip(half, None, 1.0)) / sq


def dijkstra_radius(mesh: TriMesh) -> float:
    """The max over interior vertices of scipy's Dijkstra distance to the boundary:
    the value `intrinsic_radius` must give bit for bit."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = mesh.num_vertices
    graph = csr_matrix((mesh.edge_lengths, mesh.edges.T), shape=(n, n))
    return float(dijkstra(graph, directed=False, indices=mesh.boundary, min_only=True)[mesh.interior].max())


def coo_prolongation(kappa: float, H: float, rho: float, level: int):
    """`prolongation` built from COO triplets, four per fine vertex, that scipy sums:
    the CSR arrays `prolongation` must fill, explicit zeros and dtypes included."""
    from scipy.sparse import csr_matrix

    ring = interior_rings(kappa, H, rho, level)
    fine, coarse = np.bincount(ring), np.bincount(interior_rings(kappa, H, rho, level - 1))
    k = np.arange(ring.size) - (np.cumsum(fine) - fine)[ring]
    first = np.cumsum(coarse) - coarse
    rows, cols, weights = [], [], []
    for j in (ring // 2, (ring + 1) // 2):  # the same coarse ring twice for an even ring
        v = np.flatnonzero(j < coarse.size)
        j, n, m = j[v], coarse[j[v]], fine[ring[v]]
        a, part = np.divmod(k[v] * n, m)
        frac = part / m
        for at, weight in ((a % n, 0.5 - 0.5 * frac), ((a + 1) % n, 0.5 * frac)):
            rows.append(v)
            cols.append(first[j] + at)
            weights.append(weight)
    triplets = np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))
    return csr_matrix(triplets, shape=(ring.size, coarse.sum()))


def parse_report_json(text: str) -> SweepReport:
    """Inverse of emit_report(fmt='json'), used by round-trip tests."""
    doc = json.loads(text)
    return SweepReport(kind=doc["kind"], rows=doc["rows"], metadata=doc["metadata"])


def report_json(report: SweepReport) -> str:
    """The bytes `emit_report(report, "json")` must give: `json.dumps(indent=2)`
    of the document with every value rounded by `format_number`."""
    doc = {
        "kind": report.kind,
        "metadata": {k: format_number(v) for k, v in report.metadata.items()},
        "rows": [{k: format_number(v) for k, v in r.items()} for r in report.rows],
        "summary": report.summary,
    }
    return json.dumps(doc, indent=2) + "\n"


def _report_cells(report: SweepReport) -> list[list[str]]:
    """Each row's values, rounded by `format_number` one by one and printed by `str` ("" for None)."""
    return [["" if v is None else str(format_number(v)) for v in r.values()] for r in report.rows]


def report_csv(report: SweepReport) -> str:
    """The bytes `emit_report(report, "csv")` must give: the first row's keys,
    then every row's cells, through `csv.writer`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(report.rows[0]) if report.rows else [])
    writer.writerows(_report_cells(report))
    return out.getvalue()


def report_table(report: SweepReport) -> str:
    """The bytes `emit_report(report, "table")` must give: the first row's keys,
    then every row's cells, each padded to its column's widest cell and two
    spaces apart, then the summary line."""
    cols = list(report.rows[0]) if report.rows else []
    cells = _report_cells(report)
    widths = [max(map(len, column)) for column in zip(cols, *cells)]
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in [cols, *cells]]
    s = report.summary
    lines += ["", f"pass={s['pass']} fail={s['fail']} not-applicable={s['not_applicable']}"]
    return "\n".join(lines) + "\n"


def ell_entries(matrix) -> np.ndarray:
    """Which slots of an `Ell` hold its entries: each row's leading slots whose
    columns ascend strictly.  The slots after them are its padding."""
    return np.logical_and.accumulate(np.diff(matrix.columns, axis=0, prepend=-1) > 0, axis=0)


def ell_to_scipy(matrix, layout: str = "csr"):
    """The entries of an `Ell` as a scipy CSR or CSC matrix, its padding dropped."""
    from scipy.sparse import csr_matrix

    entries = ell_entries(matrix).T
    indptr = np.append(0, np.cumsum(entries.sum(axis=1)))
    csr = csr_matrix((matrix.values.T[entries], matrix.columns.T[entries], indptr), shape=matrix.shape)
    return csr if layout == "csr" else csr.tocsc()
