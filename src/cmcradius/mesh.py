"""Triangulated geodesic caps on umbilic spheres (the n = 2 mesh path).

Vertices live in the ambient model: Euclidean 3-space for kappa = 0, the
hyperboloid in Minkowski 4-space for kappa < 0, the round 3-sphere in
Euclidean 4-space for kappa > 0.  Edge lengths are exact ambient geodesic
distances between vertices, which approximate the intrinsic cap metric to
second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import MeshError
from .spaceforms import SphereGeometry, sphere_from_H

MODEL_CONSTRAINT_TOL = 1e-10


@dataclass
class TriMesh:
    """Triangulated disk with per-vertex boundary flags and stability potential."""

    vertices: np.ndarray  # (nv, 3) for kappa = 0, (nv, 4) otherwise
    faces: np.ndarray  # (nf, 3) int
    boundary: np.ndarray  # (nv,) bool
    potential: np.ndarray  # (nv,) |A|^2 + Ric(nu), before the (1-delta) factor
    kappa: float
    geometry: SphereGeometry | None = None
    rho: float | None = None
    level: int | None = None

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)

    @cached_property
    def topology(self) -> MeshTopology:
        """Edges, orientation, lengths and areas, derived once from faces and vertices.

        Computed on first use, so faces and vertices must not change after
        it.  Boundary flags are not part of it: they are read live.
        """
        return MeshTopology.of(self)


@dataclass(frozen=True)
class MeshTopology:
    """Per-mesh quantities that the topology check, assembly and Dijkstra share."""

    edges: np.ndarray  # (ne, 2) undirected edges i < j, in lexicographic order
    edge_faces: np.ndarray  # (ne,) number of faces containing each edge
    edge_lengths: np.ndarray  # (ne,) geodesic length of each edge
    oriented: bool  # no directed edge appears in two faces
    face_lengths: np.ndarray  # (nf, 3) geodesic lengths, entry i opposite corner i
    areas: np.ndarray  # (nf,) Heron areas of the intrinsic triangles

    @classmethod
    def of(cls, mesh: TriMesh) -> MeshTopology:
        f = mesh.faces
        nv = mesh.num_vertices
        # Half-edge i of a face runs from corner i+1 to corner i+2, opposite corner i.
        tails = f[:, [1, 2, 0]].T.ravel()
        heads = f[:, [2, 0, 1]].T.ravel()
        # Key (min * nv + max) sorts like the (min, max) rows; the low bit keeps the direction.
        key = (np.minimum(tails, heads) * nv + np.maximum(tails, heads)) * 2 + (tails > heads)
        order = np.argsort(key)
        key = key[order]
        undirected = key >> 1
        starts = np.concatenate([[True], undirected[1:] != undirected[:-1]])
        first = np.flatnonzero(starts)
        edge_keys = undirected[first]
        edges = np.stack([edge_keys // nv, edge_keys % nv], axis=1)
        v = mesh.vertices
        edge_lengths = ambient_distance(mesh.kappa, v[edges[:, 0]], v[edges[:, 1]])
        # One distance per undirected edge, scattered back to its half-edges:
        # ambient_distance is exactly symmetric in its two points.
        edge_of_half_edge = np.empty(key.size, dtype=np.int64)
        edge_of_half_edge[order] = np.cumsum(starts) - 1
        face_lengths = edge_lengths[edge_of_half_edge].reshape(3, -1).T
        return cls(
            edges=edges,
            edge_faces=np.diff(np.append(first, key.size)),
            edge_lengths=edge_lengths,
            oriented=not np.any(key[1:] == key[:-1]),
            face_lengths=face_lengths,
            areas=triangle_areas(face_lengths),
        )


def ambient_distance(kappa: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Geodesic distance in the ambient space form between model points."""
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    if kappa == 0.0:
        return np.linalg.norm(p - q, axis=-1)
    if kappa < 0.0:
        # Minkowski signature (-, +, +, +): <x, x> = 1/kappa on the hyperboloid.
        inner = -p[:, 0] * q[:, 0] + np.sum(p[:, 1:] * q[:, 1:], axis=-1)
        ch = np.clip(-inner * (-kappa), 1.0, None)
        return np.arccosh(ch) / math.sqrt(-kappa)
    cos = np.clip(np.sum(p * q, axis=-1) * kappa, -1.0, 1.0)
    return np.arccos(cos) / math.sqrt(kappa)


def _model_points(kappa: float, r_ambient: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Points of the geodesic r-sphere at polar angle phi, azimuth theta."""
    u = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    )
    if kappa == 0.0:
        return r_ambient * u
    if kappa < 0.0:
        sq = math.sqrt(-kappa)
        a = sq * r_ambient
        out = np.empty((u.shape[0], 4))
        out[:, 0] = math.cosh(a) / sq
        out[:, 1:] = math.sinh(a) / sq * u
        return out
    sq = math.sqrt(kappa)
    a = sq * r_ambient
    out = np.empty((u.shape[0], 4))
    out[:, :3] = math.sin(a) / sq * u
    out[:, 3] = math.cos(a) / sq
    return out


def _zip_rings(
    inner: np.ndarray, inner_ang: np.ndarray, outer: np.ndarray, outer_ang: np.ndarray
) -> np.ndarray:
    """Triangulate the band between two concentric vertex rings.

    Walks both rings by angle: each step advances the ring whose next
    vertex (the first one wrapped to 2 pi) comes first, the inner ring on
    ties, which is a stable merge of the two angle lists.  Orientation
    keeps the disk interior on the left of every directed edge
    (consistent CCW faces).
    """
    na, nb = len(inner), len(outer)
    ahead = np.concatenate([inner_ang[1:], [inner_ang[0] + 2.0 * math.pi],
                            outer_ang[1:], [outer_ang[0] + 2.0 * math.pi]])
    step_a = np.argsort(ahead, kind="stable") < na
    ia = np.cumsum(step_a) - step_a  # inner vertices passed before each step
    ib = np.arange(na + nb) - ia
    a0, a1 = inner[ia % na], inner[(ia + 1) % na]
    b0, b1 = outer[ib % nb], outer[(ib + 1) % nb]
    return np.where(step_a[:, None], np.stack([a1, a0, b0], axis=1), np.stack([b0, b1, a0], axis=1))


def build_cap_mesh(kappa: float, H: float, rho: float, level: int) -> TriMesh:
    """Concentric-ring triangulation of the intrinsic geodesic cap of radius rho.

    level sets the resolution: 2**level rings, azimuthal counts scaled to
    the ring circumference so triangles stay near-equilateral.
    """
    if level < 0:
        raise MeshError(f"level must be nonnegative, got {level}")
    geom = sphere_from_H(2, kappa, H)
    c = geom.c_int
    full = math.pi / math.sqrt(c)
    if not 0.0 < rho < full:
        raise MeshError(f"cap radius must lie in (0, {full}), got {rho}")
    r_int = 1.0 / math.sqrt(c)  # intrinsic sphere radius
    rings = 2**level
    h = rho / rings

    phis = [0.0]
    thetas = [0.0]
    ring_indices: list[np.ndarray] = []
    ring_angles: list[np.ndarray] = []
    next_index = 1
    for i in range(1, rings + 1):
        s = i * h
        phi = s / r_int
        circumference = 2.0 * math.pi * r_int * math.sin(phi)
        count = max(3, int(round(circumference / h)))
        ang = 2.0 * math.pi * np.arange(count) / count
        phis.extend([phi] * count)
        thetas.extend(ang.tolist())
        ring_indices.append(np.arange(next_index, next_index + count))
        ring_angles.append(ang)
        next_index += count

    vertices = _model_points(
        kappa, geom.r_ambient, np.asarray(phis), np.asarray(thetas)
    )

    first = ring_indices[0]
    fan = np.stack([first, np.roll(first, -1), np.zeros_like(first)], axis=1)
    strips = [
        _zip_rings(ring_indices[i - 1], ring_angles[i - 1], ring_indices[i], ring_angles[i])
        for i in range(1, rings)
    ]
    faces_arr = np.concatenate([fan, *strips]).astype(np.int64, copy=False)
    boundary = np.zeros(next_index, dtype=bool)
    boundary[ring_indices[-1]] = True
    potential = np.full(next_index, geom.normA2 + geom.ric_nu)
    mesh = TriMesh(
        vertices=vertices,
        faces=faces_arr,
        boundary=boundary,
        potential=potential,
        kappa=kappa,
        geometry=geom,
        rho=rho,
        level=level,
    )
    _check_topology(mesh)
    return mesh


def _check_topology(mesh: TriMesh) -> None:
    topo = mesh.topology
    edges, counts = topo.edges, topo.edge_faces
    if counts.max(initial=0) > 2:
        raise MeshError("a mesh edge belongs to more than two faces")
    v = mesh.num_vertices
    f = mesh.num_faces
    if v - len(edges) + f != 1:
        raise MeshError(f"not a disk: Euler characteristic {v - len(edges) + f}")
    boundary_verts = np.unique(edges[counts == 1])
    flagged = np.flatnonzero(mesh.boundary)
    if not np.array_equal(boundary_verts, flagged):
        raise MeshError("boundary flags do not match the topological boundary")
    # Orientation consistency: every interior edge appears once per direction.
    if not topo.oriented:
        raise MeshError("inconsistent face orientation")


def model_constraint_residual(mesh: TriMesh) -> float:
    """Max deviation of vertices from the ambient model constraint."""
    v = mesh.vertices
    if mesh.kappa == 0.0:
        if mesh.geometry is None:
            return 0.0
        return float(np.abs(np.linalg.norm(v, axis=1) - mesh.geometry.r_ambient).max())
    if mesh.kappa < 0.0:
        norm = -v[:, 0] ** 2 + np.sum(v[:, 1:] ** 2, axis=1)
        return float(np.abs(norm - 1.0 / mesh.kappa).max())
    norm = np.sum(v**2, axis=1)
    return float(np.abs(norm - 1.0 / mesh.kappa).max())


def triangle_areas(lengths: np.ndarray) -> np.ndarray:
    """Heron areas from per-face edge lengths (nf, 3)."""
    a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    return np.sqrt(np.clip(val, 0.0, None))


def edge_graph(mesh: TriMesh) -> csr_matrix:
    """Sparse symmetric graph of mesh edges weighted by geodesic length."""
    topo = mesh.topology
    edges, d = topo.edges, topo.edge_lengths
    n = mesh.num_vertices
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return csr_matrix((np.concatenate([d, d]), (rows, cols)), shape=(n, n))


def intrinsic_radius(mesh: TriMesh) -> float:
    """Max over interior vertices of the edge-path distance to the boundary.

    Dijkstra over geodesic edge lengths; overestimates the smooth
    intrinsic radius by the mesh anisotropy factor.
    """
    sources = np.flatnonzero(mesh.boundary)
    if sources.size == 0:
        raise MeshError("mesh has no boundary")
    g = edge_graph(mesh)
    dist = dijkstra(g, directed=False, indices=sources, min_only=True)
    return float(dist[mesh.interior].max())


#: Rows formatted per write in save_mesh; bounds the text held in memory.
SAVE_CHUNK_ROWS = 4096


def _write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write `line % row` for every row, a chunk of rows per formatting call."""
    for start in range(0, rows.shape[0], SAVE_CHUNK_ROWS):
        chunk = rows[start : start + SAVE_CHUNK_ROWS]
        fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def save_mesh(mesh: TriMesh, path: str) -> None:
    """Plain-text polygon export: vertex lines, then 1-indexed face lines."""
    with open(path, "w") as fh:
        _write_rows(fh, "v" + " %.17g" * mesh.vertices.shape[1] + "\n", mesh.vertices)
        _write_rows(fh, "f %d %d %d\n", mesh.faces + 1)
