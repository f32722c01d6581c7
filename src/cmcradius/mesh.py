"""Triangulated geodesic caps on umbilic spheres (the n = 2 mesh path).

Vertices live in the ambient model: Euclidean 3-space for kappa = 0, the
hyperboloid in Minkowski 4-space for kappa < 0, the round 3-sphere in
Euclidean 4-space for kappa > 0.  This module owns that column layout.
Edge lengths are exact ambient geodesic distances between vertices,
computed from the model chord so that short edges keep full precision;
they approximate the intrinsic cap metric to second order.  The stability
potential of a cap is constant and is not stored here: the FEM check
applies it as a spectral shift.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import MeshError
from .spaceforms import sphere_from_H


class TriMesh:
    """Triangulated disk, checked and measured once, when it is made.

    vertices are (nv, 3) for kappa = 0 and (nv, 4) otherwise, faces (nf, 3)
    vertex indices.  Raises MeshError unless every face has three distinct
    vertices in range, no edge lies in more than two faces, the Euler
    characteristic is 1 and the faces are consistently oriented.
    """

    def __init__(self, vertices: np.ndarray, faces: np.ndarray, kappa: float):
        v = np.asarray(vertices, dtype=float)
        f = np.asarray(faces)
        if f.ndim != 2 or f.shape[0] == 0 or f.shape[1] != 3 or f.dtype.kind not in "iu":
            raise MeshError(f"faces must be a non-empty (nf, 3) integer array, got {f.dtype} {f.shape}")
        columns = 3 if kappa == 0.0 else 4
        if v.ndim != 2 or v.shape[1] != columns or not np.isfinite(v).all():
            raise MeshError(f"vertices must be finite, {columns} per row for kappa = {kappa}, got {v.shape}")
        nv = v.shape[0]
        if f.min() < 0 or f.max() >= nv:
            raise MeshError(f"face indices must lie in [0, {nv})")
        f = f.astype(np.int64, copy=False)
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])):
            raise MeshError("a face repeats a vertex")
        self.vertices, self.faces, self.kappa = v, f, kappa

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
        edge_faces = np.diff(np.append(first, key.size))
        if edge_faces.max() > 2:
            raise MeshError("a mesh edge belongs to more than two faces")
        if nv - first.size + f.shape[0] != 1:
            raise MeshError(f"not a disk: Euler characteristic {nv - first.size + f.shape[0]}")
        if np.any(key[1:] == key[:-1]):  # a directed edge in two faces
            raise MeshError("inconsistent face orientation")

        self.edges = np.stack([undirected[first] // nv, undirected[first] % nv], axis=1)  # i < j, sorted
        self.boundary = np.unique(self.edges[edge_faces == 1])  # vertices of the edges in one face
        self.interior = np.setdiff1d(np.arange(nv), self.boundary, assume_unique=True)
        self.edge_lengths = ambient_distance(kappa, v[self.edges[:, 0]], v[self.edges[:, 1]])  # geodesic
        edge_of_half_edge = np.empty(key.size, dtype=np.int64)
        edge_of_half_edge[order] = np.cumsum(starts) - 1
        self.face_edges = edge_of_half_edge.reshape(3, -1).T  # entry i opposite corner i
        # One distance per undirected edge, scattered back to the faces:
        # ambient_distance is exactly symmetric in its two points.
        self.face_lengths = self.edge_lengths[self.face_edges]
        self.areas = triangle_areas(self.face_lengths)  # Heron areas of the intrinsic triangles

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]


def ambient_distance(kappa: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Geodesic distance in the ambient space form between model points.

    Computed from the model chord |p - q| (its Minkowski norm on the
    hyperboloid), which stays well conditioned for edges much shorter
    than the curvature radius, where an inner product near 1 does not.
    """
    d = np.atleast_2d(p) - np.atleast_2d(q)
    if kappa == 0.0:
        return np.linalg.norm(d, axis=-1)
    sq = math.sqrt(abs(kappa))
    if kappa < 0.0:
        # Minkowski signature (-, +, +, +): chords between points of the hyperboloid are spacelike.
        half = 0.5 * sq * np.sqrt(np.clip(np.sum(d[:, 1:] ** 2, axis=-1) - d[:, 0] ** 2, 0.0, None))
        return 2.0 * np.arcsinh(half) / sq
    half = 0.5 * sq * np.linalg.norm(d, axis=-1)
    return 2.0 * np.arcsin(np.clip(half, None, 1.0)) / sq


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


#: Caps must be smaller, or their triangle areas overflow: no edge is longer
#: than 2 rho, so Heron's product s(s-a)(s-b)(s-c) <= (3 rho)^4 stays finite.
MAX_CAP_RADIUS = float(np.finfo(float).max) ** 0.25 / 4.0

#: Finest refinement level.  Each level quadruples the vertices, placed ring by
#: ring in Python: about 44k at level 7 and 0.7M at level 9 (at s = 1.4), so a
#: larger level would not finish in reasonable time or memory.
MAX_LEVEL = 9


def build_cap_mesh(kappa: float, H: float, rho: float, level: int) -> TriMesh:
    """Concentric-ring triangulation of the intrinsic geodesic cap of radius rho.

    level sets the resolution: 2**level rings, azimuthal counts scaled to
    the ring circumference so triangles stay near-equilateral.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise MeshError(f"level must lie in [0, {MAX_LEVEL}], got {level}")
    geom = sphere_from_H(kappa, H)
    c = geom.c_int
    limit = min(math.pi / math.sqrt(c), MAX_CAP_RADIUS)
    if not 0.0 < rho < limit:
        raise MeshError(f"cap radius must lie in (0, {limit}), got {rho}")
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
    return TriMesh(vertices=vertices, faces=np.concatenate([fan, *strips]), kappa=kappa)


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


def triangle_areas(lengths: np.ndarray) -> np.ndarray:
    """Heron areas from per-face edge lengths (nf, 3)."""
    a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    return np.sqrt(np.clip(val, 0.0, None))


def intrinsic_radius(mesh: TriMesh) -> float:
    """Max over interior vertices of the edge-path distance to the boundary.

    Dijkstra over geodesic edge lengths, each edge stored once and
    traversed both ways; overestimates the smooth intrinsic radius by the
    mesh anisotropy factor.
    """
    if mesh.boundary.size == 0:
        raise MeshError("mesh has no boundary")
    if mesh.interior.size == 0:
        raise MeshError("mesh has no interior vertices")
    edges, n = mesh.edges, mesh.num_vertices
    g = csr_matrix((mesh.edge_lengths, (edges[:, 0], edges[:, 1])), shape=(n, n))
    dist = dijkstra(g, directed=False, indices=mesh.boundary, min_only=True)
    return float(dist[mesh.interior].max())


def save_mesh(mesh: TriMesh, path: str) -> None:
    """Plain-text polygon export: vertex lines, then 1-indexed face lines."""
    v, f = mesh.vertices, mesh.faces + 1
    with open(path, "w") as fh:
        fh.write(("v" + " %.17g" * v.shape[1] + "\n") * v.shape[0] % tuple(v.ravel().tolist()))
        fh.write("f %d %d %d\n" * f.shape[0] % tuple(f.ravel().tolist()))
