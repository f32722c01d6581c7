"""Triangulated geodesic caps on umbilic spheres (the n = 2 mesh path).

Vertices live in the ambient model: Euclidean 3-space for kappa = 0, the
hyperboloid in Minkowski 4-space for kappa < 0, the round 3-sphere in
Euclidean 4-space for kappa > 0.  This module owns that column layout.
Edge lengths are exact ambient geodesic distances between vertices,
computed from the model chord so that short edges keep full precision;
they approximate the intrinsic cap metric to second order.  The stability
potential of a cap is constant and is not stored here: the FEM check
applies it as a spectral shift.  A cap's vertices are numbered ring by
ring, so interior_rings gives each interior vertex's ring from the ring
layout alone; prolongation and the eigensolve's start vector read it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ell import Ell
from .errors import MeshError
from .spaceforms import intrinsic_curvature


class TriMesh:
    """Triangulated disk, checked and measured once, when it is made.

    vertices are (nv, 3) for kappa = 0 and (nv, 4) otherwise, faces (nf, 3)
    vertex indices.  Raises MeshError unless every face has three distinct
    vertices in range, no edge lies in more than two faces, the Euler
    characteristic is 1, the faces are consistently oriented, the edges
    connect every vertex and some edge lies in one face only (a boundary).
    The constructor's traced memory peaks at about 2.1 times the bytes of
    the arrays it adds to the vertices and faces (1.35 times all it keeps).
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
        self.vertices, self.faces = v, f

        # Half-edge i of a face runs from corner i+1 to corner i+2, opposite corner i.
        # Key (min * nv + max) sorts like the (min, max) rows; the low bit keeps the direction.
        key = np.empty((3, f.shape[0]), dtype=np.int64)
        for i in range(3):
            tail, head = f[:, (i + 1) % 3], f[:, (i + 2) % 3]
            key[i] = (np.minimum(tail, head) * nv + np.maximum(tail, head)) * 2 + (tail > head)
        order = np.argsort(key, axis=None, kind="stable")
        key = key.ravel()[order]
        flipped = np.any(key[1:] == key[:-1])  # a directed edge in two faces
        key >>= 1  # the undirected key min * nv + max
        starts = np.concatenate([[True], key[1:] != key[:-1]])
        first = np.flatnonzero(starts)
        edge_faces = np.diff(np.append(first, key.size))
        if edge_faces.max() > 2:
            raise MeshError("a mesh edge belongs to more than two faces")
        if nv - first.size + f.shape[0] != 1:
            raise MeshError(f"not a disk: Euler characteristic {nv - first.size + f.shape[0]}")
        if flipped:
            raise MeshError("inconsistent face orientation")

        self.edges = np.stack(np.divmod(key[first], nv), axis=1)  # i < j, sorted
        # The key buffer becomes the half-edges' edge ids, and each temporary is
        # released once spent: the constructor's peak sets that of a mesh study.
        key[order] = np.cumsum(starts)
        key -= 1
        del order, starts, first
        self.face_edges = key.reshape(3, -1).T  # entry i opposite corner i
        self.by_hi = np.argsort(self.edges[:, 1], kind="stable").astype(np.int32)  # edge ids by larger end
        lo, hi = self.edges.T
        components = np.count_nonzero(component_roots(self.edges, nv) == np.arange(nv))
        if components != 1:  # chi adds over components: a disk plus a torus has chi = 1
            raise MeshError(f"not a disk: {components} connected components")
        on_boundary = np.zeros(nv, dtype=bool)
        on_boundary[self.edges[edge_faces == 1]] = True  # vertices of the edges in one face
        self.boundary = np.flatnonzero(on_boundary)
        if self.boundary.size == 0:  # a closed surface, such as a sphere with two points identified
            raise MeshError("not a disk: no boundary")
        self.interior = np.flatnonzero(~on_boundary)
        # Geodesic lengths from the chord, gathered one coordinate column at a time.
        self.edge_lengths = ambient_distance(kappa, (x[lo] - x[hi] for x in v.T))

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


class MeshArrays(NamedTuple):
    """A mesh's vertices and faces without its topology: all that save_mesh reads."""

    vertices: np.ndarray
    faces: np.ndarray


def component_roots(edges: np.ndarray, n: int) -> np.ndarray:
    """The least vertex of each vertex's connected component.  Each round hooks every edge's
    larger root onto its smaller one, then follows each label to its root; labels only fall,
    so the rounds end, and a cap takes two."""
    label = np.arange(n)
    lo, hi = edges.T
    while True:
        a, b = label[lo], label[hi]
        if np.array_equal(a, b):
            return label
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := label[label], label):
            label = up


def ambient_distance(kappa: float, chord) -> np.ndarray:
    """Geodesic distance in the ambient space form between model points p and q.

    Computed from the model chord |p - q| (its Minkowski norm on the
    hyperboloid), which stays well conditioned for edges much shorter
    than the curvature radius, where an inner product near 1 does not.
    chord yields the coordinate columns of p - q in order; they are squared
    and summed one at a time in that order, the order of np.sum over a row.
    """
    squares = (x * x for x in chord)
    time = next(squares) if kappa < 0.0 else None  # the hyperboloid's timelike coordinate
    total = sum(squares, next(squares))
    if kappa == 0.0:
        return np.sqrt(total)
    sq = math.sqrt(abs(kappa))
    if kappa < 0.0:
        # Minkowski signature (-, +, +, +): chords between points of the hyperboloid are spacelike.
        half = 0.5 * sq * np.sqrt(np.clip(total - time, 0.0, None))
        return 2.0 * np.arcsinh(half) / sq
    half = 0.5 * sq * np.sqrt(total)
    return 2.0 * np.arcsin(np.clip(half, None, 1.0)) / sq


def _model_points(kappa: float, H: float, c: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Points at polar angle phi, azimuth theta of the geodesic sphere of mean curvature H.

    With c = kappa + H^2, the sphere's ambient radius r has sin_k(r) = 1/sqrt(c)
    and cos_k(r) = H/sqrt(c), where sin_k(r) = sin(sqrt(kappa) r)/sqrt(kappa)
    (sinh for kappa < 0).  So a point is u/sqrt(c) for its unit direction u,
    and for kappa != 0 it also has the constant coordinate
    cos_k(r)/sqrt|kappa|, first on the hyperboloid and last on the sphere.
    Each root divides on its own, so that a tiny kappa * c cannot underflow.
    """
    root_c = math.sqrt(c)
    u = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    ) / root_c
    if kappa == 0.0:
        return u
    height = np.full((u.shape[0], 1), H / math.sqrt(abs(kappa)) / root_c)
    return np.hstack([height, u] if kappa < 0.0 else [u, height])


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

#: Finest refinement level.  Each level quadruples the vertices, zipped ring by
#: ring in Python: about 44k at level 7 and 0.7M at level 9 (at s = 1.25).  A
#: level-9 study and its export took about 3 s and 0.42 GB peak on a 2-CPU host,
#: and building the mesh alone 0.7 s and 0.32 GB, so a level-10 study would need
#: about 1.7 GB.
MAX_LEVEL = 9

#: Rows of the mesh export formatted per write.
EXPORT_BLOCK = 4096


def _rings(kappa: float, H: float, rho: float, level: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Intrinsic curvature c, and polar angle and vertex count of rings 1..2**level, of a cap mesh.

    The rings are equally spaced in intrinsic distance from the pole, and
    each ring's count is scaled to its circumference, at least 3.  Raises
    MeshError for a level or cap that cannot be meshed.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise MeshError(f"level must lie in [0, {MAX_LEVEL}], got {level}")
    c = intrinsic_curvature(kappa, H)
    limit = min(math.pi / math.sqrt(c), MAX_CAP_RADIUS)
    if not 0.0 < rho < limit:
        raise MeshError(f"cap radius must lie in (0, {limit}), got {rho}")
    r_int = 1.0 / math.sqrt(c)  # intrinsic sphere radius
    h = rho / 2**level
    phi = np.arange(1, 2**level + 1) * h / r_int
    return c, phi, np.maximum(3, np.rint(2.0 * math.pi * r_int * np.sin(phi) / h).astype(np.int64))


def build_cap_mesh(kappa: float, H: float, rho: float, level: int) -> TriMesh:
    """Concentric-ring triangulation of the intrinsic geodesic cap of radius rho.

    level sets the resolution: 2**level rings, azimuthal counts scaled to
    the ring circumference so triangles stay near-equilateral.  Vertex 0 is
    the pole, then come the rings outwards, each from azimuth 0; the last
    ring is the boundary.
    """
    c, phi, counts = _rings(kappa, H, rho, level)
    ends = np.cumsum(counts)
    k = np.arange(ends[-1]) - np.repeat(ends - counts, counts)  # each vertex's index in its ring
    theta = 2.0 * math.pi * k / np.repeat(counts, counts)
    vertices = _model_points(kappa, H, c, np.append(0.0, np.repeat(phi, counts)), np.append(0.0, theta))
    ring_indices = np.split(np.arange(1, ends[-1] + 1), ends[:-1])
    ring_angles = np.split(theta, ends[:-1])

    first = ring_indices[0]
    fan = np.stack([first, np.roll(first, -1), np.zeros_like(first)], axis=1)
    # The strips are released once joined, before TriMesh measures the mesh.
    strips = (_zip_rings(ring_indices[i - 1], ring_angles[i - 1], ring_indices[i], ring_angles[i])
              for i in range(1, counts.size))
    return TriMesh(vertices=vertices, faces=np.concatenate([fan, *strips]), kappa=kappa)


def interior_rings(kappa: float, H: float, rho: float, level: int) -> np.ndarray:
    """Ring of each interior vertex of the level cap mesh, in vertex order: 0 at the pole.

    Ring i lies at intrinsic distance i rho / 2**level from the pole.
    Raises MeshError for a level or cap that cannot be meshed.
    """
    counts = np.append(1, _rings(kappa, H, rho, level)[2][:-1])
    return np.repeat(np.arange(counts.size), counts)


def prolongation(kappa: float, H: float, rho: float, level: int) -> Ell:
    """Interpolation from the interior vertices of the level - 1 cap mesh to those of level.

    Fine ring i lies at the polar angle of coarse ring i/2, with ring 0 the
    pole.  A vertex of an even ring interpolates linearly in azimuth between
    the two vertices of coarse ring i/2 around it; a vertex of an odd ring
    averages those interpolations on coarse rings (i - 1)/2 and (i + 1)/2.
    The pole maps to the pole.  The coarse boundary ring has no column: its
    values are 0 in the Dirichlet problem.
    """
    if level == 0:
        raise MeshError("level 0 has no coarser level")
    ring = interior_rings(kappa, H, rho, level)
    fine, coarse = np.bincount(ring), np.bincount(interior_rings(kappa, H, rho, level - 1))
    k = np.arange(ring.size) - (np.cumsum(fine) - fine)[ring]  # each vertex's index in its ring
    first = np.cumsum(coarse) - coarse  # the first vertex of each coarse ring
    odd = ring % 2 == 1
    second = odd & ((ring + 1) // 2 < coarse.size)  # an odd ring whose outer coarse ring is interior
    # A row holds one entry on the pole, else two per coarse ring, in four slots: the second
    # coarse ring's entries follow the first's one or two.  Each row is padded by column 0.
    columns, values = np.empty((4, ring.size), dtype=np.int32), np.empty((4, ring.size))
    for v, j, s in ((slice(None), ring // 2, 0), (second, (ring[second] + 1) // 2, np.minimum(ring[second], 2))):
        # Azimuth 2 pi k / m lies between vertices a and a + 1 of coarse ring j, frac of the way on.
        n, m = coarse[j], fine[ring[v]]
        a, part = np.divmod(k[v] * n, m)
        frac, half = part / m, np.where(odd[v], 0.5, 1.0)  # an even ring reads one coarse ring, at full weight
        col, w, col2, w2 = first[j] + a, half * (1.0 - frac), first[j] + (a + 1) % n, half * frac
        del a, part, frac, half
        wrap = col2 < col  # vertex a + 1 is the ring's first
        # The pole is one vertex: its entry takes both weights, and its second slot is padding.
        columns[s, v], values[s, v] = np.where(wrap, col2, col), np.where(n == 1, w + w2, np.where(wrap, w2, w))
        columns[s + 1, v], values[s + 1, v] = np.where(wrap, col, col2), np.where(wrap, w, w2)
    padding = np.arange(4)[:, None] >= np.where(ring > 1, 2, 1) + 2 * second
    columns[padding], values[padding] = 0, 0.0
    return Ell(columns, values, coarse.sum())


def triangle_areas(lengths: np.ndarray) -> np.ndarray:
    """Heron areas from per-face edge lengths (nf, 3)."""
    a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    return np.sqrt(np.clip(val, 0.0, None))


def intrinsic_radius(mesh: TriMesh) -> float:
    """Max over interior vertices of the edge-path distance to the boundary.

    Label-correcting sweeps from the boundary over geodesic edge lengths,
    each edge stored once.  A sweep relaxes every edge away from its end in
    the window of vertex indices whose distance fell in the last one, as
    slices of the edges sorted by either end, so its cost follows the
    vertex numbering.  The fixed point is Dijkstra's least path sum.  It
    overestimates the smooth intrinsic radius by the mesh anisotropy factor.
    """
    interior = require_interior(mesh)
    lo, hi = mesh.edges.T  # sorted by lo
    order = mesh.by_hi
    hi_sorted, lo_by_hi, length_by_hi = hi[order], lo[order], mesh.edge_lengths[order]
    dist = np.full(mesh.num_vertices, np.inf)
    dist[mesh.boundary] = 0.0
    fell = mesh.boundary
    while fell.size:
        window = (fell[0], fell[-1] + 1)
        (i0, i1), (j0, j1) = np.searchsorted(lo, window), np.searchsorted(hi_sorted, window)
        out, back = hi[i0:i1], lo_by_hi[j0:j1]  # the other ends of the edges from the window
        start, stop = back.min(initial=fell[0]), out.max(initial=fell[-1]) + 1
        before = dist[start:stop].copy()
        np.minimum.at(dist, out, dist[lo[i0:i1]] + mesh.edge_lengths[i0:i1])
        np.minimum.at(dist, back, dist[hi_sorted[j0:j1]] + length_by_hi[j0:j1])
        fell = start + np.flatnonzero(dist[start:stop] < before)
    return float(dist[interior].max())


def require_interior(mesh: TriMesh) -> np.ndarray:
    """mesh.interior, or MeshError when it is empty, as for a single triangle."""
    if mesh.interior.size == 0:
        raise MeshError("mesh has no interior vertices")
    return mesh.interior


def save_mesh(mesh: TriMesh | MeshArrays, path: str) -> None:
    """Plain-text polygon export: vertex lines, then 1-indexed face lines.

    The bytes are those of %.17g for every coordinate and %d for every face
    index, built by numpy (see numtext).  Each block of at most
    EXPORT_BLOCK rows is a NUL-padded byte matrix, "v", a space and a token
    per coordinate, or "f" and three index words, then a newline, and is
    written without its NULs.  A coordinate column that changes on fewer
    than 1/16 of the rows, such as a ring's height, is formatted once per
    run of consecutive vertices that share its value.
    """
    from .numtext import TOKEN, float_tokens, index_words  # a mesh run without an export never loads it

    v = mesh.vertices
    nv, k = v.shape
    bits = v.view(np.int64)  # compared by bits: -0.0 prints as -0 but equals 0.0
    change = bits[1:] != bits[:-1]
    shared = np.count_nonzero(change, axis=0) * 16 < nv
    starts = {j: np.flatnonzero(np.append(True, change[:, j])) for j in np.flatnonzero(shared).tolist()}
    heads = {j: float_tokens(v[s, j]) for j, s in starts.items()}  # a token per run of a shared column
    del change
    words = index_words(np.arange(1, nv + 1))
    with open(path, "wb") as fh:
        for a in range(0, nv, EXPORT_BLOCK):
            rows = v[a:a + EXPORT_BLOCK]
            r = rows.shape[0]
            line = np.zeros((r, 2 + k * (1 + TOKEN)), dtype=np.uint8)
            line[:, 0], line[:, 1:-1:1 + TOKEN], line[:, -1] = ord("v"), ord(" "), ord("\n")
            varying = float_tokens(rows[:, ~shared].ravel()).reshape(r, -1, TOKEN)
            for j in range(k):
                if j in starts:
                    token = heads[j][np.searchsorted(starts[j], np.arange(a, a + r), side="right") - 1]
                else:
                    token, varying = varying[:, 0], varying[:, 1:]
                line[:, 2 + j * (1 + TOKEN):(j + 1) * (1 + TOKEN) + 1] = token
            fh.write(line[line != 0])
        for a in range(0, len(mesh.faces), EXPORT_BLOCK):
            f = mesh.faces[a:a + EXPORT_BLOCK]
            line = np.zeros((f.shape[0], 2 + 3 * words.shape[1] * 8), dtype=np.uint8)
            line[:, 0], line[:, -1] = ord("f"), ord("\n")
            line[:, 1:-1] = words.take(f, axis=0).view(np.uint8).reshape(f.shape[0], -1)
            fh.write(line[line != 0])
