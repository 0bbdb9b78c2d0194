"""Conforming triangulations of the unit square with a two-part boundary.

The boundary is split into a *data* part (where the Cauchy pair -- zero trace
and prescribed normal flux -- lives) and a *free* part carrying no data.  All
faces carry adjacency information so that jump terms across interior faces and
single-sided traces on boundary faces can be assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

GEOM_TOL = 1e-12

#: jitter lies in [0, MAX_JITTER), in units of the lattice spacing
MAX_JITTER = 0.3

#: face_part codes for faces that are not (yet) assigned to a boundary part
INTERIOR = -1
UNTAGGED = -2


class BoundaryPart(IntEnum):
    """Boundary classification: faces with Cauchy data vs. data-free faces."""

    DATA = 0
    FREE = 1


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with face adjacency.

    vertices       (nv, 2) float, coordinates
    triangles      (nt, 3) int, counter-clockwise vertex triples
    face_vertices  (nf, 2) int, endpoints ordered along the left triangle's
                   boundary loop, so the face normal points out of it
    face_tris      (nf, 2) int, (left, right) triangle; right = -1 on the
                   boundary
    tri_faces      (nt, 3) int, tri_faces[t, i] is the face opposite local
                   vertex i of triangle t
    face_part      (nf,) int8, INTERIOR / UNTAGGED / BoundaryPart value
    jac, det, jinv J (nt, 2, 2), det J (nt,), J^{-1} (nt, 2, 2) (`affine_map`)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    face_vertices: np.ndarray
    face_tris: np.ndarray
    tri_faces: np.ndarray
    face_part: np.ndarray
    jac: np.ndarray
    det: np.ndarray
    jinv: np.ndarray

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def boundary_faces(self):
        return np.flatnonzero(self.face_tris[:, 1] < 0)

    def interior_faces(self):
        return np.flatnonzero(self.face_tris[:, 1] >= 0)

    def faces_of_part(self, part):
        if np.any(self.face_part == UNTAGGED):
            raise ValueError("mesh boundary has not been tagged")
        return np.flatnonzero(self.face_part == int(part))


def affine_map(tri_points):
    """J (nt, 2, 2), det J (nt,) and J^{-1} (nt, 2, 2) of the maps x = p0 + J xi
    of triangles (nt, 3, 2); row-vector gradients transform as g_ref @ Jinv."""
    p = np.asarray(tri_points, dtype=float)
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    jinv = np.stack([np.stack([jac[:, 1, 1], -jac[:, 0, 1]], axis=-1),
                     np.stack([-jac[:, 1, 0], jac[:, 0, 0]], axis=-1)],
                    axis=1) / det[:, None, None]
    return jac, det, jinv


def from_triangles(vertices, triangles):
    """Build a Mesh from vertex coordinates and CCW vertex triples.

    Faces are enumerated in the order they are first met when walking the
    triangles; the first triangle touching a face becomes its left neighbor.
    Raises ValueError on non-positive triangle areas or non-manifold edges.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):  # zero areas raise below
        jac, det, jinv = affine_map(vertices[triangles])
    bad = np.flatnonzero(det <= 0)
    if len(bad):
        raise ValueError(f"triangle {bad[0]} has non-positive area {0.5 * det[bad[0]]:g}")

    # edges opposite local vertices 0, 1, 2, each in CCW loop order, walked
    # triangle by triangle; a face is numbered where it is first met, and the
    # triangle meeting it first is its left neighbor
    start = triangles[:, [1, 2, 0]].ravel()
    end = triangles[:, [2, 0, 1]].ravel()
    key = np.minimum(start, end) * len(vertices) + np.maximum(start, end)
    _, first, inverse, count = np.unique(key, return_index=True, return_inverse=True,
                                         return_counts=True)
    if count.max(initial=0) > 2:
        over = first[np.flatnonzero(count > 2)[0]]
        edge = (int(min(start[over], end[over])), int(max(start[over], end[over])))
        raise ValueError(f"edge {edge} is shared by more than two triangles")
    order = np.argsort(first)          # unique edges in first-met order
    face_of_slot = np.argsort(order)[inverse]
    lead = first[order]                # slot where each face is first met
    face_vertices = np.column_stack([start[lead], end[lead]])
    face_tris = np.column_stack([lead // 3, np.full(len(lead), -1)])
    again = np.flatnonzero(first[inverse] != np.arange(len(key)))
    # two counter-clockwise neighbors walk their shared edge in opposite
    # directions; the same direction means the triangles overlap
    same = np.flatnonzero(start[again] != face_vertices[face_of_slot[again], 1])
    if len(same):
        slot = again[same[0]]
        raise ValueError(f"triangles {lead[face_of_slot[slot]] // 3} and {slot // 3} "
                         f"overlap: both walk edge ({start[slot]}, {end[slot]}) "
                         "in the same direction")
    face_tris[face_of_slot[again], 1] = again // 3
    tri_faces = face_of_slot.reshape(-1, 3)

    face_part = np.where(face_tris[:, 1] < 0, UNTAGGED, INTERIOR).astype(np.int8)
    return Mesh(vertices=vertices, triangles=triangles, face_vertices=face_vertices,
                face_tris=face_tris, tri_faces=tri_faces, face_part=face_part,
                jac=jac, det=det, jinv=jinv)


def build_structured(n, jitter=0.0, seed=0):
    """n-by-n grid of the unit square, each cell split along its (+1,+1) diagonal.

    Interior vertices are displaced by jitter/n in a pseudo-random direction
    drawn per vertex index (deterministic for a given seed); boundary vertices
    stay put, so boundary faces remain on the square's edges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= jitter < MAX_JITTER:
        raise ValueError(f"jitter must lie in [0, {MAX_JITTER:g})")

    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 2.0 * np.pi, len(vertices))
        ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
        interior = ((ii > 0) & (ii < n) & (jj > 0) & (jj < n)).ravel()
        step = jitter / n
        vertices[interior, 0] += step * np.cos(angles[interior])
        vertices[interior, 1] += step * np.sin(angles[interior])

    # cells row by row, each split into (p00, p10, p11) and (p00, p11, p01)
    j, i = np.divmod(np.arange(n * n), n)
    p00 = j * (n + 1) + i
    p10, p01 = p00 + 1, p00 + n + 1
    p11 = p01 + 1
    triangles = np.stack([np.column_stack([p00, p10, p11]),
                          np.column_stack([p00, p11, p01])], axis=1).reshape(-1, 3)
    return from_triangles(vertices, triangles)


#: sides of the unit square as (name, axis, coordinate), in tagging order
_SIDES = (("bottom", 1, 0.0), ("right", 0, 1.0), ("top", 1, 1.0), ("left", 0, 0.0))


def tag_boundary(mesh, data_sides=("bottom", "right")):
    """Assign each boundary face to BoundaryPart.DATA or .FREE by its midpoint.

    The default split puts the Cauchy data on bottom and right.  A face whose
    midpoint lies on none of the four sides of the unit square is an error.
    """
    faces = mesh.boundary_faces()
    mid = 0.5 * (mesh.vertices[mesh.face_vertices[faces, 0]]
                 + mesh.vertices[mesh.face_vertices[faces, 1]])
    on = np.column_stack([np.abs(mid[:, axis] - value) < GEOM_TOL
                          for _, axis, value in _SIDES])
    off = np.flatnonzero(~on.any(axis=1))
    if len(off):
        mx, my = mid[off[0]]
        raise ValueError(f"boundary face {faces[off[0]]} with midpoint ({mx:g}, {my:g}) "
                         "lies on no side of the unit square")
    # argmax: the first side, in _SIDES order, that a midpoint lies on
    is_data = np.array([side in data_sides for side, _, _ in _SIDES])[on.argmax(axis=1)]
    part = mesh.face_part.copy()
    part[faces] = np.where(is_data, BoundaryPart.DATA, BoundaryPart.FREE)
    return replace(mesh, face_part=part)


def unit_square_mesh(n, jitter=0.0, seed=0, data_sides=("bottom", "right")):
    """build_structured followed by tag_boundary."""
    return tag_boundary(build_structured(n, jitter, seed), data_sides)


def mesh_size(mesh):
    """Largest triangle diameter, i.e. the longest edge in the mesh."""
    if mesh.num_triangles == 0:
        raise ValueError("empty mesh")
    d = mesh.vertices[mesh.face_vertices[:, 1]] - mesh.vertices[mesh.face_vertices[:, 0]]
    return float(np.hypot(d[:, 0], d[:, 1]).max())
