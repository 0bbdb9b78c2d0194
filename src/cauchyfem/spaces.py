"""Continuous Lagrange spaces of degree 1 and 2, plus quadrature rules.

Degrees of freedom sit at vertices (degree 1) or at vertices followed by face
midpoints (degree 2); the enumeration is fixed by the mesh ordering so that
assembled matrices are reproducible.  Dirichlet constraints pin all DOFs on
the closure of one boundary part to zero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # reference triangle
# gradients of the barycentric coordinates (1-x-y, x, y) on the reference triangle
_DLAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
# local edge m (opposite vertex m) joins the other two vertices
_EDGE_PAIRS = ((1, 2), (0, 2), (0, 1))

MAX_TRIANGLE_DEGREE = 8
MAX_SEGMENT_DEGREE = 9

# Dunavant's degree-8 rule (IJNME 21(6), 1985): the centroid, three orbits
# (a, b, b) and one orbit (a, b, c), each a barycentric generator and its
# weight on a triangle of unit area (refined to double precision)
_DUNAVANT_8 = (
    ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 0.14431560767778717),
    ((0.0814148234145537, 0.4592925882927232, 0.4592925882927232), 0.09509163426728462),
    ((0.6588613844964796, 0.1705693077517602, 0.1705693077517602), 0.10321737053471824),
    ((0.8989055433659381, 0.05054722831703098, 0.05054722831703098), 0.03245849762319808),
    ((0.008394777409957605, 0.2631128296346381, 0.7284923929554042), 0.027230314174434993),
)


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights (read-only, shared) on the reference triangle or the
    unit segment."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = self.weights.flags.writeable = False


@dataclass(frozen=True)
class FeSpace:
    """Scalar Lagrange space on a mesh with optional one-sided constraints;
    its DOFs sit at the vertices, then for P2 at the face midpoints."""

    mesh: Mesh
    degree: int
    cell_dofs: np.ndarray       # (nt, 3) or (nt, 6)
    dirichlet_dofs: np.ndarray  # sorted global indices constrained to zero

    @property
    def num_dofs(self):
        return self.mesh.num_vertices + (self.degree == 2) * len(self.mesh.face_vertices)

    @property
    def dof_lattice(self):      # (ndof, 2): the DOFs on the mesh's lattice, made on read
        points, ends = self.mesh.lattice, self.mesh.face_vertices
        return (points.copy() if self.degree == 1
                else np.vstack([points, 0.5 * (points[ends[:, 0]] + points[ends[:, 1]])]))

    @functools.cached_property
    def free_dofs(self):
        """The unconstrained DOFs, sorted (read-only, computed once)."""
        constrained = np.zeros(self.num_dofs, dtype=bool)
        constrained[self.dirichlet_dofs] = True
        free = np.flatnonzero(~constrained)
        free.flags.writeable = False
        return free


def build_space(mesh, degree, constraint_side=None):
    """Enumerate DOFs (vertices first, then faces for degree 2) and constraints.

    Constrained DOFs are those on the closure of the requested boundary part:
    the endpoints of every tagged face plus, for degree 2, its midpoint DOF.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree {degree!r} must be 1 or 2")

    cell_dofs = (mesh.triangles.copy() if degree == 1 else
                 np.hstack([mesh.triangles, mesh.num_vertices + mesh.tri_faces]))

    dirichlet = np.empty(0, dtype=np.int64)
    if constraint_side is not None:
        faces = mesh.faces_of_part(constraint_side)
        closure = [mesh.face_vertices[faces].ravel()]
        if degree == 2:
            closure.append(mesh.num_vertices + faces)
        dirichlet = np.unique(np.concatenate(closure))

    return FeSpace(mesh=mesh, degree=degree, cell_dofs=cell_dofs, dirichlet_dofs=dirichlet)


# ---------------------------------------------------------------------------
# reference basis

def shape_values(degree, points):
    """Basis values at reference points; shape (npts, ndof_local)."""
    pts = np.atleast_2d(points)
    lam = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    if degree == 1:
        return lam
    vals = np.empty((len(pts), 6))
    vals[:, :3] = lam * (2.0 * lam - 1.0)
    for m, (j, k) in enumerate(_EDGE_PAIRS):
        vals[:, 3 + m] = 4.0 * lam[:, j] * lam[:, k]
    return vals


def shape_grads(degree, points):
    """Reference gradients at reference points; shape (npts, ndof_local, 2)."""
    pts = np.atleast_2d(points)
    lam = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    if degree == 1:
        return np.broadcast_to(_DLAMBDA, (len(pts), 3, 2)).copy()
    grads = np.empty((len(pts), 6, 2))
    for i in range(3):
        grads[:, i] = (4.0 * lam[:, i, None] - 1.0) * _DLAMBDA[i]
    for m, (j, k) in enumerate(_EDGE_PAIRS):
        grads[:, 3 + m] = 4.0 * (lam[:, k, None] * _DLAMBDA[j]
                                 + lam[:, j, None] * _DLAMBDA[k])
    return grads


def shape_hessians():
    """Reference Hessians of the degree-2 basis, constant, shape (6, 2, 2)."""
    hess = np.empty((6, 2, 2))
    for i in range(3):
        hess[i] = 4.0 * np.outer(_DLAMBDA[i], _DLAMBDA[i])
    for m, (j, k) in enumerate(_EDGE_PAIRS):
        hess[3 + m] = 4.0 * (np.outer(_DLAMBDA[j], _DLAMBDA[k])
                             + np.outer(_DLAMBDA[k], _DLAMBDA[j]))
    return hess


def cell_points(mesh, ref_points):
    """Physical images (nt, nq, 2) of reference points in every triangle."""
    mapped = mesh.jac.reshape(-1, 2) @ ref_points.T    # one product, not one per J
    return (mesh.vertices[mesh.triangles[:, 0]][:, None]
            + mapped.reshape(mesh.num_triangles, 2, -1).transpose(0, 2, 1))


@functools.lru_cache(maxsize=None)
def edge_tables(degree, rule_degree):
    """Basis values (3, 2, nq, nd) and reference gradients (3, 2, nq, nd, 2)
    at the points of `segment_rule(rule_degree)` on each reference edge m
    (opposite vertex m): [m, 0] walks it counter-clockwise, from vertex m+1
    to m+2 (mod 3), as a face's left triangle does; [m, 1] in reverse."""
    s = segment_rule(rule_degree).points[:, None]
    start, end = _VERTICES[[1, 2, 0]], _VERTICES[[2, 0, 1]]
    points = np.stack([start[:, None] + s * (end - start)[:, None],
                       end[:, None] + s * (start - end)[:, None]], axis=1).reshape(-1, 2)
    values = shape_values(degree, points).reshape(3, 2, len(s), -1)
    grads = shape_grads(degree, points).reshape(3, 2, len(s), -1, 2)
    values.flags.writeable = grads.flags.writeable = False
    return values, grads


# ---------------------------------------------------------------------------
# quadrature

@functools.lru_cache(maxsize=None)
def segment_rule(degree):
    """Gauss-Legendre rule on [0, 1] exact for polynomials up to `degree`."""
    if degree > MAX_SEGMENT_DEGREE:
        raise ValueError(f"segment rules support degree <= {MAX_SEGMENT_DEGREE}")
    npts = max(1, math.ceil((degree + 1) / 2))
    x, w = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule(points=0.5 * (x + 1.0), weights=0.5 * w)


@functools.lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule on the reference triangle exact for polynomials up to `degree`.

    Degrees up to 2 share the 2 × 2 collapsed Gauss rule on the square
    (x, y) = (s, t(1-s)), whose Jacobian 1-s raises the s-degree by one.
    Degrees 3 to 8 share Dunavant's symmetric 16-point rule of degree 8.
    """
    if degree > MAX_TRIANGLE_DEGREE:
        raise ValueError(f"triangle rules support degree <= {MAX_TRIANGLE_DEGREE}")
    if degree < 2:
        return triangle_rule(2)
    if degree == 2:
        x, w = np.polynomial.legendre.leggauss(2)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        # s-major order: point (i, j) is (s_i, t_j (1 - s_i))
        s, t = (a.ravel() for a in np.meshgrid(x, x, indexing="ij"))
        w1, w2 = (a.ravel() for a in np.meshgrid(w, w, indexing="ij"))
        return QuadratureRule(points=np.column_stack([s, t * (1.0 - s)]),
                              weights=w1 * w2 * (1.0 - s))
    if degree < MAX_TRIANGLE_DEGREE:
        return triangle_rule(MAX_TRIANGLE_DEGREE)
    # every distinct permutation of each orbit's barycentric generator
    # (λ0, λ1, λ2) is the point (x, y) = (λ1, λ2), weighted by half the
    # orbit's weight on a triangle of unit area
    points, weights = [], []
    for bary, weight in _DUNAVANT_8:
        for lam in dict.fromkeys(itertools.permutations(bary)):
            points.append(lam[1:])
            weights.append(0.5 * weight)
    return QuadratureRule(points=np.array(points), weights=np.array(weights))
