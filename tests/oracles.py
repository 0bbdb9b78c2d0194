"""Independent dense brute-force oracles for the assembled operators.

Everything here deliberately avoids the package's assembly path: basis
functions are evaluated through global barycentric coordinates obtained by
inverting the vertex matrix of each triangle (no reference-element mapping),
quadrature rules use a different collapsed-square construction, and matrices
are accumulated entry by entry into dense arrays.  The last section holds
helpers that only tests use.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from cauchyfem import solver
from cauchyfem.analysis import LOCAL_WINDOW, report_data
from cauchyfem.assembly import (VOLUME_DEGREE, BlockSystem, assemble_blocks,
                                assemble_data_term, assemble_dual_stab,
                                assemble_primal_stab, assemble_stiffness,
                                face_operator, interior_rows)
from cauchyfem.mesh import GEOM_TOL, BoundaryPart, mesh_size
from cauchyfem.solver import analysed_pattern, build_system, solve, stacked
from cauchyfem.spaces import (build_space, cell_points, shape_grads, shape_values,
                              triangle_rule)


def oracle_triangle_rule(degree):
    """Collapsed rule on the reference triangle via (x, y) = (u(1-v), v)."""
    mu = int(np.ceil((degree + 1) / 2))
    mv = int(np.ceil((degree + 2) / 2))
    xu, wu = np.polynomial.legendre.leggauss(mu)
    xv, wv = np.polynomial.legendre.leggauss(mv)
    xu, wu = 0.5 * (xu + 1.0), 0.5 * wu
    xv, wv = 0.5 * (xv + 1.0), 0.5 * wv
    pts, wts = [], []
    for u, a in zip(xu, wu):
        for v, b in zip(xv, wv):
            pts.append((u * (1.0 - v), v))
            wts.append(a * b * (1.0 - v))
    return np.array(pts), np.array(wts)


def oracle_segment_rule(degree):
    x, w = np.polynomial.legendre.leggauss(max(2, degree))  # more points than needed
    return 0.5 * (x + 1.0), 0.5 * w


def _bary_system(tri_pts):
    """Barycentric coordinates as affine functions of (x, y).

    Returns (3, 3) coefficients: lambda_i(x, y) = c[i, 0] + c[i, 1] x + c[i, 2] y.
    """
    m = np.vstack([np.ones(3), tri_pts[:, 0], tri_pts[:, 1]])
    return np.linalg.inv(m)


def oracle_basis(tri_pts, degree, xy):
    """(values, grads, laplacians) of the local basis at physical points."""
    coef = _bary_system(tri_pts)
    xy = np.atleast_2d(xy)
    ones = np.ones(len(xy))
    lam = np.stack([coef[i, 0] * ones + coef[i, 1] * xy[:, 0] + coef[i, 2] * xy[:, 1]
                    for i in range(3)], axis=1)
    dlam = coef[:, 1:3]
    if degree == 1:
        vals = lam
        grads = np.broadcast_to(dlam, (len(xy), 3, 2)).copy()
        laps = np.zeros(3)
        return vals, grads, laps
    vals = np.empty((len(xy), 6))
    grads = np.empty((len(xy), 6, 2))
    laps = np.empty(6)
    for i in range(3):
        vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        grads[:, i] = (4.0 * lam[:, i, None] - 1.0) * dlam[i]
        laps[i] = 4.0 * dlam[i] @ dlam[i]
    for m, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        vals[:, 3 + m] = 4.0 * lam[:, j] * lam[:, k]
        grads[:, 3 + m] = 4.0 * (lam[:, k, None] * dlam[j] + lam[:, j, None] * dlam[k])
        laps[3 + m] = 8.0 * dlam[j] @ dlam[k]
    return vals, grads, laps


def triangle_points(mesh, t):
    """Vertex coordinates (3, 2) of triangle t."""
    return mesh.vertices[mesh.triangles[t]]


def signed_areas(mesh):
    """Signed area of every triangle, positive for counter-clockwise ones."""
    return np.array([_tri_area(triangle_points(mesh, t))
                     for t in range(mesh.num_triangles)])


def _tri_area(tri_pts):
    d1 = tri_pts[1] - tri_pts[0]
    d2 = tri_pts[2] - tri_pts[0]
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


def _tri_phys_points(tri_pts, ref_pts):
    return (tri_pts[0]
            + np.outer(ref_pts[:, 0], tri_pts[1] - tri_pts[0])
            + np.outer(ref_pts[:, 1], tri_pts[2] - tri_pts[0]))


def dense_stiffness(trial, test):
    mesh = trial.mesh
    ref_pts, ref_wts = oracle_triangle_rule(8)
    out = np.zeros((test.num_dofs, trial.num_dofs))
    for t in range(mesh.num_triangles):
        pts = triangle_points(mesh, t)
        scale = 2.0 * _tri_area(pts)  # d(phys)/d(ref)
        xy = _tri_phys_points(pts, ref_pts)
        _, gt, _ = oracle_basis(pts, trial.degree, xy)
        _, ge, _ = oracle_basis(pts, test.degree, xy)
        for q, w in enumerate(ref_wts):
            for i, gi in enumerate(test.cell_dofs[t]):
                for j, gj in enumerate(trial.cell_dofs[t]):
                    out[gi, gj] += w * scale * (ge[q, i] @ gt[q, j])
    return out


def _face_data(mesh, f, spts):
    a, b = mesh.face_vertices[f]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    tang = pb - pa
    length = float(np.hypot(tang[0], tang[1]))
    normal = np.array([tang[1], -tang[0]]) / length
    return length, normal, pa + np.outer(spts, tang)


def dense_face_jumps(space, boundary_part, gamma):
    mesh = space.mesh
    spts, swts = oracle_segment_rule(9)
    out = np.zeros((space.num_dofs, space.num_dofs))
    faces = list(mesh.interior_faces()) + list(mesh.faces_of_part(boundary_part))
    for f in faces:
        length, normal, xy = _face_data(mesh, f, spts)
        lt, rt = mesh.face_tris[f]
        sides = [(lt, 1.0)] + ([(rt, -1.0)] if rt >= 0 else [])
        dofs, dn, laps = [], [], []
        for t, sign in sides:
            pts = triangle_points(mesh, t)
            _, grads, lap = oracle_basis(pts, space.degree, xy)
            dofs.extend(space.cell_dofs[t])
            dn.append(sign * grads @ normal)
            laps.append(sign * lap)
        dn = np.hstack(dn)
        laps = np.concatenate(laps)
        for q, w in enumerate(swts):
            for i, gi in enumerate(dofs):
                for j, gj in enumerate(dofs):
                    out[gi, gj] += gamma * w * length * length * dn[q, i] * dn[q, j]
        if space.degree == 2 and rt >= 0:
            for i, gi in enumerate(dofs):
                for j, gj in enumerate(dofs):
                    out[gi, gj] += gamma * length ** 4 * laps[i] * laps[j]
    return out


def dense_dual_stab(space, variant, gamma):
    if variant == "galerkin":
        return dense_stiffness(space, space)
    return dense_face_jumps(space, BoundaryPart.FREE, gamma)


def dense_load(space, problem):
    mesh = space.mesh
    ref_pts, ref_wts = oracle_triangle_rule(8)
    out = np.zeros(space.num_dofs)
    for t in range(mesh.num_triangles):
        pts = triangle_points(mesh, t)
        scale = 2.0 * _tri_area(pts)
        xy = _tri_phys_points(pts, ref_pts)
        vals, _, _ = oracle_basis(pts, space.degree, xy)
        for q, w in enumerate(ref_wts):
            fq = problem.f(xy[q, 0], xy[q, 1])
            for i, gi in enumerate(space.cell_dofs[t]):
                out[gi] += w * scale * fq * vals[q, i]
    spts, swts = oracle_segment_rule(9)
    for f in mesh.faces_of_part(BoundaryPart.DATA):
        length, normal, xy = _face_data(mesh, f, spts)
        lt = mesh.face_tris[f][0]
        pts = triangle_points(mesh, lt)
        vals, _, _ = oracle_basis(pts, space.degree, xy)
        for q, w in enumerate(swts):
            psi = problem.psi(xy[q, 0], xy[q, 1], normal[0], normal[1])
            for i, gi in enumerate(space.cell_dofs[lt]):
                out[gi] += w * length * psi * vals[q, i]
    return out


def oracle_volume_norms(space, coeffs, problem):
    """‖u - u_h‖ over Ω and over ω_h, ‖∇(u - u_h)‖ and ‖f‖, triangle by
    triangle with `oracle_triangle_rule(8)`."""
    mesh = space.mesh
    ref_pts, ref_wts = oracle_triangle_rule(8)
    (x0, y0), (x1, y1) = LOCAL_WINDOW
    sums = np.zeros(4)
    for t in range(mesh.num_triangles):
        pts = triangle_points(mesh, t)
        xy = _tri_phys_points(pts, ref_pts)
        x, y = xy[:, 0], xy[:, 1]
        vals, grads, _ = oracle_basis(pts, space.degree, xy)
        c = coeffs[space.cell_dofs[t]]
        err = problem.exact_u(x, y) - vals @ c
        grad_err = np.column_stack(problem.exact_grad(x, y)) - np.einsum("qid,i->qd", grads, c)
        w = 2.0 * _tri_area(pts) * ref_wts
        cx, cy = pts.mean(axis=0)
        l2_sq = w @ err ** 2
        sums += [l2_sq, l2_sq if x0 < cx < x1 and y0 < cy < y1 else 0.0,
                 w @ (grad_err ** 2).sum(axis=1), w @ problem.f(x, y) ** 2]
    return np.sqrt(sums)


def dense_data_term(space, problem, gamma):
    mesh = space.mesh
    spts, swts = oracle_segment_rule(9)
    out = np.zeros(space.num_dofs)
    for f in mesh.faces_of_part(BoundaryPart.DATA):
        length, normal, xy = _face_data(mesh, f, spts)
        lt = mesh.face_tris[f][0]
        pts = triangle_points(mesh, lt)
        _, grads, _ = oracle_basis(pts, space.degree, xy)
        for q, w in enumerate(swts):
            psi = problem.psi(xy[q, 0], xy[q, 1], normal[0], normal[1])
            for i, gi in enumerate(space.cell_dofs[lt]):
                out[gi] += gamma * w * length * length * psi * (grads[q, i] @ normal)
    return out


# ---------------------------------------------------------------------------
# loop references for the batched face kernels and the mesh build

def face_geometry(mesh, face):
    """Return (length, unit normal, (left, right)) for a face.

    The normal points out of the left triangle; on the boundary that is the
    outward normal of the domain.
    """
    a, b = mesh.face_vertices[face]
    t = mesh.vertices[b] - mesh.vertices[a]
    length = float(np.hypot(t[0], t[1]))
    normal = np.array([t[1], -t[0]]) / length
    left, right = mesh.face_tris[face]
    return length, normal, (int(left), int(right))


def reference_coords(tri_points, jinv, phys_points):
    """Reference coordinates (n, nq, 2) of physical points (n, nq, 2), each
    row of points mapped back through its own triangle."""
    return (phys_points - tri_points[:, None, 0]) @ jinv.transpose(0, 2, 1)


def mapped_traces(space, cells, points):
    """Basis values (nf, nq, nd) and physical gradients (nf, nq, nd, 2) of
    triangle cells[f] at points[f], by mapping the points back into it."""
    mesh = space.mesh
    ref = reference_coords(mesh.vertices[mesh.triangles[cells]], mesh.jinv[cells], points)
    flat = ref.reshape(-1, 2)
    values = shape_values(space.degree, flat).reshape(ref.shape[:2] + (-1,))
    grads = shape_grads(space.degree, flat).reshape(ref.shape[:2] + (-1, 2))
    return values, grads @ mesh.jinv[cells][:, None]


def fe_jump_seminorm(space, coeffs, gamma, boundary_part=BoundaryPart.DATA,
                     flux=None):
    """Face-jump semi-norm of a finite element function, face by face.

    Loop twin of sqrt(x^T S x) with the jump-penalty matrix S of the same
    boundary part (boundary_part=None: interior faces only).  With `flux`,
    boundary faces measure flux - ∂_n u_h instead of ∂_n u_h, which makes it
    the loop twin of |u - u_h|_{s_V}.
    """
    mesh = space.mesh
    spts, swts = oracle_segment_rule(9)
    faces = list(mesh.interior_faces())
    if boundary_part is not None:
        faces += list(mesh.faces_of_part(boundary_part))
    total = 0.0
    for f in faces:
        length, normal, xy = _face_data(mesh, f, spts)
        lt, rt = mesh.face_tris[f]
        _, gl, lap_l = oracle_basis(triangle_points(mesh, lt), space.degree, xy)
        cl = coeffs[space.cell_dofs[lt]]
        dn = (gl @ normal) @ cl
        if rt >= 0:
            _, gr, lap_r = oracle_basis(triangle_points(mesh, rt), space.degree, xy)
            cr = coeffs[space.cell_dofs[rt]]
            mis = (gr @ normal) @ cr - dn
            if space.degree == 2:
                total += length ** 4 * (lap_l @ cl - lap_r @ cr) ** 2
        else:
            target = 0.0 if flux is None else np.array(
                [flux(x, y, normal[0], normal[1]) for x, y in xy])
            mis = target - dn
        total += length ** 2 * (swts @ (mis * mis))
    return np.sqrt(gamma * total)


def loop_stab_seminorm_u(space, coeffs, problem, gamma_v):
    """Loop twin of analysis.stab_seminorm_u."""
    return fe_jump_seminorm(space, coeffs, gamma_v, BoundaryPart.DATA,
                            flux=problem.psi)


def walk_faces(triangles):
    """(face_vertices, face_tris, tri_faces) by walking the triangles with a
    dict: faces numbered where first met, first triangle on the left."""
    face_of, face_vertices, face_tris = {}, [], []
    tri_faces = np.empty((len(triangles), 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(triangles):
        for local, (u, v) in enumerate(((b, c), (c, a), (a, b))):
            key = (min(u, v), max(u, v))
            idx = face_of.get(key)
            if idx is None:
                idx = face_of[key] = len(face_vertices)
                face_vertices.append((u, v))
                face_tris.append([t, -1])
            else:
                face_tris[idx][1] = t
            tri_faces[t, local] = idx
    return (np.array(face_vertices, dtype=np.int64),
            np.array(face_tris, dtype=np.int64), tri_faces)


def loop_tag_boundary(mesh, data_sides):
    """face_part after tagging, face by face: a boundary face takes the part
    of the first side (bottom, right, top, left) its midpoint lies on."""
    sides = (("bottom", 1, 0.0), ("right", 0, 1.0), ("top", 1, 1.0), ("left", 0, 0.0))
    part = mesh.face_part.copy()
    for f in mesh.boundary_faces():
        a, b = mesh.face_vertices[f]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        side = next(name for name, axis, value in sides
                    if abs(mid[axis] - value) < GEOM_TOL)
        part[f] = BoundaryPart.DATA if side in data_sides else BoundaryPart.FREE
    return part


def loop_dirichlet_dofs(mesh, degree, part):
    """Sorted DOFs pinned by constraining `part`, face by face: both
    endpoints of each face and, for degree 2, its midpoint DOF."""
    pinned = set()
    for f in mesh.faces_of_part(part):
        a, b = mesh.face_vertices[f]
        pinned.update((int(a), int(b)))
        if degree == 2:
            pinned.add(mesh.num_vertices + int(f))
    return np.array(sorted(pinned), dtype=np.int64)


def structured_triangles(n):
    """Triangles of the n-by-n grid by a loop over cells, row by row."""
    tris = []
    for j in range(n):
        for i in range(n):
            p00, p10 = j * (n + 1) + i, j * (n + 1) + i + 1
            p01, p11 = p00 + n + 1, p10 + n + 1
            tris += [(p00, p10, p11), (p00, p11, p01)]
    return np.array(tris, dtype=np.int64)


# ---------------------------------------------------------------------------
# helpers only tests use: the blocks at given penalties, a solve from
# scratch, the discrete consistency probe, interpolation and point
# evaluation, mesh quality, the discrete Poincaré ratio and the
# continuous-dependence reference curves


def primal_stab(space, problem):
    """Unit s_V of a trial space, from its own data-face operator for `problem`."""
    rows, _ = face_operator(space, BoundaryPart.DATA, interior_rows(space), problem)
    return assemble_primal_stab(sp.vstack(rows, format="csr")[:, space.free_dofs])


def data_term(space, problem):
    """Unit g of a trial space for `problem`, from its own data-face operator."""
    rows, psi_hat = face_operator(space, BoundaryPart.DATA, interior_rows(space), problem)
    return assemble_data_term(sp.vstack(rows, format="csr")[:, space.free_dofs], psi_hat)


def fresh_report_data(space, problem, variant="jump"):
    """`analysis.report_data` of a trial space for `problem`, from its own
    data-face operator and, for the jump S_W, its own free-face operator
    (over all DOFs, so the rows of the test space's)."""
    inner = interior_rows(space)
    free_rows = face_operator(space, BoundaryPart.FREE, inner)[0] if variant == "jump" else None
    return report_data(space, problem, *face_operator(space, BoundaryPart.DATA, inner, problem),
                       free_rows)


def free_face_rows(space, variant):
    """The rows of the free-face operator B_W over all DOFs of a test space,
    from its own interior rows, for the jump S_W; None for the Galerkin S_W."""
    if variant == "jump":
        return face_operator(space, BoundaryPart.FREE, interior_rows(space))[0]
    return None


def free_face_operator(space):
    """The free-face operator B_W on the free DOFs of a test space, from its
    own interior rows."""
    return sp.vstack(free_face_rows(space, "jump"), format="csr")[:, space.free_dofs]


def dual_stab(space, variant):
    """Unit s_W of a test space, the jump one from its own free-face operator."""
    return assemble_dual_stab(space, free_face_operator(space) if variant == "jump" else None)


def volume_points(mesh):
    """Physical points of the shared volume rule in every triangle."""
    return cell_points(mesh, triangle_rule(VOLUME_DEGREE).points)


def saddle_pattern(blocks, trial, test):
    """The `solver.SaddlePattern` of the unit-penalty blocks of one mesh,
    stacked and analysed in one call."""
    return analysed_pattern(*stacked(blocks, trial, test))


def scaled(blocks, gamma_v, gamma_w):
    """The unit blocks at penalties γ_V and γ_W: s_V and g times γ_V, s_W
    times γ_W, or times 1 for the Galerkin s_W (blocks without B_W's rows);
    A and the load are shared with `blocks`."""
    f_w = 1.0 if blocks.free_rows is None else gamma_w
    return replace(blocks, s_v=gamma_v * blocks.s_v, s_w=f_w * blocks.s_w,
                   data=gamma_v * blocks.data)


def solve_from_scratch(mesh, degree, problem, gamma_v, gamma_w, variant="jump"):
    """Spaces, blocks at (γ_V, γ_W), saddle system and solve on `mesh`,
    without the drivers' per-mesh reuse.  Returns (solution, V, W, blocks)."""
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    blocks = scaled(assemble_blocks(trial, test, problem, variant), gamma_v, gamma_w)
    return solve(build_system(saddle_pattern(blocks, trial, test))), trial, test, blocks


def full_dof_unit_matrix(mesh, degree, problem, variant):
    """The unit saddle matrix stacked from blocks over all DOFs, as the
    pipeline did before the blocks were restricted at assembly: the blocks
    of the unconstrained space on `mesh` (which numbers the DOFs as the
    constrained trial and test spaces do), restricted to the free DOFs by
    `np.ix_` and stacked by `bmat` in canonical CSC form."""
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    full = build_space(mesh, degree)
    blocks = assemble_blocks(full, full, problem, variant)
    v_free, w_free = trial.free_dofs, test.free_dofs
    a = blocks.a[np.ix_(w_free, v_free)]
    unit = sp.bmat([[blocks.s_v[np.ix_(v_free, v_free)], a.T],
                    [a, -blocks.s_w[np.ix_(w_free, w_free)]]], format="csc")
    unit.sort_indices()
    return unit


def original_half(pattern):
    """The half H of `pattern`, kept in elimination order, in the original
    numbering (V unknowns before W unknowns): a COO matrix whose entry e is
    H's stored entry e, so its place is still `pattern.places[e]`."""
    h = pattern.half.tocoo()
    return sp.coo_matrix((h.data, (pattern.order[h.row], pattern.order[h.col])),
                         shape=h.shape)


def full_matrix(half):
    """The symmetric matrix H + Hᵀ − diag H of the stored half H = `half`
    of a saddle matrix, in canonical CSC form: every stored entry of H
    off the diagonal is mirrored, explicit zeros included."""
    h = half.tocoo()
    off = h.row != h.col
    return sp.csc_matrix((np.concatenate([h.data, h.data[off]]),
                          (np.concatenate([h.row, h.col[off]]),
                           np.concatenate([h.col, h.row[off]]))), shape=half.shape)


def discrete_consistency_probe(mesh, problem, degree, gamma_v, gamma_w, variant="jump",
                               probe=None, seed=0):
    """Manufacture data from a coefficient vector and check it is reproduced.

    With l := A v and g := S_V v for any v in the trial space, the coupled
    system is solved exactly by (u, z) = (v, 0); the return value is the max
    of the two recovery errors in the sup norm (zero up to solver accuracy).
    S_V comes from the data-face operator for `problem`, whose data sides
    are those of `mesh`; its flux is not read.
    """
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    if probe is None:
        rng = np.random.default_rng(seed)
        probe = rng.standard_normal(trial.num_dofs)
        probe[trial.dirichlet_dofs] = 0.0
    else:
        probe = np.asarray(probe, dtype=float)
        if np.any(probe[trial.dirichlet_dofs] != 0.0):
            raise ValueError("probe must vanish on constrained DOFs")

    s_v = primal_stab(trial, problem)
    a = assemble_stiffness(trial, test)
    # g = S_V v at unit γ_V; scaling makes it γ_V S_V v for the scaled S_V
    free = probe[trial.free_dofs]
    unit = BlockSystem(s_v=s_v, a=a, s_w=dual_stab(test, variant),
                       load=a @ free, data=s_v @ free, free_rows=free_face_rows(test, variant))
    sol = solve(build_system(saddle_pattern(scaled(unit, gamma_v, gamma_w), trial, test)))
    return float(max(np.abs(sol.u - probe).max(), np.abs(sol.z).max()))


class OracleFront(NamedTuple):
    """A front of `edge_list_analyse`: the fields of `solver.Front`, plus
    the stored entries `entries` of the front's columns and their places
    `places` in the front's own k × k pivot block and Z (`analyse` returns
    places for all fronts at once, in the whole workspace)."""

    start: int
    size: int
    v_pivots: int
    struct: np.ndarray
    entries: np.ndarray
    places: np.ndarray
    children: list
    twin: int


def edge_list_analyse(matrix, n_v, coords):
    """`solver.analyse` as it was written with per-subdomain edge lists,
    kept as the reference for its ordering and fronts: each subdomain
    carries the int64 edges (ei, ej) that start in it.

    Nested-dissection ordering and fronts of the symmetric pattern of
    `matrix`, whose first `n_v` unknowns are the V unknowns and whose
    unknowns are bisected by their positions `coords`: `order[p]` is the
    unknown eliminated at position p, and the fronts are in elimination
    order, every child before its parent.

    A subdomain of more than LEAF_SIZE unknowns that do not all share one
    coordinate is bisected at the median m of its wider coordinate c; its
    separator is the set of left-side unknowns with a matrix neighbour on
    the right, and its two parts are dissected in turn.  The right side is
    c ≥ m (c > m when that is all of it), or c > m when that cut's
    separator, found on the edge lists too, is smaller and its right side
    is not empty.  A separator is ordered V before W, then along the cut.
    On lattice positions a child's update then maps onto a few runs of
    consecutive front rows, which `_factor` adds as slices, and each run is
    cut where the front's pivot rows end.

    A front is the `twin` of the earliest front whose dense front matrix
    (its entries' values bit for bit and which entries are stored, in a
    k × k square L and Z), pivot counts, struct rows' V/W flags, children's
    classes (the twin's representative, or the child) and children's maps
    into the front are equal.
    """
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    counts = np.diff(indptr)
    cols = np.repeat(np.arange(n), counts)
    off = indices != cols
    # 0 or 1: left or right of the cut through the unknown's subdomain;
    # 2: in a separator
    label = np.zeros(n, dtype=np.int8)
    pivots, kids = [], []   # per node, children first

    def dissect(idx, ei, ej):
        """Nodes of the subdomain `idx`; the edges (ei, ej), sorted by ej,
        start in it and end in it or in a separator.  Returns the roots of
        its forest."""
        if not len(idx):
            return []
        pts = coords[idx]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        axis = int(np.argmax(hi - lo))
        if len(idx) > solver.LEAF_SIZE and hi[axis] > lo[axis]:
            c = pts[:, axis]
            median = np.partition(c, len(c) // 2)[len(c) // 2]
            right = c >= median
            if right.all():
                right = c > median
            label[idx] = right
            sep = np.unique(ei[(label[ei] == 0) & (label[ej] == 1)])
            # the cut c > median, when its separator is smaller and its
            # right part is not empty
            label[idx] = c > median
            other = np.unique(ei[(label[ei] == 0) & (label[ej] == 1)])
            if len(other) < len(sep) and (c > median).any():
                right, sep = c > median, other
            label[idx] = right
            label[sep] = 2
            tail = label[ei]
            roots = dissect(idx[label[idx] == 0], ei[tail == 0], ej[tail == 0])
            roots += dissect(idx[right], ei[tail == 1], ej[tail == 1])
            if not len(sep):
                return roots
            # V before W, then along the cut
            idx = sep[np.lexsort((coords[sep, 1 - axis], sep >= n_v))]
        else:
            roots = []
        pivots.append(idx)     # V unknowns first
        kids.append(roots)
        return [len(pivots) - 1]

    # int64 edges: numpy converts any other index array before a gather
    dissect(np.arange(n), indices[off].astype(np.int64), cols[off])
    order = np.concatenate([np.empty(0, dtype=np.int64)] + pivots)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)

    # the stored entries on and below the diagonal of the reordered matrix,
    # column by column in elimination order
    lens = counts[order]
    entries = np.repeat(indptr[order + 1] - np.cumsum(lens), lens) + np.arange(lens.sum())
    row = pos[indices[entries]]
    col = np.repeat(np.arange(n), lens)
    lower = row >= col
    entries, row, col = entries[lower], row[lower], col[lower]
    bounds = np.searchsorted(col, np.arange(n + 1))

    # row p of a front's column j is place slot[p] + j * stride[p] of the
    # front's slot: L (k × k) holds its pivot rows, Z (r × k) its struct rows
    slot = np.empty(n, dtype=np.int64)
    stride = np.empty(n, dtype=np.int64)
    fronts, structs, start = [], [], 0
    groups, dense = {}, []      # fronts with no twin by their sizes and children's classes
    for piv, children in zip(pivots, kids):
        k = len(piv)
        end = start + k
        span = slice(bounds[start], bounds[end])
        rows = row[span]
        above = [structs[c][np.searchsorted(structs[c], end):] for c in children]
        struct = np.unique(np.concatenate([rows[rows >= end]] + above))
        structs.append(struct)
        r = len(struct)
        slot[start:end] = np.arange(k)
        slot[struct] = np.arange(k * k, k * k + r)
        stride[start:end] = k
        stride[struct] = r
        links = []
        for c in children:
            loc = slot[structs[c]]
            height = len(loc)
            # runs (a, b, p): rows a .. b of the child go to consecutive
            # places p .. p + b - a of a column; they are cut where L ends
            heads = np.flatnonzero((np.diff(loc, prepend=-2) != 1) | (loc == k * k))
            firsts = loc[heads].tolist()
            runs = list(zip(heads.tolist(), heads[1:].tolist() + [height], firsts))
            split = bisect_left(firsts, k)
            shifted = loc - k * k   # rows of Z and of the update matrix
            # rows a .. end of the child go to consecutive front rows, a
            # slice, when the run from a reaches end
            update_runs = [(a, b, p - k * k, slice(p - k * k, p - k * k + height - a)
                            if b == height else shifted[a:]) for a, b, p in runs[split:]]
            # its rows cut .. go to Z in the rows of its first update run
            cut, z_rows = height, slice(0, 0)
            if update_runs:
                cut, _, _, z_rows = update_runs[0]
            links.append((c, cut, z_rows,
                          [(a, b, p, slice(p, p + cut - a) if b == cut else loc[a:cut])
                           for a, b, p in runs[:split]],
                          update_runs))
        v_pivots = int(np.count_nonzero(piv < n_v))
        own = slot[rows] + (col[span] - start) * stride[rows]
        values, stored = np.zeros(k * k + r * k), np.zeros(k * k + r * k, dtype=bool)
        values[own], stored[own] = matrix.data[entries[span]], True
        values = values.view(np.int64)      # compared bit for bit
        dense.append([values, stored, order[struct] >= n_v] + [slot[structs[c]] for c in children])
        classes = tuple(c if fronts[c].twin < 0 else fronts[c].twin for c in children)
        group = groups.setdefault((k, v_pivots, r, classes), [])
        twin = next((j for j in group if all(map(np.array_equal, dense[j], dense[-1]))), -1)
        if twin < 0:
            group.append(len(fronts))
        fronts.append(OracleFront(start, k, v_pivots, struct,
                            entries[span].astype(np.int32), own.astype(np.int32),
                            links, twin))
        start = end
    return order, fronts


def dof_coords(space):
    """(ndof, 2) physical positions of the DOFs: the vertices, then for P2 the
    face midpoints."""
    points, ends = space.mesh.vertices, space.mesh.face_vertices
    return (points if space.degree == 1
            else np.vstack([points, 0.5 * (points[ends[:, 0]] + points[ends[:, 1]])]))


def nodal_interpolant(space, field):
    """Coefficients of the pointwise interpolant: field values at DOF nodes."""
    coords = dof_coords(space)
    return np.asarray(field(coords[:, 0], coords[:, 1]), dtype=float)


def shape_eval(degree, point):
    """(values, gradients) of the local basis at one reference point."""
    pt = np.asarray(point, dtype=float).reshape(1, 2)
    return shape_values(degree, pt)[0], shape_grads(degree, pt)[0]


def locate_point(mesh, x, y, tol=1e-10):
    """Brute-force point location: (triangle, reference coords)."""
    pts = mesh.vertices[mesh.triangles]
    xi = reference_coords(pts, mesh.jinv, np.array([[[x, y]]], dtype=float))[:, 0]
    inside = np.flatnonzero((xi >= -tol).all(axis=1) & (xi.sum(axis=1) <= 1.0 + tol))
    if not len(inside):
        raise ValueError(f"point ({x:g}, {y:g}) lies in no triangle")
    return int(inside[0]), xi[inside[0]]


def eval_fe(space, coeffs, x, y):
    """Value of the finite element function with given coefficients at (x, y)."""
    t, xi = locate_point(space.mesh, x, y)
    vals = shape_values(space.degree, xi.reshape(1, 2))[0]
    return float(coeffs[space.cell_dofs[t]] @ vals)


def min_angle_deg(mesh):
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.vertices[mesh.triangles]
    worst = np.inf
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = (a * b).sum(1) / (np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]))
        worst = min(worst, np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min())
    return worst


def poincare_ratio(space, stab_matrix, stiffness, samples=100, seed=0):
    """max over random free vectors of h ‖∇v_h‖ / |v_h|_stab.

    Boundedness of this ratio across refinement levels is the computable
    shadow of the discrete Poincaré inequality; vectors with negligible
    stabilizer norm are skipped.
    """
    h = mesh_size(space.mesh)
    rng = np.random.default_rng(seed)
    free = space.free_dofs
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(len(free))     # the blocks are on the free DOFs
        stab = math.sqrt(max(float(v @ (stab_matrix @ v)), 0.0))
        if stab < 1e-14:
            continue
        energy = math.sqrt(max(float(v @ (stiffness @ v)), 0.0))
        worst = max(worst, h * energy / stab)
    return worst


@dataclass(frozen=True)
class XiCurve:
    """Modulus-of-continuity curve: C x^ς or C (|log x| + offset)^(-ς)."""

    kind: str           # "hoelder" | "logarithmic"
    scale: float        # C > 0
    exponent: float     # ς > 0, intended range (0, 1)
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in ("hoelder", "logarithmic"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.scale <= 0 or self.exponent <= 0 or self.offset < 0:
            raise ValueError("need scale > 0, exponent > 0, offset >= 0")


def xi_eval(curve, x):
    """Evaluate a reference curve at x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("reference curves are defined on (0, 1)")
    if curve.kind == "hoelder":
        return curve.scale * x ** curve.exponent
    return curve.scale * (abs(math.log(x)) + curve.offset) ** (-curve.exponent)


def xi_fit(xs, ys, kind="hoelder", offset=1.0):
    """Least-squares fit of (C, ς) on log-transformed data, for plot overlays."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0) or np.any(xs >= 1) or np.any(ys <= 0):
        raise ValueError("fit needs x in (0, 1) and positive values")
    if kind == "hoelder":
        design = np.log(xs)
    elif kind == "logarithmic":
        design = -np.log(np.abs(np.log(xs)) + offset)
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    coef = np.polyfit(design, np.log(ys), 1)
    exponent = min(max(float(coef[0]), 1e-6), 1.0 - 1e-6)
    return XiCurve(kind=kind, scale=float(np.exp(coef[1])), exponent=exponent,
                   offset=offset)
