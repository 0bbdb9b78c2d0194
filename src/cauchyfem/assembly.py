"""Assembly of the primal-dual system blocks.

The discrete problem couples a primal unknown u_h (trial space V, zero trace
on the data boundary) with a dual variable z_h (space W, zero trace on the
free boundary):

    a(u_h, w) - s_W(z_h, w) = l(w)          for all w in W_h
    a(v, z_h) + s_V(u_h, v) = g(v)          for all v in V_h

with a(u, w) = ∫ ∇u·∇w, the gradient-jump penalties s_V (interior faces plus
the data boundary) and s_W (Galerkin energy, or jumps over interior faces plus
the free boundary), l(w) = ∫ f w + ∫_data ψ w, and the data functional
g(v) = γ_V Σ_data ∫ h_F ψ ∂_n v.  For quadratics both penalties gain an
h_F³-weighted jump of the elementwise Laplacian on interior faces.

Assembly builds the penalties and g at unit γ; `penalty_factors` gives the
factors with which `solver.build_system` scales the saddle matrix.

Every kernel works on all triangles or faces at once: J and J⁻¹ are the
mesh's, face traces are rows of reference-edge tables, and the quadrature sums
are einsums.  The jump penalties come from the sparse face-trace operator
(`face_operator`); one data-face B per mesh gives S_V, g and |u - u_h|_{s_V}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryPart
from .spaces import (cell_points, edge_tables, segment_rule, shape_grads,
                     shape_hessians, shape_values, triangle_rule)

#: volume rule shared by loads and error integrals (exact for quartic data
#: against quadratic basis functions)
VOLUME_DEGREE = 8
#: face rule for integrals involving boundary data
FACE_DATA_DEGREE = 9

SW_VARIANTS = ("galerkin", "jump")


@dataclass(frozen=True)
class BlockSystem:
    """Assembled operators over the full (unconstrained) DOF sets.

    s_v      (n_V, n_V) primal stabilizer BᵀB, symmetric PSD, unit penalty
    a        (n_W, n_V) stiffness, rows test against W basis functions
    s_w      (n_W, n_W) dual stabilizer, symmetric PSD (unit penalty for the
             jump variant; the Galerkin variant is the plain energy matrix)
    load     (n_W,) right side l
    data     (n_V,) right side g = Bᵀψ̂ built from the flux data, unit penalty
    b, psi_hat  the trial space's data-face operator B and data vector ψ̂
    """

    s_v: sp.csr_matrix
    a: sp.csr_matrix
    s_w: sp.csr_matrix
    load: np.ndarray
    data: np.ndarray
    variant: str
    b: sp.csr_matrix
    psi_hat: np.ndarray


def penalty_factors(variant, gamma_v, gamma_w):
    """The factors of S_V (and g), A and S_W at penalties γ_V, γ_W, in the
    order of `solver.build_system`: the Galerkin s_W carries no penalty."""
    return gamma_v, 1.0, 1.0 if variant == "galerkin" else gamma_w


def _sample_field(name, field, x, y, *normal):
    """Values of a data field at the points (x, y), checked to be finite."""
    vals = np.broadcast_to(np.asarray(field(x, y, *normal), dtype=float), x.shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        at = np.unravel_index(bad[0], x.shape)
        raise ValueError(f"{name} is not finite at ({x[at]:g}, {y[at]:g})")
    return vals


def assemble_stiffness(trial, test):
    """Stiffness matrix A[i, j] = ∫ ∇φ_j^trial · ∇φ_i^test."""
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces must share one mesh")
    mesh = trial.mesh
    rule = triangle_rule(max(2 * (max(trial.degree, test.degree) - 1), 1))
    # ∇φ_i·∇φ_j = g_i J⁻¹ J⁻ᵀ g_jᵀ with reference gradients g: the quadrature
    # sum over reference gradients is shared, each triangle adds its metric
    ref = np.einsum("q,qia,qjb->ijab", rule.weights,
                    shape_grads(test.degree, rule.points),
                    shape_grads(trial.degree, rule.points))
    metric = mesh.det[:, None, None] * np.einsum("tac,tbc->tab", mesh.jinv, mesh.jinv)
    local = np.einsum("ijab,tab->tij", ref, metric)
    rows = np.broadcast_to(test.cell_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(trial.cell_dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(test.num_dofs, trial.num_dofs)).tocsr()


def _face_points(mesh, faces, rule):
    """Lengths (nf,), unit normals out of the left triangle (nf, 2) and
    quadrature points (nf, nq, 2) of the given faces."""
    pa = mesh.vertices[mesh.face_vertices[faces, 0]]
    tang = mesh.vertices[mesh.face_vertices[faces, 1]] - pa
    length = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    return length, normal, pa[:, None] + rule.points[None, :, None] * tang[:, None]


def _sample_flux(problem, normal, points):
    return _sample_field("flux psi", problem.psi, points[..., 0], points[..., 1],
                        normal[:, :1], normal[:, 1:])


def _edge_rows(mesh, table, cells, faces, side):
    """Rows (nf, nq, ...) of a `spaces.edge_tables` table for faces[f] seen from
    triangle cells[f], its left (side 0) or right (side 1) neighbor."""
    return table[np.argmax(mesh.tri_faces[cells] == faces[:, None], axis=1), side]


def _normal_derivs(space, rule_degree, cells, faces, side, normal):
    """∂φ/∂n of each basis function of cells[f] at the points of
    segment_rule(rule_degree) on faces[f], (nf, nq, nd)."""
    mesh = space.mesh
    grads = _edge_rows(mesh, edge_tables(space.degree, rule_degree)[1], cells, faces, side)
    # (g_ref J⁻¹)·n = g_ref·(J⁻¹ n)
    return np.einsum("fqia,fa->fqi", grads, np.einsum("fab,fb->fa", mesh.jinv[cells], normal))


def face_operator(space, part, problem=None):
    """Face-trace operator B (sparse) and data vector ψ̂ of the jump penalty.

    B has one row √w_q h_F [∂_n φ] per quadrature point of the interior faces,
    then one row √w_q h_F ∂_n φ per quadrature point of the faces of `part`
    (one-sided traces), and for degree 2 one row h_F² [Δφ] per interior face.
    So γ BᵀB is the penalty ∫ h_F [∂_n ·][∂_n ·] (+ h_F³ [Δ·][Δ·]).  ψ̂ is
    √w_q h_F ψ on the data-face rows and zero elsewhere (all zero without a
    problem or off the data part): γ Bᵀψ̂ is the data functional g, and
    √γ ‖ψ̂ - B u‖ is |u - u_h|_{s_V} for the smooth solution u.

    Interior and free-face jumps are polynomials of degree k - 1, so the rule
    of degree 2(k - 1) is exact for them; data faces use FACE_DATA_DEGREE
    because ψ is only known pointwise.
    """
    mesh = space.mesh
    jump_degree = max(2 * (space.degree - 1), 1)
    part_degree = FACE_DATA_DEGREE if part == BoundaryPart.DATA else jump_degree
    jump_rule, part_rule = segment_rule(jump_degree), segment_rule(part_degree)

    inner = mesh.interior_faces()
    left, right = mesh.face_tris[inner].T
    pair_dofs = np.hstack([space.cell_dofs[left], space.cell_dofs[right]])
    length, normal, _ = _face_points(mesh, inner, jump_rule)
    jumps = np.concatenate(
        [_normal_derivs(space, jump_degree, left, inner, 0, normal),
         -_normal_derivs(space, jump_degree, right, inner, 1, normal)], axis=2)
    blocks = [(length[:, None, None] * np.sqrt(jump_rule.weights)[:, None] * jumps,
               pair_dofs)]

    faces = mesh.faces_of_part(part)
    owner = mesh.face_tris[faces, 0]
    b_length, b_normal, b_points = _face_points(mesh, faces, part_rule)
    b_scale = b_length[:, None] * np.sqrt(part_rule.weights)
    blocks.append((b_scale[:, :, None] * _normal_derivs(space, part_degree, owner, faces,
                                                          0, b_normal),
                   space.cell_dofs[owner]))

    if space.degree == 2:
        lap = np.einsum("icd,tca,tda->ti", shape_hessians(2), mesh.jinv, mesh.jinv)
        blocks.append(((length ** 2)[:, None, None]
                       * np.hstack([lap[left], -lap[right]])[:, None], pair_dofs))

    # every row of a block has the block's width, so indptr is known up front
    widths = np.concatenate([np.full(vals.shape[0] * vals.shape[1], vals.shape[2])
                             for vals, _ in blocks])
    indptr = np.concatenate([[0], np.cumsum(widths)])
    data = np.concatenate([vals.ravel() for vals, _ in blocks])
    indices = np.concatenate([np.broadcast_to(dofs[:, None], vals.shape).ravel()
                              for vals, dofs in blocks])
    b = sp.csr_matrix((data, indices, indptr), shape=(len(widths), space.num_dofs))
    # DOFs shared by both sides of a face appear twice in a row; merging them
    # makes (BᵀB)_ij and (BᵀB)_ji the same sum in the same order, so the
    # penalty is exactly symmetric
    b.sum_duplicates()

    psi_hat = np.zeros(b.shape[0])
    if part == BoundaryPart.DATA and problem is not None:
        start = len(inner) * len(jump_rule.weights)
        psi_hat[start:start + b_scale.size] = (
            b_scale * _sample_flux(problem, b_normal, b_points)).ravel()
    return b, psi_hat


def assemble_primal_stab(b):
    """Unit primal stabilizer s_V = BᵀB: jumps over interior faces and the data
    boundary, from the trial space's `face_operator(trial, BoundaryPart.DATA)`."""
    return b.T.tocsr() @ b


def assemble_dual_stab(space, variant):
    """Dual stabilizer s_W: either the Galerkin energy a(z, w) itself (no γ)
    or unit jumps over interior faces and the free boundary."""
    if variant == "galerkin":
        return assemble_stiffness(space, space)
    if variant == "jump":
        b, _ = face_operator(space, BoundaryPart.FREE)
        return b.T.tocsr() @ b
    raise ValueError(f"unknown dual stabilizer variant {variant!r}; "
                     f"expected one of {SW_VARIANTS}")


def assemble_load(space, problem):
    """Load vector l[i] = ∫ f φ_i + Σ_data ∫ ψ φ_i."""
    mesh = space.mesh
    rule = triangle_rule(VOLUME_DEGREE)
    phys = cell_points(mesh, rule.points)
    fq = _sample_field("source f", problem.f, phys[..., 0], phys[..., 1])
    cell = mesh.det[:, None] * ((fq * rule.weights) @ shape_values(space.degree, rule.points))

    frule = segment_rule(FACE_DATA_DEGREE)
    faces = mesh.faces_of_part(BoundaryPart.DATA)
    owner = mesh.face_tris[faces, 0]
    length, normal, points = _face_points(mesh, faces, frule)
    trace = _edge_rows(mesh, edge_tables(space.degree, FACE_DATA_DEGREE)[0], owner, faces, 0)
    face = length[:, None] * np.einsum(
        "fq,fqi->fi", _sample_flux(problem, normal, points) * frule.weights, trace)

    dofs = np.concatenate([space.cell_dofs.ravel(), space.cell_dofs[owner].ravel()])
    return np.bincount(dofs, weights=np.concatenate([cell.ravel(), face.ravel()]),
                       minlength=space.num_dofs)


def assemble_data_term(b, psi_hat):
    """Unit data functional g[i] = Σ_data ∫ h_F ψ ∂_n φ_i = Bᵀψ̂, with B and ψ̂
    from `face_operator(trial, BoundaryPart.DATA, problem)`: the primal
    stabilizer applied to the smooth exact solution, whose interior jumps
    vanish."""
    return b.T @ psi_hat


def assemble_blocks(trial, test, problem, variant="jump"):
    """Assemble every operator and functional of the coupled system at unit
    penalties (`penalty_factors` applies γ).  One data-face operator B gives
    S_V = BᵀB and g = Bᵀψ̂, and is kept with ψ̂ for the error report."""
    b, psi_hat = face_operator(trial, BoundaryPart.DATA, problem)
    return BlockSystem(s_v=assemble_primal_stab(b), a=assemble_stiffness(trial, test),
                       s_w=assemble_dual_stab(test, variant),
                       load=assemble_load(test, problem),
                       data=assemble_data_term(b, psi_hat), variant=variant,
                       b=b, psi_hat=psi_hat)

