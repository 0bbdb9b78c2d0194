"""Error norms, stabilization semi-norms, the a posteriori quantity, rates.

The local error window ω = (0.5, 1) × (0, 0.5) follows the interior-functional
setting: an element belongs to ω when its barycenter does, which is exact on
unjittered even-n meshes whose element edges align with x = 0.5 and y = 0.5.
Unknown continuity constants are set to 1 throughout, so the reported
estimator is a monitorable surrogate, not a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .assembly import VOLUME_DEGREE
from .mesh import mesh_size
from .spaces import (FeSpace, QuadratureRule, cell_points, shape_grads,
                     shape_values, triangle_rule)

#: lower-left and upper-right corners of the local error window
LOCAL_WINDOW = ((0.5, 0.0), (1.0, 0.5))


@dataclass(frozen=True)
class ErrorReport:
    h: float
    dofs_v: int
    dofs_w: int
    global_l2: float
    local_l2: float
    h1_semi: float
    stab_u: float
    stab_z: float
    eta: float


def _local_triangles(mesh):
    (x0, y0), (x1, y1) = LOCAL_WINDOW
    bary = mesh.vertices[mesh.triangles].mean(axis=1)
    keep = (bary[:, 0] > x0) & (bary[:, 0] < x1) & (bary[:, 1] > y0) & (bary[:, 1] < y1)
    return np.flatnonzero(keep)


def _root_integral(rule, det, values):
    """sqrt of Σ_t det_t Σ_q w_q values[t, q]."""
    return math.sqrt(max(float(det @ (values @ rule.weights)), 0.0))


@dataclass(frozen=True)
class ReportData:
    """The γ-free part of the error report on one trial space.

    The volume rule, the exact u and ∇u at its points ((nt, nq) and (nt, nq, 2);
    None where the problem does not know them), the triangles of ω, h, ‖f‖ and
    the free-DOF data-face operator B with ψ̂ that S_V and g came from
    (`BlockSystem.b`).  Built once per mesh; a report evaluates no exact field.
    """

    space: FeSpace
    rule: QuadratureRule
    exact_u: Optional[np.ndarray]
    exact_grad: Optional[np.ndarray]
    local: np.ndarray
    h: float
    f_l2: float
    b: sp.csr_matrix
    psi_hat: np.ndarray


def report_data(space, problem, b, psi_hat):
    """ReportData of the trial space `space` for `problem`, with its B and ψ̂."""
    mesh = space.mesh
    rule = triangle_rule(VOLUME_DEGREE)
    points = cell_points(mesh, rule.points)
    x, y = points[..., 0], points[..., 1]
    return ReportData(space=space, rule=rule,
                      exact_u=None if problem.exact_u is None else problem.exact_u(x, y),
                      exact_grad=None if problem.exact_grad is None
                      else np.stack(problem.exact_grad(x, y), axis=-1),
                      local=_local_triangles(mesh), h=mesh_size(mesh),
                      f_l2=l2_norm_field(mesh, problem.f, points), b=b, psi_hat=psi_hat)


def _exact(values):
    if values is None:
        raise ValueError("error report needs the exact solution")
    return values


def l2_error(data, coeffs, region="global"):
    """‖u - u_h‖ over Ω or the local window ω."""
    if region not in ("global", "local"):
        raise ValueError("region must be 'global' or 'local'")
    cells = slice(None) if region == "global" else data.local
    space = data.space
    values = shape_values(space.degree, data.rule.points)
    diff = _exact(data.exact_u)[cells] - coeffs[space.cell_dofs[cells]] @ values.T
    return _root_integral(data.rule, space.mesh.det[cells], diff * diff)


def l2_norm_field(mesh, field, points):
    """‖field‖ over Ω by the shared volume rule at its physical `points`."""
    fq = field(points[..., 0], points[..., 1])
    return _root_integral(triangle_rule(VOLUME_DEGREE), mesh.det, fq * fq)


def h1_semi_error(data, coeffs):
    """‖∇u - ∇u_h‖ over Ω."""
    space = data.space
    # reference gradient of u_h first, (nt, nq, 2), then the per-triangle map
    g_ref = np.tensordot(coeffs[space.cell_dofs], shape_grads(space.degree, data.rule.points),
                         axes=(1, 1))
    diff = _exact(data.exact_grad) - g_ref @ space.mesh.jinv
    dx, dy = diff[..., 0], diff[..., 1]
    return _root_integral(data.rule, space.mesh.det, dx * dx + dy * dy)


def stab_seminorm_u(data, coeffs, gamma_v):
    """|u - u_h| in the primal stabilizer, computed from the data.

    The smooth solution contributes no interior gradient or Laplacian jumps,
    so interior faces see -[∂_n u_h] while data faces see ψ - ∂_n u_h: the
    value is √γ_V ‖ψ̂ - B u_h‖ with the data-boundary face operator.  This
    residual form keeps the digits that u_hᵀ S_V u_h - 2 gᵀu_h + γ_V ‖ψ̂‖²
    loses to cancellation.  B reads the free DOFs of `coeffs`.
    """
    residual = data.psi_hat - data.b @ coeffs[data.space.free_dofs]
    return math.sqrt(gamma_v * float(residual @ residual))


def stab_seminorm_z(coeffs, b):
    """|z_h| in the unit jump dual stabilizer s_W = B_WᵀB_W for the free W
    coefficients: ‖B_W z‖, a residual form that keeps the digits the
    quadratic form loses."""
    jumps = b @ coeffs
    return math.sqrt(float(jumps @ jumps))


def error_report(solution, data, gamma_v, stab_z):
    """All error quantities of one solve, from the ReportData of its mesh, its
    primal penalty γ_V and its |z_h|_{s_W}; η is the a posteriori quantity
    h ‖f‖ + |u - u_h|_{s_V} + |z_h|_{s_W} (continuity constants 1)."""
    stab_u = stab_seminorm_u(data, solution.u, gamma_v)
    return ErrorReport(
        h=data.h,
        dofs_v=len(solution.u),
        dofs_w=len(solution.z),
        global_l2=l2_error(data, solution.u, "global"),
        local_l2=l2_error(data, solution.u, "local"),
        h1_semi=h1_semi_error(data, solution.u),
        stab_u=stab_u,
        stab_z=stab_z,
        eta=data.h * data.f_l2 + stab_u + stab_z,
    )


def convergence_rate(values, hs):
    """Observed rates log(v_{i-1}/v_i) / log(h_{i-1}/h_i) between levels."""
    values = np.asarray(values, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if len(values) != len(hs) or len(values) < 2:
        raise ValueError("need two equally long sequences")
    if np.any(values <= 0) or np.any(hs <= 0):
        raise ValueError("rates need positive values and mesh sizes")
    return list(np.log(values[:-1] / values[1:]) / np.log(hs[:-1] / hs[1:]))
