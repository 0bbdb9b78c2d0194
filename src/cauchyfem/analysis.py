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

import numpy as np

from .assembly import VOLUME_DEGREE, face_operator
from .mesh import BoundaryPart, mesh_size
from .spaces import cell_points, shape_grads, shape_values, triangle_rule

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


def _region_triangles(mesh, region):
    if region == "global":
        return np.arange(mesh.num_triangles)
    if region != "local":
        raise ValueError("region must be 'global' or 'local'")
    (x0, y0), (x1, y1) = LOCAL_WINDOW
    bary = mesh.vertices[mesh.triangles].mean(axis=1)
    keep = (bary[:, 0] > x0) & (bary[:, 0] < x1) & (bary[:, 1] > y0) & (bary[:, 1] < y1)
    return np.flatnonzero(keep)


def _volume_points(mesh, cells):
    """Volume rule, its physical points (nt, nq, 2), det J and J^{-1} on cells."""
    rule = triangle_rule(VOLUME_DEGREE)
    return (rule,) + cell_points(mesh.vertices[mesh.triangles[cells]], rule.points)


def _root_integral(rule, det, values):
    """sqrt of Σ_t det_t Σ_q w_q values[t, q]."""
    return math.sqrt(max(float(det @ (values @ rule.weights)), 0.0))


def l2_error(space, uh, exact_u, region="global"):
    """‖u - u_h‖ over Ω or the local window ω.

    `uh` is either a coefficient vector or a callable field; passing the exact
    solution itself as a field gives zero, which pins down the quadrature path.
    """
    cells = _region_triangles(space.mesh, region)
    rule, phys, det, _ = _volume_points(space.mesh, cells)
    x, y = phys[..., 0], phys[..., 1]
    if callable(uh):
        uh_q = uh(x, y)
    else:
        uh_q = uh[space.cell_dofs[cells]] @ shape_values(space.degree, rule.points).T
    diff = exact_u(x, y) - uh_q
    return _root_integral(rule, det, diff * diff)


def l2_norm_field(mesh, field, region="global"):
    """‖field‖ over Ω or ω by the shared volume rule."""
    rule, phys, det, _ = _volume_points(mesh, _region_triangles(mesh, region))
    fq = field(phys[..., 0], phys[..., 1])
    return _root_integral(rule, det, fq * fq)


def h1_semi_error(space, coeffs, exact_grad):
    """‖∇u - ∇u_h‖ over Ω."""
    rule, phys, det, jinv = _volume_points(space.mesh,
                                           _region_triangles(space.mesh, "global"))
    # reference gradient of u_h first, (nt, nq, 2), then the per-triangle map
    g_ref = np.tensordot(coeffs[space.cell_dofs], shape_grads(space.degree, rule.points),
                         axes=(1, 1))
    gh = g_ref @ jinv
    gx, gy = exact_grad(phys[..., 0], phys[..., 1])
    dx, dy = gx - gh[..., 0], gy - gh[..., 1]
    return _root_integral(rule, det, dx * dx + dy * dy)


def stab_seminorm_u(space, coeffs, problem, gamma_v):
    """|u - u_h| in the primal stabilizer, computed from the data.

    The smooth solution contributes no interior gradient or Laplacian jumps,
    so interior faces see -[∂_n u_h] while data faces see ψ - ∂_n u_h: the
    value is √γ_V ‖ψ̂ - B u_h‖ with the data-boundary face operator.  This
    residual form keeps the digits that u_hᵀ S_V u_h - 2 gᵀu_h + γ_V ‖ψ̂‖²
    loses to cancellation.
    """
    b, psi_hat = face_operator(space, BoundaryPart.DATA, problem)
    residual = psi_hat - b @ coeffs
    return math.sqrt(gamma_v * float(residual @ residual))


def stab_seminorm_z(coeffs, stab_matrix):
    """|z_h| in the dual stabilizer: the matrix quadratic form."""
    return math.sqrt(max(float(coeffs @ (stab_matrix @ coeffs)), 0.0))


def eta(h, f_l2, stab_u, stab_z):
    """A posteriori quantity h ‖f‖ + |u - u_h|_sV + |z_h|_sW (constants = 1)."""
    return h * f_l2 + stab_u + stab_z


def error_report(solution, trial, test, blocks, problem):
    """All error quantities for one solve, for convergence tables."""
    if not problem.has_exact:
        raise ValueError("error report needs the exact solution")
    h = mesh_size(trial.mesh)
    stab_u = stab_seminorm_u(trial, solution.u, problem, blocks.gamma_v)
    stab_z = stab_seminorm_z(solution.z, blocks.s_w)
    return ErrorReport(
        h=h,
        dofs_v=trial.num_dofs,
        dofs_w=test.num_dofs,
        global_l2=l2_error(trial, solution.u, problem.exact_u, "global"),
        local_l2=l2_error(trial, solution.u, problem.exact_u, "local"),
        h1_semi=h1_semi_error(trial, solution.u, problem.exact_grad),
        stab_u=stab_u,
        stab_z=stab_z,
        eta=eta(h, l2_norm_field(trial.mesh, problem.f), stab_u, stab_z),
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
        v = np.zeros(space.num_dofs)
        v[free] = rng.standard_normal(len(free))
        stab = math.sqrt(max(float(v @ (stab_matrix @ v)), 0.0))
        if stab < 1e-14:
            continue
        energy = math.sqrt(max(float(v @ (stiffness @ v)), 0.0))
        worst = max(worst, h * energy / stab)
    return worst


# ---------------------------------------------------------------------------
# continuous-dependence reference curves

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
