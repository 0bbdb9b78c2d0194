import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyfem.analysis import (convergence_rate, error_report, h1_semi_error,
                                l2_error, l2_norm_field, stab_seminorm_u,
                                stab_seminorm_z)
from cauchyfem.assembly import assemble_stiffness
from cauchyfem.mesh import BoundaryPart, mesh_size, unit_square_mesh
from cauchyfem.problem import CauchyProblem
from cauchyfem.solver import DiscreteSolution
from cauchyfem.spaces import build_space

from .oracles import (XiCurve, dual_stab, fe_jump_seminorm, fresh_report_data,
                      nodal_interpolant, oracle_volume_norms, poincare_ratio, primal_stab,
                      solve_from_scratch, volume_points, xi_eval, xi_fit)

GAMMA = 0.01

# analytic integrals of the quartic bump: ∫ u² = 900/30² = 1 over Ω,
# 900/60² = 1/4 over the local window; Σ_data h_F ∫ ψ² = 60/n; ∫ f² = 440
F_L2_SQ = 440.0


def test_zero_solution_anchors(mesh8, problem):
    space = build_space(mesh8, 1, BoundaryPart.DATA)
    zero = np.zeros(space.num_dofs)
    data = fresh_report_data(space, problem)
    assert l2_error(data, zero, "global") == pytest.approx(1.0, abs=1e-10)
    assert l2_error(data, zero, "local") == pytest.approx(0.5, abs=1e-10)


def test_field_path_gives_zero_error(mesh4, problem):
    # u_h and the cached exact values are taken at the same quadrature points:
    # an exact solution in the space has zero error in every norm
    affine = CauchyProblem(f=problem.f, psi=problem.psi,
                           exact_u=lambda x, y: 3.0 * x - y + 1.0,
                           exact_grad=lambda x, y: (3.0 + 0.0 * x, -1.0 + 0.0 * y))
    space = build_space(unit_square_mesh(4, jitter=0.2, seed=5), 1, BoundaryPart.DATA)
    data = fresh_report_data(space, affine)
    coeffs = nodal_interpolant(space, affine.exact_u)
    assert l2_error(data, coeffs, "global") < 1e-12
    assert l2_error(data, coeffs, "local") < 1e-12
    assert h1_semi_error(data, coeffs) < 1e-12


def test_volume_rule_agrees_with_the_oracle_rule(problem):
    # the shared 16-point rule and the oracles' 25-point collapsed Gauss rule
    # are both exact to degree 8, which covers (u - u_h)² for P2 and the
    # quartic u, so on a jittered mesh they agree to rounding
    mesh = unit_square_mesh(8, jitter=0.2, seed=7, data_sides=problem.data_sides)
    sol, trial, *_ = solve_from_scratch(mesh, 2, problem, GAMMA, GAMMA, "jump")
    data = fresh_report_data(trial, problem)
    report = error_report(sol, data, GAMMA, GAMMA)
    got = (report.global_l2, report.local_l2, report.h1_semi, data.f_l2)
    assert got == pytest.approx(tuple(oracle_volume_norms(trial, sol.u, problem)),
                                rel=1e-12)


def test_local_error_never_exceeds_global(mesh4, problem):
    sol, trial, *_ = solve_from_scratch(mesh4, 1, problem, GAMMA, GAMMA, "jump")
    data = fresh_report_data(trial, problem)
    glob = l2_error(data, sol.u, "global")
    local = l2_error(data, sol.u, "local")
    assert 0.0 <= local <= glob


def test_l2_error_names_an_unknown_region(mesh2, problem):
    space = build_space(mesh2, 1, BoundaryPart.DATA)
    with pytest.raises(ValueError, match="region 'window' must be 'global' or 'local'"):
        l2_error(fresh_report_data(space, problem), np.zeros(space.num_dofs), "window")


def test_interpolation_error_decays_cubically_for_quadratics(problem):
    errs, hs = [], []
    for n in (8, 16):
        mesh = unit_square_mesh(n)
        space = build_space(mesh, 2)
        coeffs = nodal_interpolant(space, problem.exact_u)
        errs.append(l2_error(fresh_report_data(space, problem), coeffs))
        hs.append(mesh_size(mesh))
    rate = convergence_rate(errs, hs)[0]
    assert 2.5 < rate < 3.5


@pytest.mark.parametrize("degree", [1, 2])
def test_stab_u_zero_solution_closed_form(degree, problem):
    n = 4
    mesh = unit_square_mesh(n)
    space = build_space(mesh, degree, BoundaryPart.DATA)
    zero = np.zeros(space.num_dofs)
    value = stab_seminorm_u(fresh_report_data(space, problem), zero, GAMMA)
    assert value == pytest.approx(math.sqrt(GAMMA * 60.0 / n), abs=1e-12)


def test_stab_u_interpolated_affine_has_interior_zero(mesh4):
    space = build_space(mesh4, 1, BoundaryPart.DATA)
    v = nodal_interpolant(space, lambda x, y: 3.0 * x - y)
    assert fe_jump_seminorm(space, v, GAMMA, boundary_part=None) < 1e-13


def test_stab_z_trivial_cases(mesh4, problem):
    # constants: on the unconstrained space, where they live
    space = build_space(mesh4, 1)
    data = fresh_report_data(space, problem)
    assert stab_seminorm_z(data, np.zeros(space.num_dofs), 1.0) == 0.0
    assert stab_seminorm_z(data, np.ones(space.num_dofs), 1.0) < 1e-13


@pytest.mark.parametrize("degree", [1, 2])
def test_galerkin_stab_z_of_an_affine_field_closed_form(degree, problem):
    # the Galerkin S_W carries no penalty: |z|_{s_W} = ‖∇z‖ = |(1, 2)| = √5
    # on the unit square for z = x + 2y, which both degrees interpolate exactly
    space = build_space(unit_square_mesh(4, jitter=0.2, seed=6), degree, BoundaryPart.FREE)
    data = fresh_report_data(space, problem, "galerkin")
    z = nodal_interpolant(space, lambda x, y: x + 2.0 * y)
    for gamma in (1e-4, 0.01, 1.0):
        assert stab_seminorm_z(data, z, gamma) == pytest.approx(math.sqrt(5.0), abs=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("variant", ["galerkin", "jump"])
def test_quadratic_form_matches_face_quadrature(degree, variant, problem):
    mesh = unit_square_mesh(3, jitter=0.1, seed=4)
    rng = np.random.default_rng(degree)
    for part, matrix_of in ((BoundaryPart.DATA, primal_stab),
                            (BoundaryPart.FREE, None)):
        space = build_space(mesh, degree, part)
        if matrix_of is not None:
            s = GAMMA * matrix_of(space, problem)
        elif variant == "galerkin":
            continue  # Galerkin form is not a face functional
        else:
            s = GAMMA * dual_stab(space, variant)
        v = rng.standard_normal(space.num_dofs)
        v[space.dirichlet_dofs] = 0.0   # the matrices are on the free DOFs
        direct = fe_jump_seminorm(space, v, GAMMA, boundary_part=part)
        free = v[space.free_dofs]
        assert direct == pytest.approx(math.sqrt(free @ (s @ free)), abs=1e-12)


def test_estimator_zero_for_dataless_problem(mesh2):
    silent = CauchyProblem(f=lambda x, y: 0.0 * x,
                           psi=lambda x, y, nx, ny: 0.0 * x)
    space = build_space(mesh2, 1, BoundaryPart.DATA)
    zero = np.zeros(space.num_dofs)
    stab_u = stab_seminorm_u(fresh_report_data(space, silent), zero, GAMMA)
    h = mesh_size(mesh2)
    assert h * l2_norm_field(mesh2, silent.f, volume_points(mesh2)) + stab_u == 0.0


def test_error_quantities_need_the_exact_solution(mesh2, problem):
    space = build_space(mesh2, 1, BoundaryPart.DATA)
    zero = np.zeros(space.num_dofs)
    full = fresh_report_data(space, problem)
    u_only = fresh_report_data(space, CauchyProblem(f=problem.f, psi=problem.psi,
                                                    exact_u=problem.exact_u))
    assert l2_error(u_only, zero) == l2_error(full, zero)
    with pytest.raises(ValueError, match="needs the exact solution"):
        h1_semi_error(u_only, zero)
    dataless = fresh_report_data(space, CauchyProblem(f=problem.f, psi=problem.psi))
    assert stab_seminorm_u(dataless, zero, GAMMA) == stab_seminorm_u(full, zero, GAMMA)
    solution = DiscreteSolution(u=zero, z=np.zeros(space.num_dofs), residual=0.0)
    with pytest.raises(ValueError, match="needs the exact solution"):
        error_report(solution, dataless, GAMMA, GAMMA)


def test_estimator_zero_solution_closed_form(problem):
    n = 4
    mesh = unit_square_mesh(n)
    space = build_space(mesh, 1, BoundaryPart.DATA)
    zero = np.zeros(space.num_dofs)
    expected = (math.sqrt(2.0) / n) * math.sqrt(F_L2_SQ) + math.sqrt(GAMMA * 60.0 / n)
    value = (mesh_size(mesh) * l2_norm_field(mesh, problem.f, volume_points(mesh))
             + stab_seminorm_u(fresh_report_data(space, problem), zero, GAMMA))
    assert value == pytest.approx(expected, abs=1e-10)


def test_report_estimator_dominates_seminorms(mesh4, problem):
    sol, trial, *_ = solve_from_scratch(mesh4, 1, problem, GAMMA, GAMMA, "jump")
    report = error_report(sol, fresh_report_data(trial, problem), GAMMA, GAMMA)
    assert report.eta >= report.stab_u + report.stab_z
    assert report.local_l2 <= report.global_l2
    assert report.dofs_v == report.dofs_w == trial.num_dofs


# ---------------------------------------------------------------------------
# rates

def test_rate_examples():
    assert convergence_rate((0.2, 0.1), (0.1, 0.05)) == pytest.approx([1.0])
    assert convergence_rate((0.4, 0.1), (0.1, 0.05)) == pytest.approx([2.0])
    assert convergence_rate((0.3, 0.3, 0.3), (0.4, 0.2, 0.1)) == pytest.approx([0.0, 0.0])


def test_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        convergence_rate((1.0,), (0.5,))
    with pytest.raises(ValueError):
        convergence_rate((1.0, -1.0), (0.5, 0.25))
    with pytest.raises(ValueError):
        convergence_rate((1.0, 1.0), (0.5, 0.0))


@settings(max_examples=30, deadline=None)
@given(rate=st.floats(0.1, 4.0), scale=st.floats(0.01, 10.0))
def test_rate_recovers_power_law(rate, scale):
    hs = np.array([0.2, 0.1, 0.05])
    values = scale * hs ** rate
    assert np.allclose(convergence_rate(values, hs), rate, atol=1e-10)


# ---------------------------------------------------------------------------
# discrete Poincaré ratio

def test_poincare_ratio_finite_and_bounded_across_levels(problem):
    ratios = []
    for n in (8, 16, 32):
        mesh = unit_square_mesh(n)
        space = build_space(mesh, 1, BoundaryPart.DATA)
        s_v = GAMMA * primal_stab(space, problem)
        stiff = assemble_stiffness(space, space)
        r = poincare_ratio(space, s_v, stiff, samples=100, seed=n)
        assert np.isfinite(r) and r > 0
        ratios.append(r)
    assert max(ratios) / min(ratios) < 10.0


# ---------------------------------------------------------------------------
# reference curves

def test_hoelder_curve_value():
    assert xi_eval(XiCurve("hoelder", 1.0, 0.5), 0.25) == pytest.approx(0.5)


def test_logarithmic_curve_value():
    curve = XiCurve("logarithmic", 1.0, 1.0, offset=0.0)
    assert xi_eval(curve, math.exp(-2.0)) == pytest.approx(0.5)


@pytest.mark.parametrize("curve", [
    XiCurve("hoelder", 2.0, 0.5),
    XiCurve("logarithmic", 1.5, 0.7, offset=1.0),
])
def test_curves_monotone_and_vanishing(curve):
    xs = np.linspace(1e-6, 1.0 - 1e-6, 100)
    ys = [xi_eval(curve, x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    if curve.kind == "hoelder":
        assert xi_eval(curve, 1e-12) < 1e-5


def test_curve_domain_checked():
    curve = XiCurve("hoelder", 1.0, 0.5)
    for x in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            xi_eval(curve, x)
    with pytest.raises(ValueError):
        XiCurve("exponential", 1.0, 0.5)


def test_fit_recovers_parameters():
    xs = np.geomspace(1e-4, 0.5, 20)
    truth = XiCurve("hoelder", 3.0, 0.4)
    fitted = xi_fit(xs, [xi_eval(truth, x) for x in xs], kind="hoelder")
    assert fitted.scale == pytest.approx(3.0, rel=1e-8)
    assert fitted.exponent == pytest.approx(0.4, rel=1e-8)

    truth = XiCurve("logarithmic", 2.0, 0.6, offset=1.0)
    fitted = xi_fit(xs, [xi_eval(truth, x) for x in xs], kind="logarithmic", offset=1.0)
    assert fitted.scale == pytest.approx(2.0, rel=1e-8)
    assert fitted.exponent == pytest.approx(0.6, rel=1e-8)
