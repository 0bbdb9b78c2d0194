import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyfem.mesh import BoundaryPart, unit_square_mesh
from cauchyfem.spaces import (build_space, edge_tables, segment_rule, shape_grads,
                              shape_hessians, shape_values, triangle_rule)

from .oracles import (dof_coords, eval_fe, fresh_report_data, loop_dirichlet_dofs,
                      nodal_interpolant, shape_eval)


def coords_of(space, dofs):
    return {tuple(np.round(dof_coords(space)[d], 12)) for d in dofs}


# ---------------------------------------------------------------------------
# DOF enumeration and constraints

def test_p1_dirichlet_on_data_side(mesh2):
    space = build_space(mesh2, 1, BoundaryPart.DATA)
    assert space.num_dofs == 9
    assert coords_of(space, space.dirichlet_dofs) == {
        (0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)}


def test_p2_unconstrained_dof_count(mesh2):
    space = build_space(mesh2, 2)
    assert space.num_dofs == 9 + 16 == 25


def test_p1_dirichlet_on_free_side(mesh1):
    space = build_space(mesh1, 1, BoundaryPart.FREE)
    assert coords_of(space, space.dirichlet_dofs) == {
        (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [2, 4])
def test_constraint_closures_share_only_corners(n, degree):
    mesh = unit_square_mesh(n)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    shared = coords_of(trial, trial.dirichlet_dofs) & coords_of(test, test.dirichlet_dofs)
    assert shared == {(0.0, 0.0), (1.0, 1.0)}


@pytest.mark.parametrize("data_sides", [("bottom", "right"), ("top", "left")])
@pytest.mark.parametrize("degree", [1, 2])
def test_dirichlet_dofs_match_face_by_face_reference(degree, data_sides):
    mesh = unit_square_mesh(5, jitter=0.2, seed=4, data_sides=data_sides)
    for part in BoundaryPart:
        pinned = build_space(mesh, degree, part).dirichlet_dofs
        assert pinned.dtype == np.int64
        assert np.array_equal(pinned, loop_dirichlet_dofs(mesh, degree, part))


def test_constraining_requires_tags():
    from cauchyfem.mesh import build_structured

    with pytest.raises(ValueError):
        build_space(build_structured(2), 1, BoundaryPart.DATA)


def test_dof_enumeration_is_deterministic(mesh4):
    a = build_space(mesh4, 2, BoundaryPart.DATA)
    b = build_space(mesh4, 2, BoundaryPart.DATA)
    assert np.array_equal(a.cell_dofs, b.cell_dofs)
    assert np.array_equal(dof_coords(a), dof_coords(b))
    assert np.array_equal(a.dirichlet_dofs, b.dirichlet_dofs)


# ---------------------------------------------------------------------------
# reference basis

def test_p1_at_barycenter():
    vals, _ = shape_eval(1, (1 / 3, 1 / 3))
    assert np.allclose(vals, 1 / 3)


def test_p1_gradients():
    _, grads = shape_eval(1, (0.3, 0.2))
    assert np.allclose(grads, [[-1, -1], [1, 0], [0, 1]])


def test_p2_lagrange_property():
    nodes = np.array([(0, 0), (1, 0), (0, 1), (0.5, 0.5), (0, 0.5), (0.5, 0)],
                     dtype=float)
    vals = shape_values(2, nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 2))
def test_partition_of_unity(a, b, degree):
    # map the unit square sample into the reference triangle
    x, y = (a, b) if a + b <= 1 else (1 - a, 1 - b)
    vals, grads = shape_eval(degree, (x, y))
    assert abs(vals.sum() - 1.0) < 1e-13
    assert np.abs(grads.sum(axis=0)).max() < 1e-13


def test_hessians_are_consistent_with_gradients():
    # directional finite difference of the P2 gradients equals H @ direction
    hess = shape_hessians()
    base = np.array([0.31, 0.17])
    step = 1e-6
    for d in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        gp = shape_grads(2, (base + step * d)[None, :])[0]
        gm = shape_grads(2, (base - step * d)[None, :])[0]
        fd = (gp - gm) / (2 * step)
        assert np.allclose(fd, hess @ d, atol=1e-6)


# ---------------------------------------------------------------------------
# quadrature

def test_degrees_up_to_two_share_one_rule_and_only_p2_has_hessians():
    # the P1 and P2 stiffness integrands have degree 0 and 2: one rule
    assert triangle_rule(0) is triangle_rule(1) is triangle_rule(2)
    assert shape_hessians().shape == (6, 2, 2)


def test_degree_three_segment_rule_is_two_point_gauss():
    rule = segment_rule(3)
    expect = 0.5 * (np.array([-1, 1]) / math.sqrt(3) + 1.0)
    assert np.allclose(np.sort(rule.points), np.sort(expect))
    assert np.allclose(rule.weights, [0.5, 0.5])


def test_quartic_monomial_integral():
    rule = triangle_rule(4)
    val = rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert val == pytest.approx(1 / 180, abs=1e-15)


def test_degree_eight_rule_is_the_symmetric_sixteen_point_rule():
    rule = triangle_rule(8)
    assert rule.points.shape == (16, 2)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-15)
    x, y = rule.points.T
    bary = np.column_stack([1.0 - x - y, x, y])
    assert np.all(bary > 0)
    # each permutation of the barycentric coordinates maps the points one to
    # one onto points of the same weight
    for perm in itertools.permutations(range(3)):
        moved = bary[:, perm][:, 1:]
        dist = np.abs(moved[:, None] - rule.points[None]).max(axis=-1)
        match = dist.argmin(axis=1)
        assert np.all(dist.min(axis=1) < 1e-15)
        assert sorted(match) == list(range(16))
        assert np.array_equal(rule.weights[match], rule.weights)
    for a in range(9):
        for b in range(9 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert rule.weights @ (x ** a * y ** b) == pytest.approx(exact, rel=1e-14)


def test_degrees_three_to_eight_share_the_degree_eight_rule():
    assert all(triangle_rule(d) is triangle_rule(8) for d in range(3, 8))
    assert len(triangle_rule(2).weights) == 4


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 8), a=st.integers(0, 8), b=st.integers(0, 8))
def test_triangle_rule_exactness(degree, a, b):
    if a + b > degree:
        a = b = 0
    rule = triangle_rule(degree)
    val = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    assert val == pytest.approx(exact, rel=1e-13, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(1, 9), a=st.integers(0, 9))
def test_segment_rule_exactness(degree, a):
    if a > degree:
        a = degree
    rule = segment_rule(degree)
    assert rule.weights @ rule.points ** a == pytest.approx(1 / (a + 1), rel=1e-13)


def test_rules_and_edge_tables_are_built_once_and_read_only():
    assert triangle_rule(8) is triangle_rule(8)
    assert segment_rule(9) is segment_rule(9)
    assert edge_tables(2, 9) is edge_tables(2, 9)
    arrays = (triangle_rule(8).points, triangle_rule(8).weights,
              segment_rule(9).points, segment_rule(9).weights, *edge_tables(2, 9))
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_unsupported_degrees_raise():
    with pytest.raises(ValueError):
        triangle_rule(9)
    with pytest.raises(ValueError):
        segment_rule(10)


def test_build_space_names_an_unsupported_degree(mesh2):
    with pytest.raises(ValueError, match="degree 3 must be 1 or 2"):
        build_space(mesh2, 3, BoundaryPart.DATA)


# ---------------------------------------------------------------------------
# interpolation

def test_interpolant_of_constant(mesh2):
    space = build_space(mesh2, 1)
    coeffs = nodal_interpolant(space, lambda x, y: np.ones_like(x))
    assert np.allclose(coeffs, 1.0)


def test_interpolant_of_exact_solution_vanishes_on_data_dofs(mesh4, problem):
    space = build_space(mesh4, 1, BoundaryPart.DATA)
    coeffs = nodal_interpolant(space, problem.exact_u)
    assert np.abs(coeffs[space.dirichlet_dofs]).max() < 1e-14


@pytest.mark.parametrize("degree,field", [
    (1, lambda x, y: x + y),
    (2, lambda x, y: x * x - 2 * x * y + 3 * y + 1),
])
def test_polynomial_reproduction(degree, field):
    from cauchyfem.analysis import l2_error
    from cauchyfem.problem import CauchyProblem, quartic_example

    mesh = unit_square_mesh(3, jitter=0.1, seed=2)
    space = build_space(mesh, degree)
    coeffs = nodal_interpolant(space, field)
    exact = CauchyProblem(f=field, psi=quartic_example().psi, exact_u=field)
    assert l2_error(fresh_report_data(space, exact), coeffs) < 1e-12


def test_eval_fe_matches_interpolated_field(mesh4):
    space = build_space(mesh4, 2)
    coeffs = nodal_interpolant(space, lambda x, y: x * y)
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(0.05, 0.95, (10, 2)):
        assert eval_fe(space, coeffs, x, y) == pytest.approx(x * y, abs=1e-12)
