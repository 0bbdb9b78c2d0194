import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyfem.analysis import stab_seminorm_u
from cauchyfem.assembly import (FACE_DATA_DEGREE, _edge_rows, _face_points,
                                _normal_derivs, assemble_blocks, assemble_dual_stab,
                                assemble_load, assemble_stiffness)
from cauchyfem.mesh import BoundaryPart, unit_square_mesh
from cauchyfem.problem import CauchyProblem
from cauchyfem.spaces import build_space, edge_tables, segment_rule

from .oracles import (data_term, dense_data_term, dense_dual_stab, dense_face_jumps,
                      dense_load, dense_stiffness, dual_stab, fe_jump_seminorm,
                      free_face_operator, fresh_report_data, loop_stab_seminorm_u, mapped_traces,
                      nodal_interpolant, primal_stab, scaled, solve_from_scratch,
                      triangle_points)

GAMMA = 0.01


def spaces_on(mesh, degree):
    return (build_space(mesh, degree, BoundaryPart.DATA),
            build_space(mesh, degree, BoundaryPart.FREE))


# ---------------------------------------------------------------------------
# hand-computed anchors

def test_reference_triangle_local_stiffness():
    from cauchyfem.mesh import from_triangles

    mesh = from_triangles([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    space = build_space(mesh, 1)
    local = assemble_stiffness(space, space).toarray()
    expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert np.allclose(local, expect, atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_constants_in_stiffness_kernel(mesh2, degree):
    space = build_space(mesh2, degree)
    a = assemble_stiffness(space, space)
    assert np.abs(a @ np.ones(space.num_dofs)).max() < 1e-13


def test_primal_stab_hand_value(mesh1):
    # n=1, P1, gamma=1: hat at vertex (1,0) sees the diagonal face
    # (jump sqrt(2), contribution 4) plus bottom and right data faces (1 each);
    # the unconstrained space keeps that vertex, which the trial space drops
    space = build_space(mesh1, 1)
    s = primal_stab(space).toarray()
    idx = int(np.flatnonzero((space.dof_coords == (1.0, 0.0)).all(axis=1))[0])
    assert s[idx, idx] == pytest.approx(6.0, abs=1e-13)


def test_affine_function_has_no_interior_jumps(mesh4):
    space = build_space(mesh4, 1)
    v = nodal_interpolant(space, lambda x, y: x + y)
    s = primal_stab(space)
    # only the data faces contribute: sum of h_F * (grad.n)^2 * |F| = 2/n
    assert v @ (s @ v) == pytest.approx(2.0 / 4.0, abs=1e-13)


def _same_bits(x, y):
    """Sparse matrices with the same structure and the same values, bit for bit."""
    return all(np.array_equal(getattr(x, k), getattr(y, k))
               for k in ("indptr", "indices", "data"))


def test_gamma_scaling(problem):
    # γ enters only through the factors of penalty_factors: s_V, g and the
    # jump s_W are γ times a fresh unit block, the Galerkin s_W keeps the
    # bits of a fresh unit block, and the unit blocks are left as they were
    mesh = unit_square_mesh(3, jitter=0.2, seed=3)
    gamma_v, gamma_w = 0.01, 0.3
    for degree in (1, 2):
        trial, test = spaces_on(mesh, degree)
        for variant in ("galerkin", "jump"):
            unit = assemble_blocks(trial, test, problem, variant)
            before = {name: getattr(unit, name).copy()
                      for name in ("s_v", "a", "s_w", "load", "data")}
            blocks = scaled(unit, gamma_v, gamma_w)
            assert _same_bits(blocks.s_v, gamma_v * primal_stab(trial))
            assert np.array_equal(blocks.data,
                                  gamma_v * data_term(trial, problem))
            if variant == "jump":
                assert _same_bits(blocks.s_w, gamma_w * dual_stab(test, "jump"))
            else:
                assert _same_bits(blocks.s_w, dual_stab(test, "galerkin"))
            assert blocks.a is unit.a and blocks.load is unit.load
            for name in ("s_v", "a", "s_w"):
                assert _same_bits(getattr(unit, name), before[name]), name
            for name in ("load", "data"):
                assert np.array_equal(getattr(unit, name), before[name]), name


def test_galerkin_dual_stab_equals_stiffness(mesh2):
    space = build_space(mesh2, 2, BoundaryPart.FREE)
    s_w = assemble_dual_stab(space, "galerkin", None)
    a = assemble_stiffness(space, space)
    assert abs(s_w - a).max() == 0.0


def test_unknown_variant_rejected(mesh2):
    space = build_space(mesh2, 1, BoundaryPart.FREE)
    with pytest.raises(ValueError):
        assemble_dual_stab(space, "nitsche", None)


def test_jump_dual_stab_boundary_contributions_on_free_side(mesh1):
    # beyond the interior diagonal face, the jump variant only touches
    # the triangle carrying the top and left (free) faces
    space = build_space(mesh1, 1)
    s_w = assemble_dual_stab(space, "jump", free_face_operator(space)).toarray()
    boundary_only = s_w - _dense_interior_jumps(space)
    touched = {i for i in range(space.num_dofs)
               if np.abs(boundary_only[i]).max() > 1e-13}
    free_tri_vertices = {tuple(c) for c in
                         space.dof_coords[sorted(touched)].round(12)}
    assert free_tri_vertices == {(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def _dense_interior_jumps(space):
    from .oracles import _face_data, oracle_basis, oracle_segment_rule

    mesh = space.mesh
    spts, swts = oracle_segment_rule(9)
    out = np.zeros((space.num_dofs, space.num_dofs))
    for f in mesh.interior_faces():
        length, normal, xy = _face_data(mesh, f, spts)
        lt, rt = mesh.face_tris[f]
        dofs = list(space.cell_dofs[lt]) + list(space.cell_dofs[rt])
        _, gl, _ = oracle_basis(triangle_points(mesh, lt), space.degree, xy)
        _, gr, _ = oracle_basis(triangle_points(mesh, rt), space.degree, xy)
        dn = np.hstack([gl @ normal, -(gr @ normal)])
        for q, w in enumerate(swts):
            for i, gi in enumerate(dofs):
                for j, gj in enumerate(dofs):
                    out[gi, gj] += w * length * length * dn[q, i] * dn[q, j]
    return out


# ---------------------------------------------------------------------------
# loads and data terms

def constant_problem(fval, psival):
    return CauchyProblem(f=lambda x, y: fval * np.ones_like(x),
                         psi=lambda x, y, nx, ny: psival * np.ones_like(x))


def test_load_unit_source(mesh1):
    space = build_space(mesh1, 1)
    load = assemble_load(space, constant_problem(1.0, 0.0))
    coord = {tuple(c): i for i, c in enumerate(map(tuple, space.dof_coords))}
    # (1,0) and (0,1) belong to one triangle each, (0,0) and (1,1) to two
    assert load[coord[(1.0, 0.0)]] == pytest.approx(1 / 6, abs=1e-14)
    assert load[coord[(0.0, 1.0)]] == pytest.approx(1 / 6, abs=1e-14)
    assert load[coord[(0.0, 0.0)]] == pytest.approx(1 / 3, abs=1e-14)
    assert load.sum() == pytest.approx(1.0, abs=1e-14)  # partition of unity


def test_load_unit_flux(mesh1):
    space = build_space(mesh1, 1)
    load = assemble_load(space, constant_problem(0.0, 1.0))
    coord = {tuple(c): i for i, c in enumerate(map(tuple, space.dof_coords))}
    # edge integral of a hat is h_F / 2 per data face containing the vertex
    assert load[coord[(1.0, 0.0)]] == pytest.approx(1.0, abs=1e-14)
    assert load[coord[(0.0, 0.0)]] == pytest.approx(0.5, abs=1e-14)
    assert load[coord[(1.0, 1.0)]] == pytest.approx(0.5, abs=1e-14)
    assert load[coord[(0.0, 1.0)]] == pytest.approx(0.0, abs=1e-14)


def test_data_term_zero_flux(mesh2):
    space = build_space(mesh2, 1, BoundaryPart.DATA)
    g = GAMMA * data_term(space, constant_problem(1.0, 0.0))
    assert np.abs(g).max() == 0.0


def test_data_term_unit_flux_hand_value(mesh1):
    space = build_space(mesh1, 1)
    g = data_term(space, constant_problem(0.0, 1.0))
    coord = {tuple(c): i for i, c in enumerate(map(tuple, space.dof_coords))}
    # constant normal derivatives on the two data faces of the lower triangle
    assert g[coord[(1.0, 0.0)]] == pytest.approx(2.0, abs=1e-13)
    assert g[coord[(0.0, 0.0)]] == pytest.approx(-1.0, abs=1e-13)
    assert g[coord[(1.0, 1.0)]] == pytest.approx(-1.0, abs=1e-13)
    assert g[coord[(0.0, 1.0)]] == pytest.approx(0.0, abs=1e-13)


def test_assembly_is_linear_in_data(mesh2, problem):
    space = build_space(mesh2, 2, BoundaryPart.FREE)
    trial = build_space(mesh2, 2, BoundaryPart.DATA)
    other = constant_problem(2.0, -1.0)
    combined = CauchyProblem(
        f=lambda x, y: problem.f(x, y) + other.f(x, y),
        psi=lambda x, y, nx, ny: problem.psi(x, y, nx, ny) + other.psi(x, y, nx, ny))
    assert np.allclose(assemble_load(space, combined),
                       assemble_load(space, problem) + assemble_load(space, other),
                       atol=1e-13)
    assert np.allclose(GAMMA * data_term(trial, combined),
                       GAMMA * data_term(trial, problem)
                       + GAMMA * data_term(trial, other), atol=1e-13)


# ---------------------------------------------------------------------------
# dense oracle equivalence and structure

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("degree", [1, 2])
def test_operators_match_dense_oracle(n, degree, problem):
    # every operator over all DOFs (the unconstrained space) and, as the
    # solver receives it, on the free DOFs of the trial and test spaces
    mesh = unit_square_mesh(n)
    full = build_space(mesh, degree)
    for trial, test in ((full, full), spaces_on(mesh, degree)):
        v, w = np.ix_(trial.free_dofs, trial.free_dofs), np.ix_(test.free_dofs, test.free_dofs)
        assert np.abs(assemble_stiffness(trial, test).toarray()
                      - dense_stiffness(trial, test)[np.ix_(test.free_dofs, trial.free_dofs)]
                      ).max() < 1e-12
        assert np.abs(GAMMA * primal_stab(trial).toarray()
                      - dense_face_jumps(trial, BoundaryPart.DATA, GAMMA)[v]).max() < 1e-12
        for variant in ("galerkin", "jump"):
            s_w = scaled(assemble_blocks(trial, test, problem, variant), GAMMA, GAMMA).s_w
            assert np.abs(s_w.toarray() - dense_dual_stab(test, variant, GAMMA)[w]).max() < 1e-12
        assert np.abs(assemble_load(test, problem)
                      - dense_load(test, problem)[test.free_dofs]).max() < 1e-12
        assert np.abs(GAMMA * data_term(trial, problem)
                      - dense_data_term(trial, problem, GAMMA)[trial.free_dofs]).max() < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("variant", ["galerkin", "jump"])
def test_stabilizers_symmetric_psd(degree, variant, problem):
    mesh = unit_square_mesh(4)
    trial, test = spaces_on(mesh, degree)
    blocks = scaled(assemble_blocks(trial, test, problem, variant), GAMMA, GAMMA)
    rng = np.random.default_rng(7)
    for name, s in (("s_v", blocks.s_v), ("s_w", blocks.s_w)):
        assert abs(s - s.T).max() < 1e-13, name
        x = rng.standard_normal((100, s.shape[0]))
        quad = np.einsum("ki,ki->k", x, x @ s.toarray())
        assert quad.min() > -1e-12, name


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), jitter=st.floats(0.0, 0.25), seed=st.integers(0, 50),
       degree=st.sampled_from([1, 2]), variant=st.sampled_from(["galerkin", "jump"]))
def test_batched_kernels_property(n, jitter, seed, degree, variant, problem):
    mesh = unit_square_mesh(n, jitter, seed)
    trial, test = spaces_on(mesh, degree)
    blocks = scaled(assemble_blocks(trial, test, problem, variant), GAMMA, GAMMA)
    for name, s in (("s_v", blocks.s_v), ("s_w", blocks.s_w)):
        dense = s.toarray()
        # the face penalties γBᵀB are symmetric to the last bit; the Galerkin
        # s_W is the stiffness matrix, symmetric up to rounding
        face_penalty = name == "s_v" or variant == "jump"
        slack = 0.0 if face_penalty else 1e-14 * np.abs(dense).max()
        assert np.abs(dense - dense.T).max() <= slack, name
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > -1e-12 * max(eigs.max(), 1.0), name
    u = np.random.default_rng(seed).standard_normal(trial.num_dofs)
    u[trial.dirichlet_dofs] = 0.0       # a trial function: B reads the free DOFs
    assert stab_seminorm_u(fresh_report_data(trial, problem), u, GAMMA) == pytest.approx(
        loop_stab_seminorm_u(trial, u, problem, GAMMA), rel=1e-12)


def _nan_at_one_point(field):
    def poisoned(x, *args):
        values = np.array(field(x, *args), dtype=float)
        values.flat[values.size // 2] = np.nan
        return values
    return poisoned


@pytest.mark.parametrize("name", ["f", "psi"])
def test_non_finite_data_is_rejected(name, problem, mesh2):
    fields = {"f": problem.f, "psi": problem.psi}
    fields[name] = _nan_at_one_point(fields[name])
    bad = CauchyProblem(exact_u=problem.exact_u, exact_grad=problem.exact_grad,
                        **fields)
    with pytest.raises(ValueError, match=f"{name} is not finite at"):
        solve_from_scratch(mesh2, 1, bad, GAMMA, GAMMA)


def test_smooth_consistency_interior_jumps_vanish(mesh4):
    space = build_space(mesh4, 1, BoundaryPart.DATA)
    v = nodal_interpolant(space, lambda x, y: 2.0 * x - 0.5 * y + 0.25)
    assert fe_jump_seminorm(space, v, 1.0, boundary_part=None) < 1e-13


# ---------------------------------------------------------------------------
# reference-edge tables against mapping the face points back into each triangle

@pytest.mark.parametrize("degree", [1, 2])
def test_edge_table_traces_match_mapped_back_points(degree):
    mesh = unit_square_mesh(4, jitter=0.25, seed=3)
    space = build_space(mesh, degree)
    inner = mesh.interior_faces()
    left, right = mesh.face_tris[inner].T
    sides = [(inner, left, 0), (inner, right, 1)]
    for part in BoundaryPart:
        faces = mesh.faces_of_part(part)
        sides.append((faces, mesh.face_tris[faces, 0], 0))
    for rule_degree in (max(2 * (degree - 1), 1), FACE_DATA_DEGREE):
        values = edge_tables(degree, rule_degree)[0]
        for faces, cells, side in sides:
            _, normal, points = _face_points(mesh, faces, segment_rule(rule_degree))
            expect_values, expect_grads = mapped_traces(space, cells, points)
            assert np.abs(_edge_rows(mesh, values, cells, faces, side)
                          - expect_values).max() < 1e-13
            derivs = _normal_derivs(space, rule_degree, cells, faces, side, normal)
            expect_derivs = np.einsum("fqia,fa->fqi", expect_grads, normal)
            assert np.abs(derivs - expect_derivs).max() < 1e-13
