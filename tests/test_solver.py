import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyfem import solver
from cauchyfem.assembly import assemble_blocks, assemble_stiffness, BlockSystem
from cauchyfem.mesh import BoundaryPart, from_triangles, tag_boundary, unit_square_mesh
from cauchyfem.solver import (RESIDUAL_TOL, Front, SingularSystemError,
                              UnconvergedSolveError, analysed_pattern, build_system, solve,
                              stacked)
from cauchyfem.spaces import build_space

from .oracles import (discrete_consistency_probe, dof_coords, edge_list_analyse, eval_fe,
                      full_dof_unit_matrix, full_matrix, nodal_interpolant,
                      original_half, saddle_pattern, scaled, solve_from_scratch)

GAMMA = 0.01


def make_system(mesh, degree, problem, variant="jump", gamma=GAMMA):
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    blocks = scaled(assemble_blocks(trial, test, problem, variant), gamma, gamma)
    return build_system(saddle_pattern(blocks, trial, test)), trial, test, blocks


def test_single_cell_free_dof_counts(mesh1, problem):
    system, trial, test, _ = make_system(mesh1, 1, problem)
    assert len(trial.free_dofs) == 1  # only (0,1) escapes the data closure
    assert len(test.free_dofs) == 1   # only (1,0) escapes the free closure
    assert system.matrix.shape == (2, 2)


def test_zero_stabilizers_leave_offdiagonal_blocks(mesh2, problem):
    trial = build_space(mesh2, 1, BoundaryPart.DATA)
    test = build_space(mesh2, 1, BoundaryPart.FREE)
    nv, nw = len(trial.free_dofs), len(test.free_dofs)
    a = assemble_stiffness(trial, test)
    blocks = BlockSystem(s_v=sp.csr_matrix((nv, nv)), a=a, s_w=sp.csr_matrix((nw, nw)),
                         load=np.zeros(nw), data=np.zeros(nv))
    system = build_system(saddle_pattern(blocks, trial, test))
    dense = full_matrix(system.matrix).toarray()
    assert np.all(dense[:nv, :nv] == 0)
    assert np.all(dense[nv:, nv:] == 0)
    assert np.array_equal(dense[nv:, :nv], a.toarray())
    assert np.array_equal(dense[:nv, nv:], a.toarray().T)


@pytest.mark.parametrize("variant", ["galerkin", "jump"])
def test_system_matrix_symmetric(variant, problem):
    # the stacked matrix, which the half keeps one entry per pair of, is
    # symmetric to the last bit at both degrees
    mesh = unit_square_mesh(4, jitter=0.2, seed=1)
    for degree in (1, 2):
        *_, blocks = make_system(mesh, degree, problem, variant)
        dense = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]]).toarray()
        assert np.array_equal(dense, dense.T), degree


def _plain_system(matrix, rhs, n_v=None, coords=None):
    """The saddle system of `matrix` with its first `n_v` unknowns (default
    half) on V; without `coords` every unknown sits at one coordinate."""
    matrix = sp.csc_matrix(matrix)
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    n_v = n // 2 if n_v is None else n_v
    pattern = analysed_pattern(
        matrix, np.zeros((n, 2)) if coords is None else coords, rhs[:n_v], rhs[n_v:],
        np.arange(n_v), np.arange(n - n_v), n_v, n - n_v)
    return build_system(pattern)


def test_stacked_rejects_blocks_from_another_mesh(mesh2, mesh4, problem):
    blocks = assemble_blocks(build_space(mesh4, 1, BoundaryPart.DATA),
                             build_space(mesh4, 1, BoundaryPart.FREE), problem, "jump")
    with pytest.raises(ValueError, match="the blocks do not match the free DOFs of the spaces"):
        stacked(blocks, build_space(mesh2, 1, BoundaryPart.DATA),
                build_space(mesh2, 1, BoundaryPart.FREE))


def test_solve_identity():
    sol = solve(_plain_system(np.diag([1.0, -1.0]), [1.0, 2.0]))
    assert np.allclose(sol.u, [1.0])
    assert np.allclose(sol.z, [-2.0])
    assert sol.residual < RESIDUAL_TOL


def test_non_symmetric_pattern_is_rejected_when_the_pattern_is_built():
    with pytest.raises(ValueError, match="pattern is not symmetric"):
        _plain_system(np.array([[1.0, 1.0], [0.0, -1.0]]), [1.0, 2.0])


def test_solve_permutation_exercises_indefinite_pivoting():
    # not quasi-definite: the V pivot block is zero, and no pivot is searched
    system = _plain_system(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 2.0])
    with pytest.raises(SingularSystemError, match=r"front 0 \(2 pivots, 1 of them V\)"):
        solve(system)


def test_symmetric_ordering_fills_less_than_default_lu(problem):
    system, *_ = make_system(unit_square_mesh(16), 2, problem, gamma=1e-3)
    assert system.pattern.lu_fill < spla.splu(full_matrix(system.matrix)).nnz


def test_refinement_meets_tolerance_at_smallest_sweep_gamma(problem):
    # diagonal pivots alone leave a relative residual of about 1.8e-10 here
    system, *_ = make_system(unit_square_mesh(32), 1, problem, gamma=1e-4)
    assert solve(system).residual < RESIDUAL_TOL


def test_singular_matrix_raises():
    with pytest.raises(SingularSystemError):
        solve(_plain_system(np.zeros((2, 2)), np.ones(2)))


def test_tiny_penalty_names_rounding_as_a_cause(problem):
    # positive penalties and intact constraints, but at γ = 1e-10 a W pivot
    # block loses its definiteness in rounding
    with pytest.raises(SingularSystemError, match="W pivot block") as info:
        solve_from_scratch(unit_square_mesh(8), 1, problem, 1e-10, 1e-10)
    assert "very small penalty" in str(info.value)
    assert "definiteness in rounding" in str(info.value)


def test_inaccurate_solve_raises_with_its_residual():
    from scipy.linalg import hilbert

    # quasi-definite, but each block has condition number ~2e16: both
    # Cholesky factorizations succeed and the solve misses the residual
    # tolerance (2.3e-9; Hilbert(7) blocks would reach 1.1e-12)
    h, zero = hilbert(12), np.zeros((12, 12))
    system = _plain_system(np.block([[h, zero], [zero, -h]]), np.ones(24))
    with pytest.raises(UnconvergedSolveError, match="residual") as info:
        solve(system)
    assert isinstance(info.value, RuntimeError)
    residual = float(str(info.value).split("residual ")[1].split()[0])
    assert residual >= RESIDUAL_TOL


def test_non_finite_solve_raises():
    system = _plain_system(np.diag([1.0, -1.0]), [1.0, np.nan])
    with pytest.raises(UnconvergedSolveError, match="nan"):
        solve(system)


@pytest.mark.parametrize("degree", [1, 2])
def test_residual_check_holds_at_penalties_whose_squares_overflow(degree, problem):
    # γ_V·‖g‖ above about 1e154: the squares of the right-hand side's entries
    # overflow, so a norm taken as √(x·x) reads inf and the residual nan
    solution, *_ = solve_from_scratch(unit_square_mesh(8), degree, problem, 1e160, 0.01)
    assert solution.residual < RESIDUAL_TOL


def test_unit_entry_off_by_1e11_fails_the_symmetry_check(problem):
    # checked once, when the pattern is built, not per penalty pair
    mesh = unit_square_mesh(4)
    trial = build_space(mesh, 1, BoundaryPart.DATA)
    test = build_space(mesh, 1, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem)
    s_v = blocks.s_v.tocoo(copy=True)
    e = np.flatnonzero(s_v.row != s_v.col)[0]
    s_v.data[e] += 1e-11
    with pytest.raises(ValueError, match=r"\|M_ij − M_ji\| = 1e-11 at .*, in block S_V"):
        saddle_pattern(dataclasses.replace(blocks, s_v=s_v.tocsr()), trial, test)
    build_system(saddle_pattern(blocks, trial, test), (1.0, 1.0, 1.0))  # passes


@pytest.mark.parametrize("block", ["S_V", "A below", "A above", "S_W"])
def test_entry_off_by_1e11_in_each_block_fails_the_symmetry_check(block, problem):
    # one off-diagonal entry of the stacked matrix moves by one ulp, far
    # less than 1e-11: the exact check, made when the pattern is built,
    # names the entry's block
    mesh = unit_square_mesh(4)
    trial = build_space(mesh, 1, BoundaryPart.DATA)
    test = build_space(mesh, 1, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem)
    nv = len(trial.free_dofs)
    unit = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]], format="coo")
    below, right = unit.row >= nv, unit.col >= nv
    inside = {"S_V": ~below & ~right, "A below": below & ~right,
              "A above": ~below & right, "S_W": below & right}[block]
    e = np.flatnonzero(inside & (unit.row != unit.col))[0]
    unit.data[e] = np.nextafter(unit.data[e], np.inf)
    coords = np.vstack([dof_coords(trial)[trial.free_dofs], dof_coords(test)[test.free_dofs]])
    with pytest.raises(ValueError, match=f"in block {block.split()[0]}$"):
        analysed_pattern(unit.tocsc(), coords, blocks.data, blocks.load, trial.free_dofs,
                         test.free_dofs, trial.num_dofs, test.num_dofs)


def test_galerkin_rounding_defect_passes_the_symmetry_check(problem):
    # the stiffness matrix is symmetric to rounding only at P2; the Galerkin
    # S_W, its upper triangle mirrored, is symmetric to the last bit and
    # within that rounding of it, so the exact check passes
    mesh = unit_square_mesh(8, jitter=0.2, seed=1)
    trial = build_space(mesh, 2, BoundaryPart.DATA)
    test = build_space(mesh, 2, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem, "galerkin")
    stiffness = assemble_stiffness(test, test)
    scale = abs(stiffness).max()
    assert 0.0 < abs(stiffness - stiffness.T).max() <= 1e-14 * scale
    assert (blocks.s_w != blocks.s_w.T).nnz == 0
    assert abs(blocks.s_w - stiffness).max() <= 1e-14 * scale
    saddle_pattern(blocks, trial, test)     # passes


@pytest.mark.parametrize("degree", [1, 2])
def test_defects_are_the_block_maxima_of_the_dense_asymmetry(degree, problem):
    # the largest |M_ij − M_ji| of the dense stacked matrix is 0 in each
    # block, the Galerkin S_W's at P2 included, and the half keeps each
    # stacked entry on and below the diagonal, bit for bit
    mesh = unit_square_mesh(4, jitter=0.2, seed=1)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem, "galerkin")
    pattern = saddle_pattern(blocks, trial, test)
    dense = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]]).toarray()
    defect, nv = np.abs(dense - dense.T), len(trial.free_dofs)
    assert [defect[:nv, :nv].max(), defect[nv:, :nv].max(), defect[nv:, nv:].max()] == [0.0] * 3
    assert np.array_equal(full_matrix(original_half(pattern)).toarray(), dense)


def _random_sqd(rng, coords, n_v, density=0.3):
    """A random sparse symmetric quasi-definite matrix on unknowns at
    `coords`, the first `n_v` on V: neighbours closer than 0.3 are coupled,
    and each diagonal block is strictly diagonally dominant."""
    n = len(coords)
    near = np.linalg.norm(coords[:, None] - coords[None], axis=-1) < 0.3
    upper = np.triu(near & (rng.random((n, n)) < density), 1)
    m = np.where(upper, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    m = m + m.T
    v = np.arange(n) < n_v
    same = v[:, None] == v[None]
    dominance = np.abs(np.where(same, m, 0.0)).sum(axis=1) + rng.uniform(0.5, 1.5, n)
    return m + np.diag(np.where(v, dominance, -dominance))


def _depth(fronts):
    """Levels of the front tree: each front is pushed after its children."""
    depths = []
    for front in fronts:
        below = [depths.pop() for _ in front.children]
        depths.append(1 + max(below, default=0))
    return max(depths)


def _same(x, y):
    """x and y hold equal values of the same types; arrays have equal dtypes."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and x == y


def _pairs(matrix, entries):
    """The unordered index pair (i, j), as one number, of each stored entry
    `entries` of the COO `matrix`."""
    rows, cols = matrix.row[entries].astype(np.int64), matrix.col[entries]
    return np.minimum(rows, cols) * matrix.shape[0] + np.maximum(rows, cols)


def _workspace_place(pattern, i, place):
    """The place in the workspace of the oracle's places `place` in the
    k × k pivot block and the Z of front i: in the front's dense pivot
    block, or in its slot after L packed by columns."""
    k = pattern.fronts[i].size
    return np.where(place < k * k, pattern.workspace.dense[i] + place,
                    pattern.workspace.slots[i] + k * (k + 1) // 2 + place - k * k)


def _assert_matches_edge_list_oracle(pattern, coords):
    """The ordering, every front field, the slots and the fill of `pattern`
    are those of the edge-list analysis of its full matrix H + Hᵀ − diag H,
    which gives each front's entries, their places in the front's pivot
    block and Z, and its twin; the slots of the fronts with no twin follow
    each other in the workspace, a twin's slot is its representative's, and
    each entry of the half H lies at the workspace place of the oracle's
    entry of the same index pair, which the workspace holds.  Each front's
    own entries, the oracle's, are its columns' slice of H.  The entries
    of one front and its twins have one value at each place, the half's: a
    twin's entries land at its representative's places with its values
    (fronts factored at other times may share places)."""
    half = original_half(pattern)
    full = full_matrix(half)
    order, fronts = edge_list_analyse(full, len(pattern.v_free), coords)
    assert _same(pattern.order, order)
    assert len(pattern.fronts) == len(fronts)
    mine, coo = _pairs(half, slice(None)), full.tocoo()
    for i, (front, expected) in enumerate(zip(pattern.fronts, fronts)):
        lo, hi = pattern.half.indptr[[front.start, front.start + front.size]]
        assert np.array_equal(np.sort(mine[lo:hi]), np.sort(_pairs(coo, expected.entries))), i
        for field in Front._fields:
            assert _same(getattr(front, field), getattr(expected, field)), (i, field)
    sizes = [f.size * (f.size + 1) // 2 + f.size * len(f.struct) for f in fronts]
    slots = np.cumsum([0] + [0 if f.twin >= 0 else size for f, size in zip(fronts, sizes)])
    assert pattern.workspace.slots == slots.tolist()
    assert pattern.lu_fill == sum(sizes)
    empty = [np.empty(0, dtype=np.int64)]
    entries = np.concatenate(empty + [f.entries for f in fronts])
    owner = [i if f.twin < 0 else f.twin for i, f in enumerate(fronts)]
    places = np.concatenate(empty + [_workspace_place(pattern, t, f.places)
                                     for t, f in zip(owner, fronts)])
    assert len(pattern.places) == len(places) == half.nnz
    theirs = _pairs(coo, entries)
    assert np.array_equal(np.sort(mine), np.sort(theirs))
    assert np.array_equal(pattern.places[np.argsort(mine)], places[np.argsort(theirs)])
    assert np.array_equal(half.data[np.argsort(mine)],
                          full.data[entries][np.argsort(theirs)])
    assert places.min(initial=0) >= 0 and places.max(initial=0) < pattern.workspace.size
    # dense pivot blocks of fronts factored at other times may share places;
    # those of one front and its twins may not, and hold one value each
    size = pattern.workspace.size
    counts = [len(f.places) for f in fronts]
    keys = np.repeat(np.arange(len(fronts)), counts) * size + places
    assert len(np.unique(keys)) == len(places)
    group = np.repeat(owner, counts) * size + places
    at = np.argsort(group, kind="stable")
    same = group[at][1:] == group[at][:-1]
    values = full.data[entries][at]
    assert np.array_equal(values[1:][same], values[:-1][same])


@pytest.mark.parametrize("case", ["one front", "three levels", "V and W apart",
                                  "only V", "only W", "one coordinate", "coarse grid"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_solve_matches_dense_solve_on_random_sqd_matrices(case, seed):
    rng = np.random.default_rng(seed)
    n = 12 if case == "one front" else 60
    coords = rng.random((n, 2))
    n_v = int(rng.integers(1, n))
    if case == "V and W apart":
        n_v = n // 2
        coords[:n_v, 0] *= 0.5
        coords[n_v:, 0] = 0.5 + 0.5 * coords[n_v:, 0]
    elif case in ("only V", "only W"):
        n_v = n if case == "only V" else 0
    elif case == "one coordinate":
        coords[:] = 0.25
    elif case == "coarse grid":
        # many unknowns share a point or a coordinate: medians tie, and some
        # subdomains of more than LEAF_SIZE unknowns have no extent
        coords = 0.25 * rng.integers(0, 4, (n, 2))
    matrix = _random_sqd(rng, coords, n_v)
    rhs = rng.standard_normal(n)
    with pytest.MonkeyPatch.context() as patch:
        if case != "one front":
            patch.setattr(solver, "LEAF_SIZE", 4)
        system = _plain_system(matrix, rhs, n_v, coords)
        _assert_matches_edge_list_oracle(system.pattern, coords)
        sol = solve(system)
    x = np.concatenate([sol.u, sol.z])
    expected = np.linalg.solve(matrix, rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    fronts = system.pattern.fronts
    if case in ("one front", "one coordinate"):
        assert len(fronts) == 1
    elif case == "three levels":
        assert _depth(fronts) >= 3
    elif case == "V and W apart":
        assert any(f.v_pivots == 0 for f in fronts)
        assert any(f.v_pivots == f.size for f in fronts)


def _twin_blocks(case):
    """Two copies of one random SQD block of 24 unknowns (12 on V) at grid
    points, the second 2 to the right, with the V unknowns of both first.
    In `case` "one ulp" the diagonal entry of the second copy's V unknown 7
    is one ulp larger; in "V to W" that unknown is moved to W, before the
    copy's other W unknowns.  With leaves of at most 4 unknowns it lies in
    the copy's top separator.  Returns the matrix, its unknowns'
    coordinates, its number of V unknowns and that unknown's index."""
    rng = np.random.default_rng(7)
    coords = 0.125 * rng.integers(0, 8, (24, 2))
    both = sp.block_diag([_random_sqd(rng, coords, 12)] * 2).toarray()
    if case == "one ulp":
        both[31, 31] = np.nextafter(both[31, 31], np.inf)
    # V of the first copy, V of the second, W of the first, W of the second
    order = (np.r_[0:12, 24:31, 32:36, 12:24, 31, 36:48] if case == "V to W"
             else np.r_[0:12, 24:36, 12:24, 36:48])
    return (both[np.ix_(order, order)], np.vstack([coords, coords + (2.0, 0.0)])[order],
            23 if case == "V to W" else 24, int(np.flatnonzero(order == 31)[0]))


@pytest.mark.parametrize("leaf_size", [30, 4])
def test_second_copy_of_a_block_is_factored_as_twins(leaf_size):
    # the first cut falls between the copies, so each copy is a subtree of
    # the same fronts, and the second copy's fronts are twins of the first's
    matrix, coords, n_v, _ = _twin_blocks("equal")
    rhs = np.random.default_rng(8).standard_normal(48)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", leaf_size)
        system = _plain_system(matrix, rhs, n_v, coords)
        _assert_matches_edge_list_oracle(system.pattern, coords)
        sol = solve(system)
    fronts = system.pattern.fronts
    half = len(fronts) // 2
    assert half >= (1 if leaf_size == 30 else 3)
    assert [f.twin for f in fronts] == [-1] * half + list(range(half))
    slots = system.pattern.workspace.slots
    assert slots[-1] == slots[half] == system.pattern.lu_fill // 2
    expected = np.linalg.solve(matrix, rhs)
    x = np.concatenate([sol.u, sol.z])
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("leaf_size", [30, 4])
@pytest.mark.parametrize("case", ["one ulp", "V to W"])
def test_copies_that_differ_in_one_bit_or_one_flag_are_not_twins(case, leaf_size):
    # the front with the changed unknown among its pivots is no twin, nor,
    # when the unknown moved to W, a front with it among its struct rows;
    # with leaves of 30 unknowns each copy is that one front
    matrix, coords, n_v, changed = _twin_blocks(case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", leaf_size)
        system = _plain_system(matrix, np.ones(48), n_v, coords)
        _assert_matches_edge_list_oracle(system.pattern, coords)
    fronts = system.pattern.fronts
    at = int(np.flatnonzero(system.pattern.order == changed)[0])
    differ = [i for i, f in enumerate(fronts) if f.start <= at < f.start + f.size
              or case == "V to W" and at in f.struct]
    assert len(differ) == (1 if leaf_size == 30 or case == "one ulp" else 4)
    assert all(fronts[i].twin < 0 for i in differ)
    if leaf_size == 30:
        assert [f.twin for f in fronts] == [-1, -1]
        assert system.pattern.workspace.slots[-1] == system.pattern.lu_fill


def test_twins_on_a_lattice_solve_as_the_dense_solve(problem):
    # with leaves of at most 4 unknowns, 45 of the 221 fronts at P2 n=16 are
    # twins (none at n=8, whose constrained boundary DOFs break the copies)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", 4)
        system, *_ = make_system(unit_square_mesh(16), 2, problem)
        sol = solve(system)
    assert sum(f.twin >= 0 for f in system.pattern.fronts) == 45
    x = np.concatenate([sol.u[system.pattern.v_free], sol.z[system.pattern.w_free]])
    # the dense solve alone misses the solution by about 1.4e-12 relative:
    # one refinement step takes the reference to about 1e-13
    matrix = full_matrix(system.matrix).toarray()
    expected = np.linalg.solve(matrix, system.rhs)
    expected += np.linalg.solve(matrix, system.rhs - matrix @ expected)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def _workspace_items(pattern):
    """(start, end, first, last) of each item of the workspace plan: its
    addresses and the fronts it lives through.  Each factored front i has
    its slot, written from front i on; its dense pivot block, live while it
    is factored; and its update, live from front i to its last reader,
    found here from the tree: its parent, and the parent of each of its
    twins, each when it is factored.  Empty items are left out."""
    fronts, plan = pattern.fronts, pattern.workspace
    slots = plan.slots
    parent = {c: p for p, f in enumerate(fronts) for c, *_ in f.children}
    items = []
    for i, f in enumerate(fronts):
        if f.twin >= 0:
            assert plan.updates[i] == plan.updates[f.twin]
            continue
        readers = [parent[j] for j, g in enumerate(fronts) if (j == i or g.twin == i)
                   and j in parent and fronts[parent[j]].twin < 0]
        r = len(f.struct)
        items += [(slots[i], slots[i + 1], i, len(fronts)),
                  (plan.dense[i], plan.dense[i] + f.size ** 2, i, i),
                  (plan.updates[i], plan.updates[i] + r * r, i, max(readers, default=i))]
    return np.array([item for item in items if item[1] > item[0]]).reshape((-1, 4))


def _assert_workspace_near_its_least_size(pattern):
    """The workspace is no smaller than the least size of any layout of its
    items and at most 3% above it; such a layout holds the residual's half
    H past the slots and, at each front i, the slots of fronts 0 .. i
    (written by then and kept) and, apart from them and from each other,
    the pivot blocks and updates live at i.  Sizes and lives come from the
    tree (`_workspace_items`), not from the plan's offsets: a plan with
    its pivot blocks and updates above every slot, as a factor store kept
    apart from them is, lies 9-28% above that size on the meshes here."""
    start, end, first, last = _workspace_items(pattern).T
    slots, n = pattern.workspace.slots, len(pattern.fronts)
    steps = np.arange(n)[:, None]
    live = ((first <= steps) & (steps <= last) & (last < n)) @ (end - start)
    least = max(slots[-1] + pattern.half.nnz, max(np.add(slots[1:], live)))
    assert least <= pattern.workspace.size <= 1.03 * least


@pytest.mark.parametrize("case", ["twin blocks, leaves 30", "twin blocks, leaves 4",
                                  "P2 n=16, leaves 4", "P1 n=16 jittered"])
def test_workspace_plan_keeps_each_item_apart_while_it_lives(case, problem):
    # no two items of the workspace share an address while both live, so
    # every update is intact when each of its readers adds it, and no slot
    # is written while an earlier item still needs its addresses; past the
    # slots the workspace holds the residual's scaled half H
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", 30 if case.endswith("30") else 4)
        if case.startswith("twin"):
            matrix, coords, n_v, _ = _twin_blocks("equal")
            pattern = _plain_system(matrix, np.ones(48), n_v, coords).pattern
        else:
            mesh = unit_square_mesh(16, *((0.2, 1) if case.startswith("P1") else ()))
            pattern = make_system(mesh, int(case[1]), problem)[0].pattern
    items = _workspace_items(pattern)
    # a jittered mesh has no twins; the others hand twins' updates over
    assert any(f.twin >= 0 for f in pattern.fronts) != case.startswith("P1")
    start, end, first, last = items.T
    assert start.min() >= 0 and end.max() <= pattern.workspace.size
    assert pattern.workspace.size >= pattern.workspace.slots[-1] + pattern.half.nnz
    _assert_workspace_near_its_least_size(pattern)
    apart = (end[:, None] <= start) | (end <= start[:, None])
    alive = (first[:, None] <= last) & (first <= last[:, None])
    np.fill_diagonal(alive, False)
    assert (apart | ~alive).all()


def _child_plans(fronts):
    """(front, child front, plan) for every child of every front."""
    for front in fronts:
        for c, *plan in front.children:
            yield front, fronts[c], plan


def _row_list(rows):
    return np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows


@pytest.mark.parametrize("leaf_size", [solver.LEAF_SIZE, 4])
@pytest.mark.parametrize("degree", [1, 2])
def test_extend_add_runs_lie_in_pivot_or_struct_rows(leaf_size, degree, problem):
    # each run of a child's update maps to consecutive front rows that lie
    # wholly in the pivot rows (L and Z) or wholly in the struct rows (the
    # front's update matrix); every L comes back packed, k(k + 1)/2 entries
    # with a positive diagonal
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", leaf_size)
        system, *_ = make_system(unit_square_mesh(12, jitter=0.2, seed=2), degree, problem)
    fronts = system.pattern.fronts
    assert len(fronts) > 2
    for front, child, (cut, z_rows, pivot_runs, update_runs) in _child_plans(fronts):
        k = front.size
        inside = child.struct < front.start + k
        expected = np.where(inside, child.struct - front.start,
                            k + np.searchsorted(front.struct, child.struct))
        assert cut == np.count_nonzero(inside)
        mapped = np.full(len(expected), -1)
        for a, b, p, rows in pivot_runs:
            assert b <= cut and p + b - a <= k
            mapped[a:b] = np.arange(p, p + b - a)
            assert np.array_equal(_row_list(rows), expected[a:cut])
        for a, b, q, rows in update_runs:
            assert a >= cut and q >= 0
            mapped[a:b] = k + np.arange(q, q + b - a)
            assert np.array_equal(k + _row_list(rows), expected[a:])
        assert np.array_equal(mapped, expected)
        assert np.array_equal(k + _row_list(z_rows), expected[cut:])
    _, factors = solver._factor(system.pattern, system.factors)
    for front, (low, _) in zip(fronts, factors):
        k = front.size
        assert low.shape == (k * (k + 1) // 2,)
        j = np.arange(k)
        assert (low[j * k - j * (j - 1) // 2] > 0).all()    # the diagonal


@pytest.mark.parametrize("jitter, seed", [(0.0, 0), (0.25, 3)])
def test_child_updates_map_onto_few_runs(jitter, seed, problem):
    # a separator is ordered V before W, then along the cut on the lattice
    # positions, so a child's update maps onto a few runs of consecutive
    # front rows (at most 13 per child here, jittered or not)
    system, *_ = make_system(unit_square_mesh(16, jitter, seed), 2, problem, gamma=1e-3)
    runs = [len(pivot_runs) + len(update_runs)
            for front in system.pattern.fronts
            for _, _, _, pivot_runs, update_runs in front.children]
    assert max(runs) <= 24


@pytest.mark.parametrize("leaf_size", [solver.LEAF_SIZE, 4])
@pytest.mark.parametrize("n", [4, 12, 32])
@pytest.mark.parametrize("variant", ["jump", "galerkin"])
@pytest.mark.parametrize("jitter, seed", [(0.0, 0), (0.2, 1), (0.29, 2)])
@pytest.mark.parametrize("degree", [1, 2])
def test_analysis_matches_edge_list_oracle(degree, jitter, seed, variant, n, leaf_size,
                                           problem):
    mesh = unit_square_mesh(n, jitter, seed)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem, variant)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", leaf_size)
        _assert_matches_edge_list_oracle(
            saddle_pattern(blocks, trial, test),
            np.vstack([trial.dof_lattice[trial.free_dofs], test.dof_lattice[test.free_dofs]]))


@pytest.mark.parametrize("n", [1, 4, 12])
@pytest.mark.parametrize("jitter, seed", [(0.0, 0), (0.2, 1), (0.29, 2)])
@pytest.mark.parametrize("variant", ["jump", "galerkin"])
@pytest.mark.parametrize("degree", [1, 2])
def test_unit_matrix_matches_full_dof_stacking(degree, variant, jitter, seed, n, problem):
    # blocks restricted at assembly and stacked once give the pattern of the
    # full-DOF blocks restricted by np.ix_, each kept entry's value to its
    # block's rounding, and both matrices are symmetric to the last bit
    mesh = unit_square_mesh(n, jitter, seed)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    pattern = saddle_pattern(assemble_blocks(trial, test, problem, variant), trial, test)
    expected = full_dof_unit_matrix(mesh, degree, problem, variant)
    h = original_half(pattern)
    full = full_matrix(h)
    assert np.array_equal(full.indptr, expected.indptr)
    assert np.array_equal(full.indices, expected.indices)
    nv = len(pattern.v_free)
    cols = np.repeat(np.arange(expected.shape[1]), np.diff(expected.indptr))
    classes = (expected.indices >= nv).astype(np.int8) + (cols >= nv)
    # each entry of the half against the stacked entry at its own place
    ids = sp.csc_matrix((np.arange(expected.nnz), expected.indices, expected.indptr),
                        shape=expected.shape)
    at = np.asarray(ids[h.row, h.col]).ravel()
    assert np.array_equal(pattern.block, classes[at])
    for block in range(3):
        mine = classes[at] == block
        scale = np.abs(expected.data[classes == block]).max(initial=0.0)
        assert np.abs(h.data[mine] - expected.data[at[mine]]).max(initial=0.0) <= 1e-14 * scale
    assert (expected != expected.T).nnz == 0


@pytest.mark.parametrize("degree, variant, twins", [
    pytest.param(d, v, False, id=f"{d}-{v}") for d in (1, 2) for v in ("jump", "galerkin")
] + [pytest.param(2, "jump", True, id="P2 n=16 lattice, leaves 4, twins")])
def test_every_block_gets_its_own_factor(degree, variant, twins, problem):
    # each kept entry is scaled by the factor of its block: the matrix is
    # the stacked unit blocks, each times its factor, bit for bit, the
    # Galerkin S_W included, and the solve at these factors is the dense
    # solve's, twins (which factor their own values at their
    # representative's places) included
    mesh = unit_square_mesh(16) if twins else unit_square_mesh(6, jitter=0.2, seed=1)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem, variant)
    with pytest.MonkeyPatch.context() as patch:
        if twins:
            patch.setattr(solver, "LEAF_SIZE", 4)
        system = build_system(saddle_pattern(blocks, trial, test), (2.0, 3.0, 5.0))
    assert any(f.twin >= 0 for f in system.pattern.fronts) == twins
    full = full_matrix(system.matrix).toarray()
    expected = sp.bmat([[2.0 * blocks.s_v, 3.0 * blocks.a.T],
                        [3.0 * blocks.a, -5.0 * blocks.s_w]]).toarray()
    assert np.array_equal(full, expected)
    sol = solve(system)
    x = np.concatenate([sol.u[trial.free_dofs], sol.z[test.free_dofs]])
    # at unit blocks the dense matrix's condition number reaches 1.3e7 (P2
    # n=16), so two backward-stable solves may differ by about κε ≈ 1e-9
    # relative; they differ by at most 2.4e-11 here
    reference = np.linalg.solve(expected, system.rhs)
    assert np.linalg.norm(x - reference) <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize("factors", [(2.0, 3.0), (2.0, 3.0, 5.0, 7.0)], ids=["two", "four"])
def test_build_system_rejects_other_than_three_factors(factors, problem):
    # with two factors −S_W would be read from uninitialised memory, and a
    # fourth would be ignored
    system, *_ = make_system(unit_square_mesh(4), 1, problem)
    with pytest.raises(ValueError, match=re.escape(f"got {list(factors)}")):
        build_system(system.pattern, factors)


def test_half_and_places_are_read_only(problem):
    # H's rows are unsorted within its columns, so scipy's in-place sort,
    # merge and prune would move entries away from their places: each
    # raises instead and leaves H as it was, and the system still solves
    system, *_ = make_system(unit_square_mesh(16), 1, problem)
    pattern = system.pattern
    half = pattern.half
    assert not half.has_sorted_indices
    arrays = (half.data, half.indices, half.indptr, pattern.places, pattern.block)
    before = [array.copy() for array in arrays]
    for call in (half.sort_indices, half.sum_duplicates, half.eliminate_zeros):
        with pytest.raises(ValueError):
            call()
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert not any(array.flags.writeable for array in arrays)
    assert solve(system).residual < RESIDUAL_TOL


def test_fill_at_p2_n16_is_pinned(problem):
    # the order inside a separator moves no fill; the edge-list analysis
    # gives the same 341,430
    system, *_ = make_system(unit_square_mesh(16), 2, problem, gamma=1e-3)
    assert system.pattern.lu_fill == 341_430


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("degree", [1, 2])
def test_jitter_and_seed_keep_the_lattice_tree(degree, n, problem):
    # the order bisects the lattice positions, so every jittered mesh of a
    # lattice gets the lattice's order, fronts and fill
    def tree(jitter, seed):
        pattern = make_system(unit_square_mesh(n, jitter, seed), degree, problem)[0].pattern
        return pattern.order, [f.size for f in pattern.fronts], pattern.lu_fill

    order, sizes, fill = tree(0.0, 0)
    for jitter, seed in itertools.product([0.2, 0.29], [1, 2, 3]):
        other = tree(jitter, seed)
        assert np.array_equal(other[0], order) and other[1:] == (sizes, fill), (jitter, seed)


@pytest.mark.parametrize("n, root", [(16, 158), (32, 318)])
def test_p2_lattice_cuts_follow_vertex_lines(n, root, problem):
    # the median is a vertex line: the cut c > m follows it, where c ≥ m
    # follows the edge-midpoint line beside it (219 and 443 root pivots)
    system, *_ = make_system(unit_square_mesh(n), 2, problem)
    assert system.pattern.fronts[-1].size == root


def test_p1_lattice_keeps_the_cuts_at_or_above_the_median(problem):
    # at P1 both cuts give separators of one size, so every subdomain keeps
    # c ≥ m, and its fronts and fill
    system, *_ = make_system(unit_square_mesh(32), 1, problem)
    assert system.pattern.lu_fill == 267_051
    assert [f.size for f in system.pattern.fronts] == [
        123, 65, 100, 26, 52, 56, 86, 22, 79, 121, 32, 52, 52, 56, 86, 22, 79, 121, 32,
        52, 74, 104, 22, 104, 36, 76, 32, 32, 64, 64, 126]


def test_median_at_the_largest_coordinate_keeps_both_parts():
    # a chain, 3 unknowns at x < 1 and 9 at x = 1: the median is the largest
    # x.  The cut c > m has no separator but no right part either, which
    # would leave the whole subdomain to cut again; c ≥ m cuts off the
    # unknown at x = 0.5, the one next to x = 1
    n = 12
    coords = np.column_stack([np.r_[0.0, 0.25, 0.5, np.ones(9)], np.linspace(0.0, 0.5, n)])
    chain = np.diag(np.ones(n - 1), 1)
    matrix = chain + chain.T + np.diag(np.where(np.arange(n) < 6, 3.0, -3.0))
    rhs = np.arange(1.0, n + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LEAF_SIZE", 4)
        system = _plain_system(matrix, rhs, 6, coords)
        _assert_matches_edge_list_oracle(system.pattern, coords)
        sol = solve(system)
    root = system.pattern.fronts[-1]
    assert root.size == 1 and system.pattern.order[root.start] == 2
    expected = np.linalg.solve(matrix, rhs)
    assert np.allclose(np.concatenate([sol.u, sol.z]), expected, rtol=1e-12, atol=0.0)


def _assert_factor_frees_each_update_once_added(pattern, factors, objects=32 * 1024):
    """The factorization's traced memory: its peak is at most the workspace
    (8 bytes per entry, within 3% of the least size of its layout, found
    from the tree: `_assert_workspace_near_its_least_size`), the kernels'
    copies of one dense pivot block's sub-blocks (at most k² entries for
    the largest) and `objects` bytes;
    when each front's first pivot block is factored, the live memory is
    the workspace plus Python objects under `objects` bytes (the factors of
    each front done are two views and a tuple, the front's own entries an
    index), so every update matrix and dense pivot block lies in the
    workspace, where an update's addresses go to later items once its last
    reader has added it
    (`test_workspace_plan_keeps_each_item_apart_while_it_lives`)."""
    live_at, dpotrf = [], solver.dpotrf

    def traced_dpotrf(*args, **kwargs):
        live_at.append(tracemalloc.get_traced_memory()[0])
        return dpotrf(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "dpotrf", traced_dpotrf)
        tracemalloc.start()
        try:
            work, _ = solver._factor(pattern, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    fronts, size = pattern.fronts, 8 * pattern.workspace.size
    assert work.nbytes == size
    _assert_workspace_near_its_least_size(pattern)
    k_max = max(front.size for front in fronts)
    assert peak <= size + 8 * k_max * k_max + objects
    # one dpotrf call per factored front for its V pivots, one for its W pivots
    calls = np.cumsum([0] + [(f.v_pivots > 0) + (f.v_pivots < f.size)
                             for f in fronts if f.twin < 0])
    assert len(live_at) == calls[-1]
    assert (np.array(live_at)[calls[:-1]] - size < objects).all()


def test_factor_frees_each_update_once_added(problem):
    system, *_ = make_system(unit_square_mesh(16), 2, problem, gamma=1e-3)
    assert not any(f.twin >= 0 for f in system.pattern.fronts)
    _assert_factor_frees_each_update_once_added(system.pattern, system.factors)


def test_factor_keeps_each_twin_handoff_until_its_last(problem):
    # the P2 n=32 lattice has 19 twins, 11 of them under a factored front,
    # whose parent reads its representative's update in the workspace; the
    # slots hold the factored fronts' factors only.  Its 119 fronts' factor
    # views take about 36 KiB
    system, *_ = make_system(unit_square_mesh(32), 2, problem, gamma=1e-3)
    pattern = system.pattern
    fronts = pattern.fronts
    assert sum(f.twin >= 0 for f in fronts) == 19
    assert sum(fronts[c].twin >= 0 for f in fronts if f.twin < 0 for c, *_ in f.children) == 11
    assert (pattern.lu_fill, pattern.workspace.slots[-1]) == (1_830_315, 1_620_710)
    _assert_factor_frees_each_update_once_added(pattern, system.factors, 64 * 1024)


def test_no_scaled_copy_of_the_half_lives_through_the_factorization(problem):
    # from before build_system to the first pivot block, the traced memory
    # is the right side and the workspace: the system keeps the block
    # factors, not a scaled copy of H (8 bytes per entry of the half), and
    # each front's own entries are scaled into the workspace.  The residual
    # then reads H scaled into the workspace's tail, through a CSC matrix
    # and its CSR transpose that scipy would copy from a view of a larger
    # array
    mesh = unit_square_mesh(16)
    trial = build_space(mesh, 2, BoundaryPart.DATA)
    test = build_space(mesh, 2, BoundaryPart.FREE)
    pattern = saddle_pattern(assemble_blocks(trial, test, problem), trial, test)
    live, made, dpotrf, factor, scaled = [], [], solver.dpotrf, solver._factor, solver._scaled

    def traced_dpotrf(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return dpotrf(*args, **kwargs)

    def kept(function):
        return lambda *args: made.append(function(*args)) or made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "dpotrf", traced_dpotrf)
        patch.setattr(solver, "_factor", kept(factor))
        patch.setattr(solver, "_scaled", kept(scaled))
        tracemalloc.start()
        try:
            solve(build_system(pattern, (1e-3, 1.0, 1e-3)))
        finally:
            tracemalloc.stop()
    expected = 8 * (pattern.half.shape[0] + pattern.workspace.size)
    assert 8 * pattern.half.nnz > 32 * 1024
    assert live[0] - expected < 32 * 1024
    (work, _), half = made
    _assert_workspace_near_its_least_size(pattern)
    assert np.shares_memory(half.data, work[pattern.workspace.slots[-1]:])
    assert np.shares_memory(half.T.data, work[pattern.workspace.slots[-1]:])


def test_against_dense_lu_oracle(mesh2, problem):
    system, trial, test, _ = make_system(mesh2, 1, problem)
    sol = solve(system)
    x = np.linalg.solve(full_matrix(system.matrix).toarray(), system.rhs)
    stacked = np.concatenate([sol.u[trial.free_dofs], sol.z[test.free_dofs]])
    assert np.linalg.norm(stacked - x) / np.linalg.norm(x) < 1e-9


def test_constrained_entries_are_zero(mesh4, problem):
    sol, trial, test, _ = solve_from_scratch(mesh4, 2, problem, GAMMA, GAMMA, "jump")
    assert np.all(sol.u[trial.dirichlet_dofs] == 0.0)
    assert np.all(sol.z[test.dirichlet_dofs] == 0.0)
    assert sol.residual < RESIDUAL_TOL


def _probe_cases():
    """The default penalty of each degree on the lattice, then the grid
    γ ∈ {1e-4, 1e-2, 1} × {lattice, two meshes jittered by 0.2}."""
    for n in (2, 4, 8):
        for variant in ("galerkin", "jump"):
            for degree in (1, 2):
                base = f"{n}-{variant}-{degree}"
                default = 0.01 if degree == 1 else 0.001
                yield pytest.param(n, degree, variant, default, 0.0, 0, id=base)
                for gamma in (1e-4, 1e-2, 1.0):
                    for jitter, seed in ((0.0, 0), (0.2, 1), (0.2, 2)):
                        if (gamma, jitter) != (default, 0.0):
                            yield pytest.param(
                                n, degree, variant, gamma, jitter, seed,
                                id=f"{base}-g{gamma:g}-j{jitter:g}s{seed}")


@pytest.mark.parametrize("n, degree, variant, gamma, jitter, seed", _probe_cases())
def test_discrete_consistency_random_probe(n, degree, variant, gamma, jitter, seed, problem):
    err = discrete_consistency_probe(unit_square_mesh(n, jitter, seed), problem, degree,
                                     gamma, gamma, variant, seed=n + degree)
    assert err < 1e-9


def test_discrete_consistency_interpolated_solution(problem):
    mesh = unit_square_mesh(8)
    trial = build_space(mesh, 1, BoundaryPart.DATA)
    probe = nodal_interpolant(trial, problem.exact_u)
    probe[trial.dirichlet_dofs] = 0.0
    err = discrete_consistency_probe(mesh, problem, 1, GAMMA, GAMMA, "jump", probe=probe)
    assert err < 1e-9


def test_probe_must_respect_constraints(mesh2, problem):
    trial = build_space(mesh2, 1, BoundaryPart.DATA)
    bad = np.ones(trial.num_dofs)
    with pytest.raises(ValueError):
        discrete_consistency_probe(mesh2, problem, 1, GAMMA, GAMMA, probe=bad)


def test_consistency_probe_independent_of_gamma(mesh4, problem):
    rng = np.random.default_rng(5)
    trial = build_space(mesh4, 1, BoundaryPart.DATA)
    probe = rng.standard_normal(trial.num_dofs)
    probe[trial.dirichlet_dofs] = 0.0
    for gamma in (0.01, 1.0):
        err = discrete_consistency_probe(mesh4, problem, 1, gamma, gamma, "jump",
                                         probe=probe)
        assert err < 1e-9


def test_solution_invariant_under_vertex_relabeling(problem):
    base = unit_square_mesh(4)
    rng = np.random.default_rng(11)
    perm = rng.permutation(base.num_vertices)
    inverse = np.argsort(perm)
    relabeled = tag_boundary(from_triangles(base.vertices[inverse],
                                            perm[base.triangles]))
    sol_a, trial_a, *_ = solve_from_scratch(base, 1, problem, GAMMA, GAMMA, "jump")
    sol_b, trial_b, *_ = solve_from_scratch(relabeled, 1, problem, GAMMA, GAMMA, "jump")
    pts = rng.uniform(0.05, 0.95, (50, 2))
    for x, y in pts:
        ua = eval_fe(trial_a, sol_a.u, x, y)
        ub = eval_fe(trial_b, sol_b.u, x, y)
        assert ua == pytest.approx(ub, abs=1e-9)
