import dataclasses
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
                              UnconvergedSolveError, analysed_pattern, build_system, solve)
from cauchyfem.spaces import build_space

from .oracles import (discrete_consistency_probe, edge_list_analyse, eval_fe,
                      full_dof_unit_matrix, full_matrix, nodal_interpolant,
                      saddle_pattern, scaled, solve_from_scratch)

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
                         load=np.zeros(nw), data=np.zeros(nv), variant="jump",
                         b=None, psi_hat=None, b_w=None)
    system = build_system(saddle_pattern(blocks, trial, test))
    dense = full_matrix(system.matrix).toarray()
    assert np.all(dense[:nv, :nv] == 0)
    assert np.all(dense[nv:, nv:] == 0)
    assert np.array_equal(dense[nv:, :nv], a.toarray())
    assert np.array_equal(dense[:nv, nv:], a.toarray().T)


@pytest.mark.parametrize("variant", ["galerkin", "jump"])
def test_system_matrix_symmetric(variant, problem):
    mesh = unit_square_mesh(4)
    system, *_ = make_system(mesh, 1, problem, variant)
    # the largest |M_ij − M_ji| of the stacked matrix, which the half keeps
    # one entry of
    assert system.asymmetry < 1e-13


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


def test_unit_entry_off_by_1e11_fails_the_symmetry_check(problem):
    mesh = unit_square_mesh(4)
    trial = build_space(mesh, 1, BoundaryPart.DATA)
    test = build_space(mesh, 1, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem)
    s_v = blocks.s_v.tocoo(copy=True)
    e = np.flatnonzero(s_v.row != s_v.col)[0]
    s_v.data[e] += 1e-11
    pattern = saddle_pattern(dataclasses.replace(blocks, s_v=s_v.tocsr()), trial, test)
    with pytest.raises(ValueError, match="asymmetry 1e-11"):
        build_system(pattern, (1.0, 1.0, 1.0))
    build_system(saddle_pattern(blocks, trial, test), (1.0, 1.0, 1.0))  # passes


@pytest.mark.parametrize("block", ["S_V", "A below", "A above", "S_W"])
def test_entry_off_by_1e11_in_each_block_fails_the_symmetry_check(block, problem):
    # one off-diagonal entry of the stacked matrix moves; the defect of its
    # block, measured when the pattern is built, fails the check per γ
    mesh = unit_square_mesh(4)
    trial = build_space(mesh, 1, BoundaryPart.DATA)
    test = build_space(mesh, 1, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem)
    nv = len(trial.free_dofs)
    unit = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]], format="coo")
    below, right = unit.row >= nv, unit.col >= nv
    inside = {"S_V": ~below & ~right, "A below": below & ~right,
              "A above": ~below & right, "S_W": below & right}[block]
    unit.data[np.flatnonzero(inside & (unit.row != unit.col))[0]] += 1e-11
    coords = np.vstack([trial.dof_coords[trial.free_dofs], test.dof_coords[test.free_dofs]])
    pattern = analysed_pattern(unit.tocsc(), coords, blocks.data, blocks.load,
                               trial.free_dofs, test.free_dofs, trial.num_dofs,
                               test.num_dofs)
    with pytest.raises(ValueError, match="asymmetry 1e-11"):
        build_system(pattern)


def test_galerkin_rounding_defect_passes_the_symmetry_check(problem):
    # the Galerkin S_W is the stiffness matrix, symmetric to rounding only
    mesh = unit_square_mesh(8, jitter=0.2, seed=1)
    trial = build_space(mesh, 2, BoundaryPart.DATA)
    test = build_space(mesh, 2, BoundaryPart.FREE)
    pattern = saddle_pattern(assemble_blocks(trial, test, problem, "galerkin"),
                             trial, test)
    h, nv = pattern.half.tocoo(), len(pattern.v_free)
    scale = np.abs(h.data[(h.row >= nv) & (h.col >= nv)]).max()
    assert 0.0 < pattern.defects[2] <= 1e-14 * scale
    assert build_system(pattern, (1.0, 1.0, 1.0)).asymmetry == pattern.defects[2]


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
    `entries` of the CSC `matrix`."""
    n = matrix.shape[0]
    cols = np.repeat(np.arange(n), np.diff(matrix.indptr))[entries]
    rows = matrix.indices[entries].astype(np.int64)
    return np.minimum(rows, cols) * n + np.maximum(rows, cols)


def _packed_place(front, place):
    """The place in the front's slot of the store, L packed by columns, of
    the oracle's places `place` in a slot that holds L as a k × k square."""
    k = front.size
    j, p = np.divmod(place, k)
    return np.where(place < k * k, j * k - j * (j - 1) // 2 + p - j,
                    place - k * k + k * (k + 1) // 2)


def _assert_matches_edge_list_oracle(pattern, coords):
    """The ordering, every front field, the slots and the fill of `pattern`
    are those of the edge-list analysis of its full matrix H + Hᵀ − diag H,
    which gives each front's entries and their places in the front's own
    slot; the slots follow each other in the factor store, and each entry
    of the half H lies at the place of the oracle's entry of the same index
    pair, with its value."""
    full = full_matrix(pattern.half)
    order, fronts = edge_list_analyse(full, len(pattern.v_free), coords)
    assert _same(pattern.order, order)
    assert len(pattern.fronts) == len(fronts)
    for i, (front, expected) in enumerate(zip(pattern.fronts, fronts)):
        for field in Front._fields:
            assert _same(getattr(front, field), getattr(expected, field)), (i, field)
    sizes = [f.size * (f.size + 1) // 2 + f.size * len(f.struct) for f in fronts]
    slots = np.cumsum([0] + sizes)
    assert pattern.slots == slots.tolist()
    assert pattern.lu_fill == slots[-1]
    empty = [np.empty(0, dtype=np.int64)]
    entries = np.concatenate(empty + [f.entries for f in fronts])
    places = np.concatenate(empty + [_packed_place(f, f.places) + at
                                     for f, at in zip(fronts, slots)])
    assert len(pattern.places) == len(places) == pattern.half.nnz
    for mine, theirs in ((_pairs(pattern.half, slice(None)), _pairs(full, entries)),
                         (pattern.half.data, full.data[entries])):
        store, expected = np.full(slots[-1], -1.0), np.full(slots[-1], -1.0)
        store[pattern.places], expected[places] = mine, theirs
        assert np.array_equal(store, expected)


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


def _child_plans(fronts):
    """(front, child front, plan) for every child of every front."""
    stack = []
    for i, front in enumerate(fronts):
        kids = stack[len(stack) - len(front.children):]
        del stack[len(stack) - len(front.children):]
        for c, plan in zip(kids, front.children):
            yield front, fronts[c], plan
        stack.append(i)


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
    factors = solver._factor(system.pattern, system.matrix.data)
    for front, (low, _) in zip(fronts, factors):
        k = front.size
        assert low.shape == (k * (k + 1) // 2,)
        j = np.arange(k)
        assert (low[j * k - j * (j - 1) // 2] > 0).all()    # the diagonal


@pytest.mark.parametrize("jitter, seed", [(0.0, 0), (0.25, 3)])
def test_child_updates_map_onto_few_runs(jitter, seed, problem):
    # a separator's unknowns next to its left part come first, so the left
    # child's update does not split at every other row (64 and 34 runs for
    # one child when a separator was ordered only along the cut)
    system, *_ = make_system(unit_square_mesh(16, jitter, seed), 2, problem, gamma=1e-3)
    runs = [len(pivot_runs) + len(update_runs)
            for front in system.pattern.fronts
            for _, _, pivot_runs, update_runs in front.children]
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
            np.vstack([trial.dof_coords[trial.free_dofs], test.dof_coords[test.free_dofs]]))


@pytest.mark.parametrize("n", [1, 4, 12])
@pytest.mark.parametrize("jitter, seed", [(0.0, 0), (0.2, 1), (0.29, 2)])
@pytest.mark.parametrize("variant", ["jump", "galerkin"])
@pytest.mark.parametrize("degree", [1, 2])
def test_unit_matrix_matches_full_dof_stacking(degree, variant, jitter, seed, n, problem):
    # blocks restricted at assembly and stacked once give the pattern of the
    # full-DOF blocks restricted by np.ix_, each kept entry's value to its
    # block's rounding, and a matrix that is symmetric to the last bit; the
    # Galerkin S_W is the stiffness matrix, symmetric to rounding only, as
    # it was
    mesh = unit_square_mesh(n, jitter, seed)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    pattern = saddle_pattern(assemble_blocks(trial, test, problem, variant), trial, test)
    expected = full_dof_unit_matrix(mesh, degree, problem, variant)
    full = full_matrix(pattern.half)
    assert np.array_equal(full.indptr, expected.indptr)
    assert np.array_equal(full.indices, expected.indices)
    nv = len(pattern.v_free)
    cols = np.repeat(np.arange(expected.shape[1]), np.diff(expected.indptr))
    classes = (expected.indices >= nv).astype(np.int8) + (cols >= nv)
    # each entry of the half against the stacked entry at its own place
    h = pattern.half.tocoo()
    ids = sp.csc_matrix((np.arange(expected.nnz), expected.indices, expected.indptr),
                        shape=expected.shape)
    at = np.asarray(ids[h.row, h.col]).ravel()
    for block in range(3):
        mine = classes[at] == block
        scale = np.abs(expected.data[classes == block]).max(initial=0.0)
        assert np.abs(h.data[mine] - expected.data[at[mine]]).max(initial=0.0) <= 1e-14 * scale
        assert pattern.defects[block] <= (1e-14 * scale if variant == "galerkin"
                                          and block == 2 else 0.0)


@pytest.mark.parametrize("variant", ["jump", "galerkin"])
@pytest.mark.parametrize("degree", [1, 2])
def test_every_block_gets_its_own_factor(degree, variant, problem):
    # each kept entry is scaled by the factor of the block its row and
    # column give: the matrix is the stacked unit blocks, each times its
    # factor, bit for bit but for the Galerkin S_W, which is symmetric to
    # rounding only and of which the half keeps one entry per pair.  There
    # |fl(5a) − fl(5b)| ≤ 5|a − b| + ulp(5a), below 5 × the scaled system's
    # recorded defect 5|a − b| when a ≠ b (6 × the unit defect at P2)
    mesh = unit_square_mesh(6, jitter=0.2, seed=1)
    trial = build_space(mesh, degree, BoundaryPart.DATA)
    test = build_space(mesh, degree, BoundaryPart.FREE)
    blocks = assemble_blocks(trial, test, problem, variant)
    pattern = saddle_pattern(blocks, trial, test)
    system = build_system(pattern, (2.0, 3.0, 5.0))
    full = full_matrix(system.matrix).toarray()
    expected = sp.bmat([[2.0 * blocks.s_v, 3.0 * blocks.a.T],
                        [3.0 * blocks.a, -5.0 * blocks.s_w]]).toarray()
    nv = len(trial.free_dofs)
    assert np.array_equal(full[:, :nv], expected[:, :nv])
    assert np.array_equal(full[:nv], expected[:nv])
    tolerance = 5.0 * system.asymmetry if variant == "galerkin" else 0.0
    assert system.asymmetry == 5.0 * pattern.defects[2]
    assert np.abs(full[nv:, nv:] - expected[nv:, nv:]).max() <= tolerance


def test_fill_at_p2_n16_is_pinned(problem):
    # the order inside a separator moves no fill
    system, *_ = make_system(unit_square_mesh(16), 2, problem, gamma=1e-3)
    assert system.pattern.lu_fill == 383_631


def test_factor_frees_each_update_once_added(problem):
    # the factorization's traced memory: its peak is at most the store, the
    # largest stack of live update matrices and one k × k work array; when a
    # front's kernels start, its children's updates are freed, so the live
    # memory is the store, the other pending updates, its own update and its
    # work array, plus Python objects under 32 KiB
    system, *_ = make_system(unit_square_mesh(16), 2, problem, gamma=1e-3)
    pattern = system.pattern
    sizes, largest, expected = [], 0, []
    for front in pattern.fronts:
        k, r = front.size, len(front.struct)
        largest = max(largest, sum(sizes) + r * r)
        del sizes[len(sizes) - len(front.children):]
        expected.append(8 * (pattern.slots[-1] + sum(sizes) + r * r + k * k))
        sizes.append(r * r)
    live, dpotrf = [], solver.dpotrf

    def traced_dpotrf(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return dpotrf(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "dpotrf", traced_dpotrf)
        tracemalloc.start()
        try:
            solver._factor(pattern, system.matrix.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    k_max = max(front.size for front in pattern.fronts)
    assert peak <= 8 * (pattern.slots[-1] + largest + k_max * k_max)
    # one dpotrf call per front for its V pivots, one for its W pivots
    calls = np.cumsum([0] + [(f.v_pivots > 0) + (f.v_pivots < f.size)
                             for f in pattern.fronts])
    assert len(live) == calls[-1]
    assert (np.array(live)[calls[:-1]] - np.array(expected) < 32 * 1024).all()


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
def test_discrete_consistency_random_probe(n, degree, variant, gamma, jitter, seed):
    err = discrete_consistency_probe(unit_square_mesh(n, jitter, seed), degree,
                                     gamma, gamma, variant, seed=n + degree)
    assert err < 1e-9


def test_discrete_consistency_interpolated_solution(problem):
    mesh = unit_square_mesh(8)
    trial = build_space(mesh, 1, BoundaryPart.DATA)
    probe = nodal_interpolant(trial, problem.exact_u)
    probe[trial.dirichlet_dofs] = 0.0
    err = discrete_consistency_probe(mesh, 1, GAMMA, GAMMA, "jump", probe=probe)
    assert err < 1e-9


def test_probe_must_respect_constraints(mesh2):
    trial = build_space(mesh2, 1, BoundaryPart.DATA)
    bad = np.ones(trial.num_dofs)
    with pytest.raises(ValueError):
        discrete_consistency_probe(mesh2, 1, GAMMA, GAMMA, probe=bad)


def test_consistency_probe_independent_of_gamma(mesh4):
    rng = np.random.default_rng(5)
    trial = build_space(mesh4, 1, BoundaryPart.DATA)
    probe = rng.standard_normal(trial.num_dofs)
    probe[trial.dirichlet_dofs] = 0.0
    for gamma in (0.01, 1.0):
        err = discrete_consistency_probe(mesh4, 1, gamma, gamma, "jump", probe=probe)
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
