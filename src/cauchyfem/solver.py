"""Saddle-point system build and direct sparse solve.

After eliminating the homogeneous Dirichlet rows/columns the coupled system
is symmetric indefinite:

    [ S_V  A^T ] [u]   [g]
    [ A   -S_W ] [z] = [l]

restricted to the free DOFs of each space.  With γ_V, γ_W > 0 both penalty
blocks are positive definite there, so the matrix is symmetric quasi-definite
(SQD): every symmetric permutation of it has an LDLᵀ factorization with
diagonal pivots, + on the V unknowns and − on the W unknowns (Vanderbei,
SIAM J. Optim. 5(1), 1995).

Once per mesh its unit-penalty pattern is stacked, checked, ordered by
nested dissection on the unknowns' coordinates and cut into the fronts of a
multifrontal factorization (Duff & Reid, ACM TOMS 9(3), 1983; `analyse`).
The `SaddlePattern` keeps one entry per symmetric pair and each block's
symmetry defect; every penalty pair only scales the kept values.  Fronts
factor densely with no pivoting (`_factor`), and one refinement step with
the same factors always follows (diagonal pivots lose digits when a penalty
is small: relative residual 1.8e-10 at γ = 1e-4, P1 n=32); the relative
residual is then checked.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk, dtpsv, dtrsm
from scipy.linalg.lapack import dpotrf, dtpttr, dtrttp

RESIDUAL_TOL = 1e-10
SYMMETRY_TOL = 1e-12
#: nested dissection stops at subdomains of at most this many unknowns
LEAF_SIZE = 128


class SolverError(RuntimeError):
    """A solve that produced no usable solution."""


class SingularSystemError(SolverError):
    """A front's pivot block is not definite (γ = 0, broken constraints or
    a matrix that is not quasi-definite)."""


class UnconvergedSolveError(SolverError):
    """The solution misses the residual tolerance or is not finite."""


class Front(NamedTuple):
    """One front: pivots at positions start .. start + size of the ordering
    (its `v_pivots` V pivots, sign +1, before its W pivots, sign −1), then
    the later positions `struct` that they update.  Its slot in the factor
    store holds the pivot block L packed by columns (size(size + 1)/2
    entries), then the off-diagonal block Z (len(struct) × size, column-major).
    The runs below number L's rows as in its dense work array in `_factor_front`.
    `children` holds (cut, z_rows, pivot_runs, update_runs) per child, whose
    update matrix U has its rows 0 .. cut in the front's pivot rows and the
    rest in its struct rows.  For each (a, b, p, rows) in `pivot_runs`,
    columns a .. b of U go to columns p .. p + b − a of the front: U's rows
    a .. cut to rows `rows` of L, its rows cut .. to rows `z_rows` of Z.
    For each (a, b, q, rows) in `update_runs`, U[a:, a:b] goes to rows
    `rows` and columns q .. q + b − a of the front's own update matrix.
    Rows are a slice where they are consecutive."""

    start: int
    size: int
    v_pivots: int
    struct: np.ndarray
    children: list


def analyse(matrix, n_v, coords):
    """Nested-dissection ordering and fronts of the symmetric pattern of
    `matrix`, whose first `n_v` unknowns are the V unknowns: `order[p]` is
    the unknown eliminated at position p, and the fronts are in elimination
    order, every child before its parent.  Then the half H, the stored
    entries on and below the diagonal of the reordered matrix (mask `lower`,
    column bounds `indptr`), with their `places` in the factor store of
    `_factor` and the bounds `slots` of the fronts' slots there; the fill
    slots[-1] sums k(k + 1)/2 + k·r over fronts of k pivots, r struct rows.

    A subdomain of more than LEAF_SIZE unknowns that do not all share one
    coordinate is bisected at the median of its wider coordinate; its
    separator is the set of left-side unknowns with a matrix neighbour on
    the right, and its two parts are dissected in turn.  A separator, like
    a leaf, is ordered V before W (a front's signs follow from `v_pivots`);
    in each, the unknowns with a matrix neighbour in the left part come
    first, then the rest, each along the cut.  A child's update then maps
    onto a few runs of consecutive front rows, which `_factor` adds as
    slices, and each run is cut where the front's pivot rows end.

    All subdomains of a depth are cut at once.  An unknown's neighbours lie
    in its subdomain or in an earlier separator, so one product of the 0/1
    pattern with the right sides finds the separators, and one of the
    separators' rows with the left parts their unknowns next to the left.
    The products read the CSC columns as rows, which needs a symmetric
    pattern: `analysed_pattern` checks that before it analyses.
    """
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    counts = np.diff(indptr)
    # the 0/1 pattern read row by row: its columns, as the pattern is symmetric
    adjacent = sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                             shape=(n, n))
    axes = np.ascontiguousarray(coords.T)      # one coordinate per row
    label = np.zeros(n, dtype=np.int8)  # 0/1: left/right of its cut; 2: separator
    near = np.zeros(n, dtype=bool)      # per depth: next to a left part, at separators
    # per subdomain, parents first: (its unknowns,), once cut (separator, left, right)
    parts = [(np.arange(n),)]
    depth = [0]
    while True:
        big = [d for d in depth if len(parts[d][0]) > LEAF_SIZE]   # one after the other
        if not big:
            break
        idx = np.concatenate([parts[d][0] for d in big])
        sizes = np.array([len(parts[d][0]) for d in big])
        starts = np.cumsum(sizes) - sizes
        sub = axes[:, idx]
        extent = (np.maximum.reduceat(sub, starts, axis=1)
                  - np.minimum.reduceat(sub, starts, axis=1))
        axis = (extent[1] > extent[0]).astype(np.intp)
        c = sub[np.repeat(axis, sizes), np.arange(len(idx))]
        median = np.array([np.partition(c[a:a + m], m // 2)[m // 2]
                           for a, m in zip(starts.tolist(), sizes.tolist())])
        right = c >= np.repeat(median, sizes)
        for i in np.flatnonzero(np.logical_and.reduceat(right, starts)):
            at = slice(starts[i], starts[i] + sizes[i])
            right[at] = c[at] > median[i]
        # a subdomain whose unknowns share both coordinates stays a leaf
        spread = extent[axis, np.arange(len(big))] > 0
        if not spread.all():
            keep = np.repeat(spread, sizes)
            idx, right, axis, sizes = idx[keep], right[keep], axis[spread], sizes[spread]
            big = [d for d, x in zip(big, spread) if x]
            if not big:
                break
        which = np.repeat(np.arange(len(big)), sizes)
        label[idx] = right
        sep = ~right & (adjacent @ (label == 1))[idx]
        rows = idx[sep]
        label[rows] = 2
        near[rows] = adjacent[rows] @ (label == 0)
        # V before W; in each, the unknowns next to the left part first, so
        # that its update lands in a few runs; then along the cut
        along = axes[1 - axis[which[sep]], rows]
        rows = rows[np.lexsort((along, ~near[rows], rows >= n_v, which[sep]))]
        # each subdomain's separator, left part and right part
        pieces = [np.split(x, np.searchsorted(which[mask], np.arange(1, len(big))))
                  for x, mask in ((rows, sep), (idx[~right & ~sep], ~right & ~sep),
                                  (idx[right], right))]
        depth = range(len(parts), len(parts) + 2 * len(big))
        for d, piv, left, rest in zip(big, *pieces):
            parts[d] = (piv, len(parts), len(parts) + 1)
            parts += [(left,), (rest,)]

    pivots, kids = [], []   # per node, children first

    def emit(d):
        """Appends the nodes of subdomain d in post-order; returns their roots."""
        piv, *halves = parts[d]     # a leaf's V unknowns come first
        roots = [root for half in halves for root in emit(half)]
        if not len(piv):
            return roots
        pivots.append(piv)
        kids.append(roots)
        return [len(pivots) - 1]

    emit(0)
    order = np.concatenate([np.empty(0, dtype=np.int64)] + pivots)
    itype = indices.dtype
    pos = np.empty(n, dtype=itype)
    pos[order] = np.arange(n, dtype=itype)

    # the stored entries on and below the diagonal of the reordered matrix,
    # column by column in elimination order: found in the stored order, then
    # each column's entries moved as one group to the column's new place
    row = pos[indices]
    lower = row >= np.repeat(pos, counts)
    before = np.concatenate([[0], np.cumsum(lower, dtype=itype)])[indptr]
    lens = np.diff(before)[order]
    bounds = np.concatenate([[0], np.cumsum(lens)])
    moved = (np.arange(bounds[-1], dtype=itype)
             - np.repeat((bounds[:-1] - before[order]).astype(itype), lens))
    row = row[lower][moved]
    col = np.repeat(np.arange(n, dtype=itype), lens)

    # row p of a front's column j is place slot[p] + j * stride[p] of the front's
    # slot (at slots[-1] in the store), less j(j + 1)/2 in L, packed by columns:
    # L (k(k + 1)/2) holds its pivot rows, Z (r × k) its struct rows
    slot, stride = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    places, slots = np.empty(len(row), dtype=np.int64), [0]
    mark = np.zeros(n, dtype=bool)
    v_before = np.concatenate([[0], np.cumsum(order < n_v)]).tolist()
    fronts, structs, start = [], [], 0
    for piv, children in zip(pivots, kids):
        k = len(piv)
        end = start + k
        span = slice(bounds[start], bounds[end])
        mark[np.concatenate([row[span]] + [structs[c] for c in children])] = True
        struct = np.flatnonzero(mark[end:]) + end
        mark[struct] = False    # positions before end are not read again
        structs.append(struct)
        r, tri = len(struct), k * (k + 1) // 2
        slot[start:end] = np.arange(k)
        slot[struct] = np.arange(tri, tri + r)
        stride[start:end], stride[struct] = k, r
        rows, place, j = row[span], places[span], col[span] - start
        np.multiply(j, stride[rows], out=place)
        place += slot[rows] + slots[-1]
        place -= np.where(rows < end, j * (j + 1) // 2, 0)
        slots.append(slots[-1] + tri + k * r)
        links = []
        for c in children:
            loc = slot[structs[c]]
            height = len(loc)
            # runs (a, b, p): rows a .. b of the child go to consecutive rows
            # p .. p + b - a of a column (Z's from tri on); cut where L ends
            head = loc == tri
            head[:1] = True
            head[1:] |= loc[1:] - loc[:-1] != 1
            heads = np.flatnonzero(head)
            firsts = loc[heads].tolist()
            runs = list(zip(heads.tolist(), heads[1:].tolist() + [height], firsts))
            split = bisect_left(firsts, k)
            shifted = loc - tri     # rows of Z and of the update matrix
            # rows a .. end of the child go to consecutive front rows, a
            # slice, when the run from a reaches end
            update_runs = [(a, b, p - tri, slice(p - tri, p - tri + height - a)
                            if b == height else shifted[a:]) for a, b, p in runs[split:]]
            # its rows cut .. go to Z in the rows of its first update run
            cut, z_rows = height, slice(0, 0)
            if update_runs:
                cut, _, _, z_rows = update_runs[0]
            links.append((cut, z_rows,
                          [(a, b, p, slice(p, p + cut - a) if b == cut else loc[a:cut])
                           for a, b, p in runs[:split]],
                          update_runs))
        fronts.append(Front(start, k, v_before[end] - v_before[start], struct, links))
        start = end
    # in the stored order, kept per mesh: half the bytes wherever they fit
    out = np.empty(len(places), dtype=np.int32 if slots[-1] < 2 ** 31 else np.int64)
    out[moved] = places
    return order, fronts, lower, before, out, slots


def _singular(i, front, block):
    return SingularSystemError(
        f"front {i} ({front.size} pivots, {front.v_pivots} of them V): its "
        f"{block} pivot block is not positive definite; check that the "
        "stabilization parameters are positive and the constraint sets are "
        "intact")


def _factor(pattern, data):
    """Per front, L and Z with the front's pivot block L D Lᵀ (D = +1 on the
    V pivots, −1 on the W pivots) and off-diagonal block Z Lᵀ, for the
    values `data` of the pattern's half H, as views of one buffer that holds
    exactly `lu_fill` entries.  One scatter puts the values at their places;
    then each front is factored in its slot there (`_factor_front`)."""
    store, slots, stack = np.zeros(pattern.slots[-1]), pattern.slots, []
    store[pattern.places] = data
    return [_factor_front(i, front, store[at:end], stack)
            for i, (front, at, end) in enumerate(zip(pattern.fronts, slots, slots[1:]))]


def _factor_front(i, front, slot, stack):
    """L and Z of front i, factored in its `slot` of the factor store: L in a
    dense work array, packed back at the end, and Z in place.  Its children's
    updates are popped from `stack`, each freed once added; its own is pushed."""
    k, kv, r = front.size, front.v_pivots, len(front.struct)
    tri = k * (k + 1) // 2
    low, _ = dtpttr(k, slot[:tri], uplo="L")     # zero above the diagonal
    off = slot[tri:].reshape((r, k), order="F")
    update = np.zeros((r, r), order="F")      # what goes to the parent
    for cut, z_rows, pivot_runs, update_runs in reversed(front.children):
        child = stack.pop()
        for a, b, p, rows in pivot_runs:
            low[rows, p:p + b - a] += child[a:cut, a:b]
            off[z_rows, p:p + b - a] += child[cut:, a:b]
        for a, b, q, rows in update_runs:
            update[rows, q:q + b - a] += child[a:, a:b]
    child = None    # the last child's update is not kept through the kernels
    # V pivots: F_vv = L₁L₁ᵀ; W pivots: XXᵀ − F_ww = L₂L₂ᵀ, X = F_wv L₁⁻ᵀ
    if kv:
        low[:kv, :kv], info = dpotrf(low[:kv, :kv], lower=1, clean=0, overwrite_a=1)
        if info:
            raise _singular(i, front, "V")
    if kv < k:
        if kv:
            low[kv:, :kv] = dtrsm(1.0, low[:kv, :kv], low[kv:, :kv], side=1,
                                  lower=1, trans_a=1)
            schur = dsyrk(1.0, low[kv:, :kv], beta=-1.0, c=low[kv:, kv:], lower=1)
        else:
            schur = np.negative(low, out=low)
        low[kv:, kv:], info = dpotrf(schur, lower=1, clean=0, overwrite_a=1)
        if info:
            raise _singular(i, front, "W")
    # off-diagonal block Z = F_uv L⁻ᵀ and the update matrix
    # F_uu − Z_v Z_vᵀ + Z_w Z_wᵀ (lower triangle) for the parent
    if r:
        dtrsm(1.0, low, off, side=1, lower=1, trans_a=1, overwrite_b=1)
        if kv:
            update = dsyrk(-1.0, off[:, :kv], beta=1.0, c=update, lower=1, overwrite_c=1)
        if kv < k:
            update = dsyrk(1.0, off[:, kv:], beta=1.0, c=update, lower=1, overwrite_c=1)
    stack.append(update)
    slot[:tri] = dtrttp(low, uplo="L")[0]
    return slot[:tri], off


def _substitute(pattern, factors, rhs):
    """The solution of the factored system for `rhs`, each L applied in place."""
    y = rhs[pattern.order]
    for front, (low, off) in zip(pattern.fronts, factors):
        piv = y[front.start:front.start + front.size]
        dtpsv(front.size, low, piv, lower=1, overwrite_x=1)
        signed = piv.copy()
        signed[front.v_pivots:] *= -1.0     # D: −1 on the W pivots
        y[front.struct] -= off @ signed
    for front, (low, off) in zip(reversed(pattern.fronts), reversed(factors)):
        piv = y[front.start:front.start + front.size]
        piv -= off.T @ y[front.struct]
        piv[front.v_pivots:] *= -1.0
        dtpsv(front.size, low, piv, lower=1, trans=1, overwrite_x=1)
    x = np.empty_like(y)
    x[pattern.order] = y
    return x


@dataclass(frozen=True)
class SaddlePattern:
    """The saddle matrix M of one mesh at unit penalties, analysed once.

    M = H + Hᵀ − diag H is kept as its half H (`analyse`), one entry per
    symmetric pair, a CSC matrix in the original numbering: the V unknowns
    before the W unknowns, so an entry's row and column give its block,
    0 for S_V, 1 for A or Aᵀ, 2 for −S_W (`build_system`); `defects[c]` is
    the largest |M_ij − M_ji| in block c.  `g` and `load` are the right
    side's unit-penalty parts; the rest comes from `analyse`."""

    half: sp.csc_matrix
    defects: np.ndarray
    g: np.ndarray
    load: np.ndarray
    v_free: np.ndarray
    w_free: np.ndarray
    n_v: int
    n_w: int
    order: np.ndarray
    fronts: list
    places: np.ndarray
    slots: list

    @property
    def lu_fill(self):      # stored factor entries: the size of the factor store
        return self.slots[-1]


@dataclass(frozen=True)
class SaddleSystem:
    """The half H of the saddle matrix and the right side at one penalty
    pair, and the largest |M_ij − M_ji| of its scaled blocks."""

    pattern: SaddlePattern
    matrix: sp.csc_matrix
    rhs: np.ndarray
    asymmetry: float


@dataclass(frozen=True)
class DiscreteSolution:
    """Primal/dual coefficient vectors over all DOFs; constrained entries are 0."""

    u: np.ndarray
    z: np.ndarray
    residual: float


def stacked(blocks, trial, test):
    """The arguments of `analysed_pattern` for the unit-penalty blocks on the
    free DOFs: their stacked matrix, the unknowns' coordinates, the right
    side's parts and the DOFs.  S_V, A and S_W can be freed before analysing."""
    v_free, w_free = trial.free_dofs, test.free_dofs
    nv, nw = len(v_free), len(w_free)
    if (blocks.s_v.shape, blocks.a.shape, blocks.s_w.shape) != ((nv, nv), (nw, nv), (nw, nw)):
        raise ValueError("the blocks do not match the free DOFs of the spaces")
    unit = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]], format="csc")
    coords = np.vstack([trial.dof_coords[v_free], test.dof_coords[w_free]])
    return unit, coords, blocks.data, blocks.load, v_free, w_free, trial.num_dofs, test.num_dofs


def analysed_pattern(unit, coords, g, load, v_free, w_free, n_v, n_w):
    """The `SaddlePattern` of the CSC matrix `unit`, whose first
    len(v_free) unknowns are the V unknowns and whose unknowns lie at
    `coords`; raises ValueError unless its pattern is symmetric.  The
    transpose map of that check also gives each block's symmetry defect."""
    unit.sort_indices()
    nv = len(v_free)
    ids = sp.csc_matrix((np.arange(unit.nnz, dtype=unit.indices.dtype), unit.indices,
                         unit.indptr), shape=unit.shape).T.tocsc()
    if not (np.array_equal(ids.indptr, unit.indptr)
            and np.array_equal(ids.indices, unit.indices)):
        raise ValueError("saddle matrix pattern is not symmetric")
    defect = unit.data[ids.data]    # then |M_ij − M_ji|, in the same buffer
    del ids
    np.abs(np.subtract(unit.data, defect, out=defect), out=defect)
    # the V columns hold S_V above A, the W columns Aᵀ (A's defects) above −S_W
    at, below = unit.indptr[nv], unit.indices >= nv
    defects = np.array([np.max(defect[:at], where=~below[:at], initial=0.0),
                        np.max(defect[:at], where=below[:at], initial=0.0),
                        np.max(defect[at:], where=below[at:], initial=0.0)])
    del defect, below
    order, fronts, lower, indptr, places, slots = analyse(unit, nv, coords)
    half = sp.csc_matrix((unit.data[lower], unit.indices[lower], indptr), shape=unit.shape)
    return SaddlePattern(half, defects, g, load, v_free, w_free, n_v, n_w,
                         order, fronts, places, slots)


def build_system(pattern, factors=(1.0, 1.0, 1.0)):
    """The saddle system with each block of `pattern` times its factor in
    `factors` (indexed by S_V, A, S_W), each entry's block read off its row
    and column; g is scaled with S_V.  Raises ValueError when a scaled
    block's defect exceeds SYMMETRY_TOL."""
    factors = np.asarray(factors, dtype=float)
    defect = float(np.max(np.abs(factors) * pattern.defects))
    if defect > SYMMETRY_TOL:
        raise ValueError(f"saddle matrix asymmetry {defect:g} exceeds {SYMMETRY_TOL:g}")
    half, nv = pattern.half, len(pattern.v_free)
    block = (half.indices >= nv).astype(np.intp)   # 0: S_V, 1: A or Aᵀ, 2: −S_W
    block[half.indptr[nv]:] += 1        # the columns of the W unknowns
    data = factors[block]
    data *= half.data
    return SaddleSystem(pattern, sp.csc_matrix((data, half.indices, half.indptr), half.shape),
                        np.concatenate([factors[0] * pattern.g, pattern.load]), defect)


def w_form(pattern, z):
    """zᵀ M_ww z for W values z from the half H: 2 xᵀHx − Σ h_ii x_i², x = (0, z)."""
    x, half = np.concatenate([np.zeros(len(pattern.v_free)), z]), pattern.half
    return 2.0 * float(x @ (half @ x)) - float(half.diagonal() @ (x * x))


def solve(system):
    """Multifrontal LDLᵀ solve with one refinement step, M x taken as
    Hx + Hᵀx − diag(H)x; raises SingularSystemError at a pivot block that is
    not definite and UnconvergedSolveError unless the relative residual is
    finite and below RESIDUAL_TOL."""
    pattern, half, diagonal = system.pattern, system.matrix, system.matrix.diagonal()
    factors = _factor(pattern, half.data)
    x = _substitute(pattern, factors, system.rhs)
    x += _substitute(pattern, factors, system.rhs - (half @ x + half.T @ x - diagonal * x))
    rhs_norm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(half @ x + half.T @ x - diagonal * x - system.rhs)
    residual = float(res / rhs_norm) if rhs_norm > 0 else float(res)
    if not residual < RESIDUAL_TOL:
        raise UnconvergedSolveError(
            f"relative residual {residual:.3e} of the LDLᵀ solve is not below "
            f"{RESIDUAL_TOL:g}")
    u, z = np.zeros(pattern.n_v), np.zeros(pattern.n_w)
    u[pattern.v_free], z[pattern.w_free] = np.split(x, [len(pattern.v_free)])
    return DiscreteSolution(u=u, z=z, residual=residual)
