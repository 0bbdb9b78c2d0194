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

Its pattern and unit-penalty values are stacked once per mesh, and the
pattern is then ordered by nested dissection on the unknowns' coordinates
and cut into the fronts of a multifrontal factorization (Duff & Reid, ACM
TOMS 9(3), 1983; `analyse`); every penalty pair of the mesh reuses this
`SaddlePattern` and only scales the values.
Each front is assembled in its slot of the factor store and factors there
densely with no pivoting: a Cholesky factorization of its V pivots, one of
the negated Schur complement of its W pivots, one triangular solve for its
off-diagonal block and two rank-k updates for what it passes to its parent.
One refinement step with the same factors always follows (diagonal pivots
lose digits when a penalty is small: relative residual 1.8e-10 at γ = 1e-4,
P1 n=32); the relative residual is then checked.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf

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
    (the V pivots first; `signs` is +1 on them and −1 on the W pivots), then
    the later positions `struct` that they update.  Its slot in the factor
    store holds the pivot block L (size × size), then the off-diagonal
    block Z (len(struct) × size), both column-major; the stored entries
    `entries` of the matrix go to the flat places `places` of the slot.
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
    signs: np.ndarray
    entries: np.ndarray
    places: np.ndarray
    children: list


def analyse(matrix, n_v, coords):
    """Nested-dissection ordering and fronts of the symmetric pattern of
    `matrix`, whose first `n_v` unknowns are the V unknowns: `order[p]` is
    the unknown eliminated at position p, and the fronts are in elimination
    order, every child before its parent.

    A subdomain of more than LEAF_SIZE unknowns that do not all share one
    coordinate is bisected at the median of its wider coordinate; its
    separator is the set of left-side unknowns with a matrix neighbour on
    the right, and its two parts are dissected in turn.  A separator is
    ordered V before W; in each, the unknowns with a matrix neighbour in the
    left part come first, then the rest, each along the cut.  A child's
    update then maps onto a few runs of consecutive front rows, which
    `_factor` adds as slices, and each run is cut where the front's pivot
    rows end.
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
        if len(idx) > LEAF_SIZE and hi[axis] > lo[axis]:
            c = pts[:, axis]
            median = np.partition(c, len(c) // 2)[len(c) // 2]
            right = c >= median
            if right.all():
                right = c > median
            label[idx] = right
            sep = np.unique(ei[(label[ei] == 0) & (label[ej] == 1)])
            label[sep] = 2
            tail = label[ei]
            ei_left, ej_left = ei[tail == 0], ej[tail == 0]
            # the separator unknowns that end an edge of the left part
            near = np.searchsorted(ej_left, sep, "right") > np.searchsorted(ej_left, sep)
            roots = dissect(idx[label[idx] == 0], ei_left, ej_left)
            del ei_left, ej_left    # freed before the right part is dissected
            roots += dissect(idx[right], ei[tail == 1], ej[tail == 1])
            if not len(sep):
                return roots
            # V before W; in each, the unknowns next to the left part first,
            # so that its update lands in a few runs; then along the cut
            idx = sep[np.lexsort((coords[sep, 1 - axis], ~near, sep >= n_v))]
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
            links.append((cut, z_rows,
                          [(a, b, p, slice(p, p + cut - a) if b == cut else loc[a:cut])
                           for a, b, p in runs[:split]],
                          update_runs))
        v_pivots = int(np.count_nonzero(piv < n_v))
        fronts.append(Front(start, k, v_pivots, struct,
                            np.where(np.arange(k) < v_pivots, 1.0, -1.0),
                            entries[span].astype(np.int32),
                            (slot[rows] + (col[span] - start) * stride[rows]).astype(np.int32),
                            links))
        start = end
    return order, fronts


def _singular(i, front, block):
    return SingularSystemError(
        f"front {i} ({front.size} pivots, {front.v_pivots} of them V): its "
        f"{block} pivot block is not positive definite; check that the "
        "stabilization parameters are positive and the constraint sets are "
        "intact")


def _factor(pattern, data):
    """Per front, L (lower triangle) and Z with the front's pivot block
    L diag(signs) Lᵀ and off-diagonal block Z Lᵀ, for the matrix values
    `data` on the analysed pattern.  Each front is assembled in its slot of
    one buffer and factored there; L and Z are views of that buffer, which
    is returned to the system when the solve drops them.  The strict upper
    triangle of every L stays zero."""
    sizes = [front.size * (front.size + len(front.struct)) for front in pattern.fronts]
    store = np.zeros(sum(sizes))
    factors, stack, at = [], [], 0
    for i, (front, size) in enumerate(zip(pattern.fronts, sizes)):
        k, kv, r = front.size, front.v_pivots, len(front.struct)
        slot = store[at:at + size]
        at += size
        slot[front.places] = data[front.entries]
        low = slot[:k * k].reshape((k, k), order="F")
        off = slot[k * k:].reshape((r, k), order="F")
        update = np.zeros((r, r), order="F")      # what goes to the parent
        for cut, z_rows, pivot_runs, update_runs in reversed(front.children):
            child = stack.pop()
            for a, b, p, rows in pivot_runs:
                low[rows, p:p + b - a] += child[a:cut, a:b]
                off[z_rows, p:p + b - a] += child[cut:, a:b]
            for a, b, q, rows in update_runs:
                update[rows, q:q + b - a] += child[a:, a:b]
        # V pivots: F_vv = L₁L₁ᵀ; W pivots: XXᵀ − F_ww = L₂L₂ᵀ, X = F_wv L₁⁻ᵀ
        if kv:
            low[:kv, :kv], info = dpotrf(low[:kv, :kv], lower=1, clean=0,
                                         overwrite_a=1)
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
                update = dsyrk(-1.0, off[:, :kv], beta=1.0, c=update, lower=1,
                               overwrite_c=1)
            if kv < k:
                update = dsyrk(1.0, off[:, kv:], beta=1.0, c=update, lower=1,
                               overwrite_c=1)
        stack.append(update)
        factors.append((low, off))
    return factors


def _substitute(pattern, factors, rhs):
    """The solution of the factored system for `rhs`."""
    y = rhs[pattern.order]
    for front, (low, off) in zip(pattern.fronts, factors):
        piv = slice(front.start, front.start + front.size)
        y[piv] = dtrsv(low, y[piv], lower=1)
        y[front.struct] -= off @ (front.signs * y[piv])
    for front, (low, off) in zip(reversed(pattern.fronts), reversed(factors)):
        piv = slice(front.start, front.start + front.size)
        y[piv] = dtrsv(low, front.signs * (y[piv] - off.T @ y[front.struct]),
                       lower=1, trans=1)
    x = np.empty_like(y)
    x[pattern.order] = y
    return x


@dataclass(frozen=True)
class SaddlePattern:
    """The saddle matrix of one mesh at unit penalties, analysed once.

    `unit` stacks the restricted S_V, A (and Aᵀ) and −S_W in canonical CSC
    form, and `classes` gives each stored entry's block, which indexes its
    factor in `build_system`: 0 for S_V, 1 for A or Aᵀ, 2 for S_W.
    `tperm[e]` is the stored entry at the transposed place of stored entry
    e.  `g` and `load` are the right side's unit-penalty parts.  `order` and
    `fronts` are the nested-dissection ordering and the fronts of `analyse`.
    """

    unit: sp.csc_matrix
    classes: np.ndarray
    tperm: np.ndarray
    g: np.ndarray
    load: np.ndarray
    v_free: np.ndarray
    w_free: np.ndarray
    n_v: int
    n_w: int
    order: np.ndarray
    fronts: list


@dataclass(frozen=True)
class SaddleSystem:
    """The saddle matrix and right side at one penalty pair; `matrix` shares
    the index arrays of `pattern.unit`."""

    pattern: SaddlePattern
    matrix: sp.csc_matrix
    rhs: np.ndarray


@dataclass(frozen=True)
class DiscreteSolution:
    """Primal/dual coefficient vectors over all DOFs; constrained entries are 0."""

    u: np.ndarray
    z: np.ndarray
    residual: float
    lu_fill: int        # entries of the stored factor blocks: each front's
                        # L (lower triangle) and off-diagonal block Z


def saddle_pattern(blocks, trial, test):
    """Eliminate Dirichlet DOFs and stack the unit-penalty blocks, once per
    mesh."""
    if blocks.s_v.shape != (trial.num_dofs, trial.num_dofs):
        raise ValueError("primal stabilizer does not match the trial space")
    if blocks.a.shape != (test.num_dofs, trial.num_dofs):
        raise ValueError("stiffness block does not match the spaces")
    if blocks.s_w.shape != (test.num_dofs, test.num_dofs):
        raise ValueError("dual stabilizer does not match the test space")

    v_free = trial.free_dofs
    w_free = test.free_dofs
    a = blocks.a[np.ix_(w_free, v_free)]
    unit = sp.bmat([[blocks.s_v[np.ix_(v_free, v_free)], a.T],
                    [a, -blocks.s_w[np.ix_(w_free, w_free)]]], format="csc")
    return analysed_pattern(unit, np.vstack([trial.dof_coords[v_free],
                                             test.dof_coords[w_free]]),
                            blocks.data[v_free], blocks.load[w_free], v_free,
                            w_free, trial.num_dofs, test.num_dofs)


def analysed_pattern(unit, coords, g, load, v_free, w_free, n_v, n_w):
    """The `SaddlePattern` of the CSC matrix `unit`, whose first
    len(v_free) unknowns are the V unknowns and whose unknowns lie at
    `coords`; raises ValueError unless its pattern is symmetric."""
    unit.sort_indices()
    nv = len(v_free)
    classes = (unit.indices >= nv).astype(np.int8) + (np.arange(unit.nnz) >= unit.indptr[nv])
    ids = sp.csc_matrix((np.arange(unit.nnz), unit.indices, unit.indptr),
                        shape=unit.shape).T.tocsc()
    if not (np.array_equal(ids.indptr, unit.indptr)
            and np.array_equal(ids.indices, unit.indices)):
        raise ValueError("saddle matrix pattern is not symmetric")
    return SaddlePattern(unit, classes, ids.data, g, load, v_free, w_free, n_v, n_w,
                         *analyse(unit, nv, coords))


def build_system(pattern, factors=(1.0, 1.0, 1.0)):
    """The saddle system with each block of `pattern` times its factor in
    `factors` (indexed by S_V, A, S_W); g is scaled with S_V."""
    data = pattern.unit.data * np.asarray(factors, dtype=float)[pattern.classes]
    defect = abs(data - data[pattern.tperm]).max() if len(data) else 0.0
    if defect > SYMMETRY_TOL:
        raise ValueError(f"saddle matrix asymmetry {defect:g} exceeds {SYMMETRY_TOL:g}")
    matrix = sp.csc_matrix((data, pattern.unit.indices, pattern.unit.indptr),
                           shape=pattern.unit.shape)
    rhs = np.concatenate([factors[0] * pattern.g, pattern.load])
    return SaddleSystem(pattern=pattern, matrix=matrix, rhs=rhs)


def solve(system):
    """Multifrontal LDLᵀ solve with one refinement step; raises
    SingularSystemError at a pivot block that is not definite and
    UnconvergedSolveError unless the relative residual is finite and below
    RESIDUAL_TOL."""
    pattern = system.pattern
    factors = _factor(pattern, system.matrix.data)
    x = _substitute(pattern, factors, system.rhs)
    x += _substitute(pattern, factors, system.rhs - system.matrix @ x)
    rhs_norm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(system.matrix @ x - system.rhs)
    residual = float(res / rhs_norm) if rhs_norm > 0 else float(res)
    if not residual < RESIDUAL_TOL:
        raise UnconvergedSolveError(
            f"relative residual {residual:.3e} of the LDLᵀ solve is not below "
            f"{RESIDUAL_TOL:g}")

    nv_free = len(pattern.v_free)
    u = np.zeros(pattern.n_v)
    z = np.zeros(pattern.n_w)
    u[pattern.v_free] = x[:nv_free]
    z[pattern.w_free] = x[nv_free:]
    fill = sum(low.shape[0] * (low.shape[0] + 1) // 2 + off.size for low, off in factors)
    return DiscreteSolution(u=u, z=z, residual=residual, lu_fill=fill)
