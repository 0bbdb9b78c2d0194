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

Once per mesh its unit-penalty matrix is stacked, checked to be exactly
symmetric, ordered by nested dissection on the unknowns' lattice positions
and cut into the fronts of a multifrontal factorization (Duff & Reid, ACM
TOMS 9(3), 1983; `analyse`).  The `SaddlePattern` keeps one entry per
symmetric pair; every penalty pair only scales each block's kept values by
one factor.  Fronts factor densely with no pivoting (`_factor`), and one
refinement step with the same factors always follows (diagonal pivots lose
digits when a penalty is small: relative residual 1.8e-10 at γ = 1e-4, P1
n=32); the relative residual is then checked.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dnrm2, dsyrk, dtpsv, dtrsm
from scipy.linalg.lapack import dpotrf, dtrttp

RESIDUAL_TOL = 1e-10
#: nested dissection stops at subdomains of at most this many unknowns
LEAF_SIZE = 128


class SolverError(RuntimeError):
    """A solve that produced no usable solution."""


class SingularSystemError(SolverError):
    """A front's pivot block is not definite (γ = 0, broken constraints, a
    matrix that is not quasi-definite, or a penalty so small that the block
    loses its definiteness in rounding)."""


class UnconvergedSolveError(SolverError):
    """The solution misses the residual tolerance or is not finite."""


class Front(NamedTuple):
    """One front: pivots at positions start .. start + size of the ordering
    (its `v_pivots` V pivots, sign +1, before its W pivots, sign −1), then
    the later positions `struct` that they update.  Its slot in the
    workspace holds the pivot block L packed by columns (size(size + 1)/2
    entries), then the off-diagonal block Z (len(struct) × size,
    column-major).  The runs below number L's rows as in its dense pivot
    block.  `children` holds (child, cut, z_rows, pivot_runs, update_runs)
    per child front, whose update matrix U has its rows 0 .. cut in the
    front's pivot rows and the rest in its struct rows.  For each (a, b, p,
    rows) in `pivot_runs`, columns a .. b of U go to columns p .. p + b − a
    of the front: U's rows a .. cut to rows `rows` of L, its rows cut .. to
    rows `z_rows` of Z.  For each (a, b, q, rows) in `update_runs`,
    U[a:, a:b] goes to rows `rows` and columns q .. q + b − a of the front's
    own update matrix.  Rows are a slice where they are consecutive.  A
    front that is the `twin` of an earlier front (−1: none) has no slot: it
    takes that front's L, Z and update."""

    start: int
    size: int
    v_pivots: int
    struct: np.ndarray
    children: list
    twin: int = -1


class Workspace(NamedTuple):
    """The plan of the float64 workspace of one factorization, `size`
    entries, made once per mesh by `analyse`.  Front i's slot, which keeps
    its factors, is slots[i] .. slots[i + 1], empty for a twin; a factored
    front's dense pivot block (size² entries) starts at `dense[i]`, and the
    update that it hands its parent (len(struct)² entries, column-major) at
    `updates[i]`, a twin's at its representative's.  Past slots[-1] it
    holds at least the entries of H.
    Numbered column by column in elimination order, the entries of H are
    lo .. hi for front i, (lo, mid, hi) = spans[i], those of its V columns
    up to mid; the j-th column has lens[j] of them, entry e of it being
    H's stored entry shift[j] + e."""

    size: int
    slots: list
    dense: list
    updates: list
    spans: list
    shift: np.ndarray
    lens: np.ndarray


def analyse(matrix, n_v, coords):
    """Nested-dissection ordering and fronts of the symmetric pattern of
    `matrix`, whose first `n_v` unknowns are the V unknowns: `order[p]` is
    the unknown eliminated at position p, and the fronts are in elimination
    order, every child before its parent, whose struct rows take in the
    child's.  Then the half H, the stored entries on and below the diagonal
    of the reordered matrix (mask `lower`, column bounds `indptr`, their
    `values` in the stored order), with their `places` in the workspace of
    `_factor` (a twin's entries at its representative's places), and the
    `Workspace` plan: the fronts' slots, one after another, then the pivot
    blocks and updates placed by `_plan`.

    A subdomain of more than LEAF_SIZE unknowns is bisected at the median m
    of its wider coordinate c in `coords`; its separator is the set of
    left-side unknowns with a matrix neighbour on the right, and its two
    parts are dissected in turn.  The right side is c ≥ m, or c > m when
    that is not empty and either its separator is smaller or c ≥ m is all of
    the subdomain: cuts then follow the mesh lines with the smaller
    separators (George, SIAM J. Numer. Anal. 10(2), 1973), at P2 the
    vertex lines, not the edge-midpoint lines beside them (the root front at
    n=64 has 638 pivots, not 891).  A subdomain whose cut leaves a part as
    large as itself stays a leaf, which happens only when all its unknowns
    sit at one point; every other cut shrinks its parts, so the loop ends.
    A separator, like a leaf, is ordered V before W (a front's signs follow
    from `v_pivots`), then along the cut.  On lattice positions a child's
    update then maps onto a few runs of consecutive front rows, which
    `_factor` adds as slices, and each run is cut where the front's pivot
    rows end.

    All subdomains of a depth are cut at once.  An unknown's neighbours lie
    in its subdomain or in an earlier separator, so one product of the 0/1
    pattern with the right sides finds the separators.  The two cuts differ
    only on the ties c = m, so the rows of the separators and of the ties
    count the second cut's separators.  The products read the CSC columns
    as rows, which needs a symmetric pattern: `analysed_pattern` checks that
    before it analyses.

    A front is the twin of the earliest front with the same pivot counts,
    struct rows' V/W flags, own entries (places and unit values, bit for bit,
    in any order) and children (class and map, pair by pair), compared as
    arrays once a key with a digest of the entries picks the candidates.
    """
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    counts = np.diff(indptr)
    # the 0/1 pattern read row by row: its columns, as the pattern is symmetric
    adjacent = sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                             shape=(n, n))
    axes = np.ascontiguousarray(coords.T)      # one coordinate per row
    label = np.zeros(n, dtype=bool)     # right of its subdomain's cut, per depth
    # per subdomain, parents first: (its unknowns,), once cut (separator, left, right)
    parts = [(np.arange(n),)]
    depth_start = 0
    while True:
        big = [d for d in range(depth_start, len(parts)) if len(parts[d][0]) > LEAF_SIZE]
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
        cut = np.repeat(median, sizes)
        right = c >= cut
        tie = right & (c == cut)
        which = np.repeat(np.arange(len(big)), sizes)
        label[idx] = right
        sep = ~right & (adjacent @ label)[idx]
        # the cut c > m moves the ties left; its separator: sep | tie next to c > m
        label[idx[tie]] = False
        other = np.zeros_like(sep)
        ends = np.flatnonzero(sep | tie)
        other[ends] = adjacent[idx[ends]] @ label
        size = [np.bincount(which[x], minlength=len(big)) for x in (sep, other, right & ~tie)]
        whole = np.logical_and.reduceat(right, starts)
        flip = (((size[1] < size[0]) | whole) & (size[2] > 0))[which]
        sep = np.where(flip, other, sep)
        right &= ~(tie & flip)
        label[idx] = right
        rows = idx[sep]
        # V before W, then along the cut
        rows = rows[np.lexsort((axes[1 - axis[which[sep]], rows], rows >= n_v, which[sep]))]
        # each subdomain's separator, left part and right part
        pieces = [np.split(x, np.searchsorted(which[mask], np.arange(1, len(big))))
                  for x, mask in ((rows, sep), (idx[~right & ~sep], ~right & ~sep),
                                  (idx[right], right))]
        depth_start = len(parts)
        for d, piv, left, rest in zip(big, *pieces):
            if len(parts[d][0]) in (len(piv), len(left), len(rest)):
                continue    # all its unknowns at one point: it stays a leaf
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
    # H's values, kept: made after the arrays below, they raised the peak
    # RSS of the sweep and of the P1 study by about 0.4 and 1 MiB
    values = matrix.data[lower]
    before = np.concatenate([[0], np.cumsum(lower, dtype=itype)])[indptr]
    lens = np.diff(before)[order]
    bounds = np.concatenate([[0], np.cumsum(lens)])
    moved = np.arange(bounds[-1]) - np.repeat(bounds[:-1] - before[order], lens)
    row, bits = row[lower][moved], values[moved].view(np.int64)
    col = np.repeat(np.arange(n, dtype=itype), lens)

    # row p of a front's column j is place slot[p] + j * stride[p] of the front:
    # its dense pivot block L (k × k) holds its pivot rows, then Z (r × k) its
    # struct rows, both column-major
    slot, stride = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    places, slots = np.empty(len(row), dtype=np.int64), [0]
    mark = np.zeros(n, dtype=bool)
    fronts, start, first, is_v = [], 0, {}, order < n_v    # first: per key, fronts no twin

    def same(t, span, struct):
        other = slice(bounds[fronts[t].start], bounds[fronts[t].start + fronts[t].size])
        mine, theirs, x, y = places[span], places[other], bits[span], bits[other]
        if mine.tobytes() != theirs.tobytes():      # in another order?
            i, j = np.argsort(mine), np.argsort(theirs)
            mine, theirs, x, y = mine[i], theirs[j], x[i], y[j]
        return (mine.tobytes() == theirs.tobytes() and x.tobytes() == y.tobytes()
                and is_v[fronts[t].struct].tobytes() == is_v[struct].tobytes())

    for piv, children in zip(pivots, kids):
        k = len(piv)
        end = start + k
        span = slice(bounds[start], bounds[end])
        mark[np.concatenate([row[span]] + [fronts[c].struct for c in children])] = True
        struct = np.flatnonzero(mark[end:]) + end
        mark[struct] = False    # positions before end are not read again
        r, square = len(struct), k * k
        slot[start:end] = np.arange(k)
        slot[struct] = np.arange(square, square + r)
        stride[start:end], stride[struct] = k, r
        rows, place, j = row[span], places[span], col[span] - start
        np.multiply(j, stride[rows], out=place)
        place += slot[rows]
        links, shapes = [], []
        for c in children:
            loc = slot[fronts[c].struct]
            height = len(loc)
            # runs (a, b, p): rows a .. b of the child go to consecutive rows
            # p .. p + b - a of a column (Z's from k² on); cut where L ends
            head = loc == square
            head[:1] = True
            head[1:] |= loc[1:] - loc[:-1] != 1
            heads = np.flatnonzero(head)
            firsts = loc[heads].tolist()
            runs = list(zip(heads.tolist(), heads[1:].tolist() + [height], firsts))
            split = bisect_left(firsts, k)
            shifted = loc - square      # rows of Z and of the update matrix
            # rows a .. end of the child go to consecutive front rows, a
            # slice, when the run from a reaches end
            update_runs = [(a, b, p - square, slice(p - square, p - square + height - a)
                            if b == height else shifted[a:]) for a, b, p in runs[split:]]
            # its rows cut .. go to Z in the rows of its first update run
            cut, z_rows = height, slice(0, 0)
            if update_runs:
                cut, _, _, z_rows = update_runs[0]
            links.append((c, cut, z_rows,
                          [(a, b, p, slice(p, p + cut - a) if b == cut else loc[a:cut])
                           for a, b, p in runs[:split]],
                          update_runs))
            shapes.append((c if fronts[c].twin < 0 else fronts[c].twin, tuple(runs)))
        kv = int(np.count_nonzero(piv < n_v))
        alike = first.setdefault((k, kv, r, tuple(shapes), int(bits[span] @ place)), [])
        twin = next((t for t in alike if same(t, span, struct)), -1)
        if twin < 0:
            alike.append(len(fronts))
        slots.append(slots[-1] + (k * (k + 1) // 2 + k * r if twin < 0 else 0))
        fronts.append(Front(start, k, kv, struct, links, twin))
        start = end
    size, dense, updates = _plan(fronts, slots, len(values))
    # a pivot row's place moves to the dense pivot block of the front (of
    # its representative, for a twin), a struct row's to Z, after L packed
    for i, f in enumerate(fronts):
        t, k = i if f.twin < 0 else f.twin, f.size
        own = places[bounds[f.start]:bounds[f.start + k]]
        own += np.where(own < k * k, dense[t], slots[t] + k * (k + 1) // 2 - k * k)
    # in the stored order, kept per mesh: half the bytes wherever they fit
    out = np.empty(len(places), dtype=np.int32 if size < 2 ** 31 else np.int64)
    out[moved] = places
    spans = [bounds[[f.start, f.start + f.v_pivots, f.start + f.size]].tolist() for f in fronts]
    return order, fronts, lower, before, values, out, Workspace(
        size, slots, dense, updates, spans, (before[order] - bounds[:-1]).astype(itype), lens)


def _plan(fronts, slots, tail):
    """The size of the workspace of the factorization of `fronts`, whose
    slots start at `slots`, at least slots[-1] + `tail`, and the offsets of
    the factored fronts' dense pivot blocks and updates.  A pivot block
    lives while its front is factored; an update from its front to its last
    reader, which is its parent or the factored parent of one of its twins
    (a twin's parent reads the representative's update).  Each of these
    items lies above the slots of the fronts factored by its last step, at
    the lowest such offset clear of every item placed before it whose life
    overlaps its own, the largest first (first fit by decreasing size):
    below a slot, an item leaves its addresses to the slot's front before
    that front starts."""
    last = list(range(len(fronts)))
    for p, f in enumerate(fronts):
        if f.twin < 0:      # a twin reads no update
            for c, *_ in f.children:
                last[c if fronts[c].twin < 0 else fronts[c].twin] = p
    items = [(size, i, end, kind) for i, f in enumerate(fronts) if f.twin < 0
             for size, end, kind in ((f.size ** 2, i, 0), (len(f.struct) ** 2, last[i], 1))
             if size]
    offsets, placed = [[0] * len(fronts), [0] * len(fronts)], []     # placed: by offset
    for size, first, end, kind in sorted(items, key=lambda item: -item[0]):
        at = slots[end + 1]
        for lo, hi, a, b in placed:
            if hi <= at or b < first or a > end:
                continue    # below it, or dead while it lives
            if lo >= at + size:
                break
            at = hi
        insort(placed, (at, at + size, first, end))
        offsets[kind][first] = at
    dense, updates = offsets
    for i, f in enumerate(fronts):
        if f.twin >= 0:
            updates[i] = updates[f.twin]
    return max([slots[-1] + tail] + [hi for _, hi, _, _ in placed]), dense, updates


def _singular(i, front, block, factors):
    return SingularSystemError(
        f"front {i} ({front.size} pivots, {front.v_pivots} of them V) at penalty "
        f"factors S_V {factors[0]:g}, A {factors[1]:g}, S_W {factors[2]:g}: its "
        f"{block} pivot block is not positive definite; check that the "
        "stabilization parameters are positive and the constraint sets are "
        "intact; with both, a very small penalty makes the pivot block lose "
        "its definiteness in rounding")


def _factor(pattern, factors):
    """The pattern's workspace and, per front, L and Z with the front's pivot
    block L D Lᵀ (D = +1 on the V pivots, −1 on the W pivots) and
    off-diagonal block Z Lᵀ, for the half H with each block times its
    factor in `factors`, as views of the workspace's slots.  The workspace
    is allocated once, as planned by `analyse`.  Just before each factored
    front, the parts of its Z and of the lower triangles of its dense pivot
    block and update that earlier fronts used are zeroed (the rest is still
    zero from the allocation, so a fresh page is first touched by the front
    that needs it; no kernel reads an upper triangle, and an update's upper
    triangle only adds into its parent's), and the front's own entries of
    H, found from H's column bounds, are scaled into them; it is factored
    there (`_factor_front`) and L is packed into its slot.  A twin takes its
    representative's views, and its parent reads the representative's
    update, which stays in the workspace until its last reader."""
    plan, fronts = pattern.workspace, pattern.fronts
    slots = plan.slots
    work, out, top = np.zeros(plan.size), [], 0     # top: the end of what earlier fronts used

    def square(at, r):
        return work[at:at + r * r].reshape((r, r), order="F")

    for i, front in enumerate(fronts):
        if front.twin >= 0:
            out.append(out[front.twin])
            continue
        k, r, dense, update = front.size, len(front.struct), plan.dense[i], plan.updates[i]
        at = slots[i] + k * (k + 1) // 2
        work[at:min(slots[i + 1], top)] = 0.0
        for lo, m in ((dense, k), (update, r)):
            # its lower triangle in panels of 128 columns, each from its
            # first diagonal entry down (at most m(m + 128)/2 entries); the
            # first panel is whole columns, one slice
            work[lo:min(lo + m * min(m, 128), top)] = 0.0
            for j in range(128, m, 128):
                if lo + j * (m + 1) >= top:
                    break
                square(lo, m)[j:, j:j + 128] = 0.0
        _scatter(pattern, i, factors, work)
        low, off = square(dense, k), work[at:slots[i + 1]].reshape((r, k), order="F")
        _factor_front(i, front, low, off, square(update, r), factors,
                      [(square(plan.updates[c], len(fronts[c].struct)), *link)
                       for c, *link in front.children])
        work[slots[i]:at] = dtrttp(low, uplo="L")[0]
        out.append((work[slots[i]:at], off))
        top = max(top, dense + k * k, update + r * r)
    return work, out


def _scatter(pattern, i, factors, work):
    """Front i's own entries of the half H, each times the factor of its
    block in `factors`, written to their places in the workspace `work`."""
    plan, front = pattern.workspace, pattern.fronts[i]
    (lo, mid, hi), a, b = plan.spans[i], front.start, front.start + front.size
    own = np.repeat(plan.shift[a:b], plan.lens[a:b]) + np.arange(lo, hi)
    block = _blocks(pattern, own, mid - lo)
    work[pattern.places[own]] = pattern.half.data[own] * factors[block]


def _blocks(pattern, own, w_from):
    """The block of each of the entries `own` of the pattern's half H, 0
    for S_V, 1 for A or Aᵀ, 2 for −S_W, read off the entry's row and
    column: the V columns hold S_V above A, the W columns Aᵀ above −S_W.
    The entries of `own` from `w_from` on lie in W columns."""
    block = (pattern.half.indices[own] >= len(pattern.v_free)).view(np.int8)   # 1: A or Aᵀ
    block[w_from:] += 1         # W columns: Aᵀ, or 2 for −S_W
    return block


def _factor_front(i, front, low, off, update, factors, children):
    """Front i factored in place: its dense pivot block `low` (k × k) into L,
    its Z block `off` (r × k) into Z and its update matrix `update` (r × r),
    each holding the front's own entries, after its children's updates are
    added: `children` holds each child's update with its link."""
    kv = front.v_pivots
    for child, cut, z_rows, pivot_runs, update_runs in reversed(children):
        for a, b, p, rows in pivot_runs:
            low[rows, p:p + b - a] += child[a:cut, a:b]
            off[z_rows, p:p + b - a] += child[cut:, a:b]
        for a, b, q, rows in update_runs:
            update[rows, q:q + b - a] += child[a:, a:b]
    # V pivots: F_vv = L₁L₁ᵀ; W pivots: XXᵀ − F_ww = L₂L₂ᵀ, X = F_wv L₁⁻ᵀ.
    # LAPACK and BLAS take the empty blocks of a front with no V or no W
    # pivots, but scipy's dsyrk rejects an empty output block: hence the
    # guards on the W block and on the struct rows
    low[:kv, :kv], info = dpotrf(low[:kv, :kv], lower=1, clean=0, overwrite_a=1)
    if info:
        raise _singular(i, front, "V", factors)
    low[kv:, :kv] = dtrsm(1.0, low[:kv, :kv], low[kv:, :kv], side=1, lower=1, trans_a=1)
    if kv < front.size:
        schur = dsyrk(1.0, low[kv:, :kv], beta=-1.0, c=low[kv:, kv:], lower=1)
        low[kv:, kv:], info = dpotrf(schur, lower=1, clean=0, overwrite_a=1)
        if info:
            raise _singular(i, front, "W", factors)
    # off-diagonal block Z = F_uv L⁻ᵀ and the update matrix
    # F_uu − Z_v Z_vᵀ + Z_w Z_wᵀ (lower triangle) for the parent, in place
    if len(off):
        dtrsm(1.0, low, off, side=1, lower=1, trans_a=1, overwrite_b=1)
        dsyrk(-1.0, off[:, :kv], beta=1.0, c=update, lower=1, overwrite_c=1)
        dsyrk(1.0, off[:, kv:], beta=1.0, c=update, lower=1, overwrite_c=1)


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

    M = H + Hᵀ − diag H, checked to be exactly symmetric, is kept as its
    half H (`analyse`), one entry per symmetric pair, a CSC matrix in the
    original numbering: the V unknowns before the W unknowns, so an entry's
    row and column give its block, 0 for S_V, 1 for A or Aᵀ, 2 for −S_W
    (`build_system`).  `g` and `load` are the right side's unit-penalty
    parts; the rest comes from `analyse`: the order, the fronts, each
    entry's place in the workspace and the `Workspace` plan of one
    factorization, the slots of the factors among it."""

    half: sp.csc_matrix
    g: np.ndarray
    load: np.ndarray
    v_free: np.ndarray
    w_free: np.ndarray
    n_v: int
    n_w: int
    order: np.ndarray
    fronts: list
    places: np.ndarray
    workspace: Workspace

    @property
    def lu_fill(self):      # stored factor entries, twins' too; the slots hold fewer
        return sum(f.size * (f.size + 1) // 2 + f.size * len(f.struct) for f in self.fronts)


@dataclass(frozen=True)
class SaddleSystem:
    """The saddle system at one penalty pair: the factors of S_V, A and S_W
    that scale the pattern's unit half H, and the right side.  It keeps no
    scaled copy of H."""

    pattern: SaddlePattern
    factors: np.ndarray
    rhs: np.ndarray

    @property
    def matrix(self):
        """The half H with each block times its factor, made on each read."""
        return _scaled(self.pattern, self.factors, np.empty(self.pattern.half.nnz))


@dataclass(frozen=True)
class DiscreteSolution:
    """Primal/dual coefficient vectors over all DOFs; constrained entries are 0."""

    u: np.ndarray
    z: np.ndarray
    residual: float


def stacked(blocks, trial, test):
    """The arguments of `analysed_pattern` for the unit-penalty blocks on the
    free DOFs: their stacked matrix, the unknowns' lattice positions (so a
    jittered mesh is ordered as its lattice), the right side's parts and the
    DOFs.  S_V, A and S_W can be freed before analysing."""
    v_free, w_free = trial.free_dofs, test.free_dofs
    nv, nw = len(v_free), len(w_free)
    if (blocks.s_v.shape, blocks.a.shape, blocks.s_w.shape) != ((nv, nv), (nw, nv), (nw, nw)):
        raise ValueError("the blocks do not match the free DOFs of the spaces")
    unit = sp.bmat([[blocks.s_v, blocks.a.T], [blocks.a, -blocks.s_w]], format="csc")
    coords = np.vstack([trial.dof_lattice[v_free], test.dof_lattice[w_free]])
    return unit, coords, blocks.data, blocks.load, v_free, w_free, trial.num_dofs, test.num_dofs


def analysed_pattern(unit, coords, g, load, v_free, w_free, n_v, n_w):
    """The `SaddlePattern` of the CSC matrix `unit`, whose first
    len(v_free) unknowns are the V unknowns, ordered by their positions
    `coords`.  Raises ValueError unless `unit` equals its transpose exactly,
    pattern and values, naming the largest |M_ij − M_ji|, its entry and its
    block; scaling each block by one factor keeps that at every penalty."""
    unit.sort_indices()
    nv = len(v_free)
    flipped = unit.T.tocsc()    # Mᵀ in sorted CSC
    if not (np.array_equal(flipped.indptr, unit.indptr)
            and np.array_equal(flipped.indices, unit.indices)):
        raise ValueError("saddle matrix pattern is not symmetric")
    defect = flipped.data       # M_ji, then |M_ij − M_ji| in the same buffer
    del flipped
    np.abs(np.subtract(unit.data, defect, out=defect), out=defect)
    if defect.any():
        at = np.argmax(defect)
        i, j = unit.indices[at], np.searchsorted(unit.indptr, at, side="right") - 1
        block = "A" if (i < nv) != (j < nv) else "S_V" if i < nv else "S_W"
        raise ValueError(f"saddle matrix is not symmetric: |M_ij − M_ji| = "
                         f"{defect[at]:g} at ({i}, {j}), in block {block}")
    del defect
    order, fronts, lower, indptr, values, places, workspace = analyse(unit, nv, coords)
    # built once analyse's temporaries are freed: built among them, the half
    # raised the P2 study's peak RSS by about 15 MiB (180 against 165 MiB)
    half = sp.csc_matrix((values, unit.indices[lower], indptr), shape=unit.shape)
    return SaddlePattern(half, g, load, v_free, w_free, n_v, n_w,
                         order, fronts, places, workspace)


def build_system(pattern, factors=(1.0, 1.0, 1.0)):
    """The saddle system with each block of `pattern` times its factor in
    `factors` (indexed by S_V, A, S_W); g is scaled with S_V.  Keeps the
    factors, not a scaled matrix."""
    factors = np.asarray(factors, dtype=float)
    return SaddleSystem(pattern, factors, np.concatenate([factors[0] * pattern.g, pattern.load]))


def _scaled(pattern, factors, data):
    """The pattern's half H with each block (`_blocks`) times its factor in
    `factors`, its values written to `data`."""
    half = pattern.half
    block = _blocks(pattern, slice(None), half.indptr[len(pattern.v_free)])
    for b, factor in enumerate(factors):    # factors[block] would copy H's size
        np.multiply(half.data, factor, out=data, where=block == b)
    return sp.csc_matrix((data, half.indices, half.indptr), half.shape)


def solve(system):
    """Multifrontal LDLᵀ solve with one refinement step, M x taken as
    Hx + Hᵀx − diag(H)x for the scaled half H, made once the factors are,
    in the workspace past their slots, where only dead updates and pivot
    blocks lay; raises SingularSystemError at a pivot block that is not
    definite and UnconvergedSolveError unless the relative residual is
    finite and below RESIDUAL_TOL."""
    pattern = system.pattern
    work, stored = _factor(pattern, system.factors)
    # scipy's csc_matrix and .T copy a view of less than half its base
    # array: one made on the workspace's buffer has no base array
    half = _scaled(pattern, system.factors, np.frombuffer(
        memoryview(work), count=pattern.half.nnz, offset=8 * pattern.workspace.slots[-1]))
    diagonal = half.diagonal()
    x = _substitute(pattern, stored, system.rhs)
    x += _substitute(pattern, stored, system.rhs - (half @ x + half.T @ x - diagonal * x))
    rhs_norm = dnrm2(system.rhs)    # nrm2 scales its sum: x·x overflows once γ‖g‖ > 1e154
    res = dnrm2(half @ x + half.T @ x - diagonal * x - system.rhs)
    residual = float(res / rhs_norm) if rhs_norm > 0 else float(res)
    if not residual < RESIDUAL_TOL:
        raise UnconvergedSolveError(
            f"relative residual {residual:.3e} of the LDLᵀ solve is not below "
            f"{RESIDUAL_TOL:g}")
    u, z = np.zeros(pattern.n_v), np.zeros(pattern.n_w)
    u[pattern.v_free], z[pattern.w_free] = np.split(x, [len(pattern.v_free)])
    return DiscreteSolution(u=u, z=z, residual=residual)
