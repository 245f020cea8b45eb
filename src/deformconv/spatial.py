"""Radius-limited, count-capped neighbour queries over 3D point sets.

``radius_neighbors`` has two paths, and ``brute_force_neighbors``, an
all-pairs reference, is the arbiter both are tested against. All three
produce bit-identical tables: they compute each squared distance with
the same arithmetic and order pairs with one function,
``_first_in_order``, so their results can be compared with exact
equality, not a tolerance.

A search whose (queries, points) distances fit one block of the block
budget ``_BLOCK_VALUES`` (which also bounds the kernel-map build, the
conv passes and DetRng's blocks) takes the one-block path,
``_all_pairs``: it forms the whole matrix, partitions each row at its
cap-th smallest distance, and orders only the pairs at most that far
and within r, which one mask over the flattened matrix selects.

Every other search takes the grid path. It needs cells at least as wide
as the search radius, so each query's window floor((q - r) / cell_size)
.. floor((q + r) / cell_size) spans 2 to 4 cells per axis at
r = cell_size (3 as a rule; rounding in the floors moves a bound by one).
Queries that share a window share its candidates, so the cell sweep runs
once per distinct window. ``_assemble`` works through the queries in
spans of consecutive ids, each holding at most ``_BLOCK_VALUES``
candidates; the brute-force reference runs through it too, with every
point a candidate of every query. Each query of a span takes a copy of
its window's point list, and ``_first_in_order`` orders the span's
in-ball pairs with one sort on an int64 key (query id in the high bits,
the top bits of the squared distance in the low bits), then re-sorts
exactly the runs of equal keys, if any. The kept rows of every span
are then written into the table, so no temporary grows with the whole
candidate set.

``cell_order`` sorts a point set by grid cell, then by position, and
builds the index of the sorted points with the same key sort: the order
an nn.LayerContext runs its layers in.

Conventions:
  * a point at distance exactly r from the query is included,
  * candidates are ordered by squared distance, ties broken by ascending
    point index, and only the first K survive,
  * stored offsets are query minus neighbour.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_CELL_LIMIT = 2.0 ** 62  # cell coordinates stay below it in magnitude

# The block budget: the values (8-byte ints or floats) one temporary array
# of the search, the kernel-map build, a conv pass or a DetRng block may
# hold per block of work, 2^17 values or 1 MB. Fixed, so outputs never
# depend on a setting.
_BLOCK_VALUES = 1 << 17


class GridRangeError(ValueError):
    """Points too far out for the search grid: a cell coordinate of 2^62
    or more, or an occupied cell range whose keys would not pack into int64."""


@contextmanager
def _row_loops():
    """numpy ufuncs copy the rows of a broadcast that are shorter than
    their buffer (8,192 values by default) through it, to lengthen each
    inner loop. Inside, the buffer is numpy's smallest, 16 values, so a
    broadcast over rows of a few hundred values runs on the arrays in
    place: a (256, 1) - (256,) subtraction takes a third of the time
    (numpy 2.4). For elementwise ufuncs without casts only, whose results
    do not depend on the buffer (a reduction's pairwise sums could)."""
    old = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(old)


def _check_positions(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"{name} must be (N, 3), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contain non-finite values")
    return out


@dataclass(frozen=True)
class NeighborTable:
    """CSR neighbour lists for a batch of query points.

    Pairs of query i occupy rows starts[i]:starts[i+1] of ``indices``
    (neighbour point ids) and ``offsets`` (query position minus
    neighbour position). Each list is sorted by (distance, index) and
    holds at most ``cap`` entries, all within ``radius``.
    """

    starts: np.ndarray  # (Q+1,) int64
    indices: np.ndarray  # (P,) int64
    offsets: np.ndarray  # (P,3) float64
    radius: float
    cap: int

    @property
    def num_queries(self) -> int:
        return self.starts.shape[0] - 1

    @property
    def num_pairs(self) -> int:
        return self.indices.shape[0]

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)

    def neighbors_of(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.starts[i], self.starts[i + 1]
        return self.indices[lo:hi], self.offsets[lo:hi]


@dataclass(frozen=True)
class GridHashIndex:
    """Uniform-grid spatial hash over a fixed point set.

    Each point lands in cell floor(position / cell_size). Cell keys are
    packed into int64 relative to the lower corner of the occupied cell
    range; ``order`` lists the point ids sorted by key (ascending ids
    within a cell), and occupied cell i holds
    ``order[ustarts[i]:ustarts[i+1]]`` under key ``ukeys[i]``.
    """

    cell_size: float
    positions: np.ndarray  # (M,3) float64
    cmin: np.ndarray  # (3,) int64 lower corner of occupied cell range
    dims: np.ndarray  # (3,) int64 extent of occupied cell range
    order: np.ndarray  # point ids sorted by packed key
    ukeys: np.ndarray  # (U,) sorted unique packed keys
    ustarts: np.ndarray  # (U+1,) slice bounds into order

    def _pack(self, cells: np.ndarray) -> np.ndarray:
        rel = cells - self.cmin
        return (rel[..., 0] * self.dims[1] + rel[..., 1]) * self.dims[2] + rel[..., 2]


def _cell_keys(positions, cell_size: float):
    """(positions, packed cell keys, cmin, dims) of a point set; raises
    as build_index documents."""
    pos = _check_positions(positions, "positions")
    if pos.shape[0] < 1:
        raise ValueError("cannot index an empty point set")
    if not (cell_size > 0) or not np.isfinite(cell_size):
        raise ValueError("cell_size must be positive and finite")

    with np.errstate(over="ignore"):  # an overflow is +-inf, rejected below
        cells = np.floor(pos / cell_size)
    if np.abs(cells).max() >= _CELL_LIMIT:
        raise GridRangeError(f"points lie 2^62 or more cells of size {cell_size} from the origin")
    cells = cells.astype(np.int64)
    cmin = cells.min(axis=0)
    cmax = cells.max(axis=0)
    dims = cmax - cmin + 1  # below 2^63
    extent = int(dims[0]) * int(dims[1]) * int(dims[2])  # python ints: no overflow
    if extent > (1 << 62):
        raise GridRangeError(
            f"points span {extent} grid cells of size {cell_size}, more than 2^62; "
            "use a larger cell_size"
        )
    rel = cells - cmin
    return pos, (rel[:, 0] * dims[1] + rel[:, 1]) * dims[2] + rel[:, 2], cmin, dims


def _index(cell_size: float, pos: np.ndarray, cmin, dims, order: np.ndarray,
           skeys: np.ndarray) -> GridHashIndex:
    """The index of points pos whose ids in key order are ``order``, with
    keys ``skeys`` in that order."""
    is_first = np.empty(skeys.shape[0], dtype=bool)
    is_first[0] = True
    np.not_equal(skeys[1:], skeys[:-1], out=is_first[1:])
    firsts = np.flatnonzero(is_first)
    ukeys = skeys[firsts]
    ustarts = np.append(firsts, skeys.shape[0]).astype(np.int64)
    return GridHashIndex(float(cell_size), pos, cmin, dims, order, ukeys, ustarts)


def build_index(positions, cell_size: float) -> GridHashIndex:
    """Hash every point into its grid cell.

    Raises GridRangeError when a point lies 2^62 or more cells from the
    origin on some axis, or when the occupied cell range spans more than
    2^62 cells, whose keys would not pack into int64; ValueError for an
    empty point set or a bad cell_size.
    """
    pos, keys, cmin, dims = _cell_keys(positions, cell_size)
    order = np.argsort(keys, kind="stable")  # stable: ascending ids per cell
    return _index(cell_size, pos, cmin, dims, order, keys[order])


def cell_order(positions, cell_size: float) -> tuple[np.ndarray, GridHashIndex]:
    """(order, index): the point ids sorted by grid cell (build_index's
    cells and key order), then by x, y and z, and the index of the points
    taken in that order, whose own order is the identity.

    The order depends on the positions alone: point ids break only ties
    between equal positions. It is one stable key sort, as build_index
    makes, of the points sorted by x; the runs of equal (cell, x), if
    any, are then re-sorted by (y, z, id). Raises as build_index does.
    """
    pos, keys, cmin, dims = _cell_keys(positions, cell_size)
    order = np.argsort(pos[:, 0])  # ties in x are re-sorted below
    order = order[np.argsort(keys.take(order), kind="stable")]
    skeys, x = keys.take(order), pos[:, 0].take(order)
    tie = np.flatnonzero((skeys[1:] == skeys[:-1]) & (x[1:] == x[:-1]))
    if tie.shape[0]:
        at = np.union1d(tie, tie + 1)
        runs = order[at]
        order[at] = runs[np.lexsort((runs, pos[runs, 2], pos[runs, 1], x[at], skeys[at]))]
    return order, _index(cell_size, pos.take(order, axis=0), cmin, dims,
                         np.arange(pos.shape[0], dtype=np.int64), skeys)


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions start, start+1, ..., start+count-1 of every range, in order."""
    ends = np.cumsum(counts)
    out = np.arange(int(counts.sum()), dtype=np.int64)
    out -= np.repeat(ends - counts - starts, counts)
    return out


def _spans(ends: np.ndarray, width: int) -> list[tuple[int, int]]:
    """Cut items 0..n-1 into contiguous ranges [a, b) that fit the block
    budget: ends[b] - ends[a] <= _BLOCK_VALUES and (b - a) * width <=
    _BLOCK_VALUES, where ends (n + 1 entries, non-decreasing) counts the
    values of all items before each one. An item that alone exceeds the
    budget is a range of its own.
    """
    n = ends.shape[0] - 1
    most = max(1, _BLOCK_VALUES // width)
    spans, a = [], 0
    while a < n:
        b = int(np.searchsorted(ends, ends[a] + _BLOCK_VALUES, side="right")) - 1
        b = min(max(b, a + 1), a + most, n)
        spans.append((a, b))
        a = b
    return spans


def _rank(qcols: np.ndarray, pcols: np.ndarray, pid: np.ndarray, counts: np.ndarray,
          r: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows per query, point ids in table order) for one span of queries.

    qcols (3, n) and pcols (3, M) are the span's query and all point
    coordinates, one axis per row; pid lists counts[q] candidate point
    ids for each query q of the span in turn, none repeated.
    """
    n = counts.shape[0]
    # the squared norm of query - point, summed one axis at a time in the
    # order x, y, z; where it overflows, d2 is inf and the ball test drops
    # the pair
    d2 = np.zeros(pid.shape[0])
    with np.errstate(over="ignore"):
        for qcol, pcol in zip(qcols, pcols):
            diff = np.repeat(qcol, counts)
            diff -= pcol.take(pid)
            diff *= diff
            d2 += diff
    keep = np.flatnonzero(d2 <= r * r)
    qid = np.repeat(np.arange(n, dtype=np.int64), counts)
    return _first_in_order(qid[keep], pid[keep], d2[keep], n, cap)


def _first_in_order(qid: np.ndarray, pid: np.ndarray, d2: np.ndarray, n: int,
                    cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows per query, point ids in table order) of the in-ball pairs
    (qid, pid) at squared distances d2, for queries 0..n-1: each query's
    pairs ordered by (d2, point id), the first cap kept. A query may
    leave out in-ball pairs past its first cap."""
    # One int64 key per pair: the query id in the high bits, then the bit
    # pattern of d2, which rises with the value for non-negative floats,
    # less its low `shift` bits. Runs of equal keys hold the exact ties and
    # the pairs whose d2 differ only in the dropped bits; re-sorting those
    # runs by (d2, point id) gives the exact (query, d2, point id) order.
    shift = max(n - 1, 0).bit_length()
    key = (qid << (63 - shift)) | (d2.view(np.int64) >> shift)
    perm = np.argsort(key)
    key = key[perm]
    tie = np.flatnonzero(key[1:] == key[:-1])
    if tie.shape[0]:  # with no equal keys, the key order is the exact order
        at = np.union1d(tie, tie + 1)
        runs = perm[at]
        perm[at] = runs[np.lexsort((pid[runs], d2[runs], key[at]))]

    qid = qid[perm]
    full_counts = np.bincount(qid, minlength=n)
    rank = np.arange(qid.shape[0], dtype=np.int64) - (np.cumsum(full_counts) - full_counts)[qid]
    return np.minimum(full_counts, cap), pid[perm[rank < cap]]


def _assemble(queries: np.ndarray, positions: np.ndarray, counts: np.ndarray, candidates,
              r: float, cap: int) -> NeighborTable:
    """Filter, order, and cap candidate pairs into a CSR table.

    counts[q] is the number of candidate points of query q, and
    candidates(a, b) returns the candidate point ids of queries a..b-1
    in turn. Queries are ranked in spans of at most _BLOCK_VALUES
    candidates, so no temporary grows with the whole candidate set. The
    grid path and the brute-force reference both funnel through it, and
    the one-block path shares its ordering and its table writing, which
    is what makes the three comparable bit-for-bit.
    """
    qcols, pcols = queries.T.copy(), positions.T.copy()
    rows = np.zeros(queries.shape[0], dtype=np.int64)
    spans = _spans(np.concatenate(([0], np.cumsum(counts))), 1)
    pieces = []
    for a, b in spans:
        rows[a:b], pid = _rank(qcols[:, a:b], pcols, candidates(a, b), counts[a:b], r, cap)
        pieces.append(pid)
    del candidates  # the candidate lists go before the offsets are made
    # one span's rows are the table's as they are: copying them would cost
    # a second allocation of their size on every small table
    indices = pieces[0] if len(pieces) == 1 else np.concatenate([np.zeros(0, np.int64), *pieces])
    del pieces
    return _table(queries, positions, rows, indices, spans, r, cap)


def _table(queries: np.ndarray, positions: np.ndarray, rows: np.ndarray, indices: np.ndarray,
           spans, r: float, cap: int) -> NeighborTable:
    """The read-only CSR table of rows[q] neighbours per query, whose ids
    are ``indices`` in table order; the offsets are written one span of
    queries at a time."""
    starts = np.concatenate(([0], np.cumsum(rows))).astype(np.int64)
    offsets = np.empty((indices.shape[0], 3))
    for a, b in spans:
        at = slice(starts[a], starts[b])
        qid = np.repeat(np.arange(a, b, dtype=np.int64), rows[a:b])
        np.subtract(queries.take(qid, axis=0), positions.take(indices[at], axis=0),
                    out=offsets[at])
    # read-only: conv caches per-table work keyed on the table object
    for arr in (starts, indices, offsets):
        arr.setflags(write=False)
    return NeighborTable(starts, indices, offsets, radius=float(r), cap=int(cap))


def _all_pairs(index: GridHashIndex, q: np.ndarray, r: float, cap: int) -> NeighborTable:
    """The search as one (queries, points) matrix of squared distances,
    for a search whose matrix fits the block budget.

    Each row is partitioned at its cap-th smallest d2, and only the pairs
    at most that far and within r (every pair tied at the bound among
    them) go to the key sort: a superset of each query's first cap
    in-ball pairs, in place of every candidate of its grid window.
    """
    pos = index.positions
    n, m = q.shape[0], pos.shape[0]
    cols = pos.T.copy()  # one contiguous row per axis
    # d2 by _rank's arithmetic, x, then y, then z, so its bits are the
    # same; _rank's first step, 0 + dx^2, is dx^2 exactly
    with _row_loops(), np.errstate(over="ignore"):
        d2 = np.subtract(q[:, :1], cols[0])
        d2 *= d2
        diff = np.empty_like(d2)
        for axis in (1, 2):
            np.subtract(q[:, axis, None], cols[axis], out=diff)
            diff *= diff
            d2 += diff
        bound = np.full(n, r * r)
        if cap < m:
            diff[...] = d2
            diff.partition(cap - 1, axis=1)
            np.minimum(bound, diff[:, cap - 1], out=bound)
        # each matrix goes before the next array is made. Both lie above
        # glibc's mmap threshold at 256 x 256 (512 KB), and their pages are
        # faulted in again on every search: 200 minor faults a toy search
        del diff
        flat = np.flatnonzero(d2 <= bound[:, None])
    qid = flat // m
    rows, indices = _first_in_order(qid, flat - qid * m, d2.ravel().take(flat), n, cap)
    del d2, flat, qid
    return _table(q, pos, rows, indices, [(0, n)], r, cap)


def _grid_search(index: GridHashIndex, q: np.ndarray, r: float, cap: int) -> NeighborTable:
    """The search over each query's grid window of candidates."""
    # unnamed here, so _assemble holds the only reference to the window lists
    return _assemble(q, index.positions, *_window_candidates(index, q, r), r, cap)


def _candidate_ranges(index: GridHashIndex, lo: np.ndarray, hi: np.ndarray):
    """(window id, slice start in index.order, slice count) of every
    occupied cell in each window [lo, hi], window by window.

    Windows must lie inside the occupied cell range. At r = cell size
    one spans 2 to 4 cells per axis (fewer where it was clipped to the
    occupied range, or where r < cell size), so the sweep covers at most
    4 x 4 x 4 offsets, each masked to the windows it lies in.
    """
    span = hi - lo
    nx, ny, nz = (int(v) + 1 for v in span.max(axis=0, initial=0))
    steps = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    inside = [steps[:, a] <= span[:, a, None] for a in range(3)]
    wid, step = np.nonzero(inside[0] & inside[1] & inside[2])
    # packing is linear in the cell, and every cell swept is inside the
    # occupied range, so both terms and their sum are valid keys
    keys = index._pack(lo)[wid] + index._pack(index.cmin + steps)[step]
    pos = np.searchsorted(index.ukeys, keys)
    pos = np.minimum(pos, index.ukeys.shape[0] - 1)
    found = index.ukeys[pos] == keys
    pos = pos[found]
    return wid[found], index.ustarts[pos], index.ustarts[pos + 1] - index.ustarts[pos]


def _window_candidates(index: GridHashIndex, q: np.ndarray, r: float):
    """(counts, candidates) of the grid search, as ``_assemble`` takes
    them: a query's candidates are the points of the occupied cells in
    its window floor((q - r) / cell) .. floor((q + r) / cell)."""
    cs = index.cell_size
    # a bound past +-2^62 cells (or at +-inf) lies past every occupied cell, clipped or not
    with np.errstate(over="ignore"):
        lo, hi = np.floor((q - r) / cs), np.floor((q + r) / cs)
    lo = np.clip(lo, -_CELL_LIMIT, _CELL_LIMIT).astype(np.int64)
    hi = np.clip(hi, -_CELL_LIMIT, _CELL_LIMIT).astype(np.int64)
    # clipped to the occupied range, a window holds the same occupied
    # cells, and its corners pack into int64 keys
    lo = np.maximum(lo, index.cmin)
    hi = np.minimum(hi, index.cmin + index.dims - 1)
    live = np.flatnonzero((lo <= hi).all(axis=1))
    # queries that share a window share its candidates: sweep each
    # distinct window once
    lkey, hkey = index._pack(lo[live]), index._pack(hi[live])
    by_window = np.lexsort((hkey, lkey))
    lkey, hkey = lkey[by_window], hkey[by_window]
    new = np.ones(live.shape[0], dtype=bool)
    new[1:] = (lkey[1:] != lkey[:-1]) | (hkey[1:] != hkey[:-1])
    wid = np.empty(live.shape[0], dtype=np.int64)
    wid[by_window] = np.cumsum(new) - 1
    first = live[by_window[new]]
    cw, cstart, ccount = _candidate_ranges(index, lo[first], hi[first])

    # each window's point ids; a live query's candidates are a copy of its
    # window's list, made one span of queries at a time
    win_pid = index.order[_expand(cstart, ccount)]
    wcount = np.bincount(cw, weights=ccount, minlength=first.shape[0]).astype(np.int64)
    counts = np.zeros(q.shape[0], dtype=np.int64)
    counts[live] = wcount[wid]
    begin = np.zeros(q.shape[0], dtype=np.int64)
    begin[live] = (np.cumsum(wcount) - wcount)[wid]
    return counts, lambda a, b: win_pid[_expand(begin[a:b], counts[a:b])]


def check_search(r: float, cap: int) -> None:
    """A search's radius and cap: r positive and finite, cap >= 1."""
    if not (r > 0) or not np.isfinite(r):
        raise ValueError("radius must be positive and finite")
    if cap < 1:
        raise ValueError("cap must be >= 1")


def radius_neighbors(index: GridHashIndex, queries, r: float, cap: int) -> NeighborTable:
    """Capped radius search against a grid hash index.

    Requires r <= index.cell_size. Every cell overlapping the ball of
    radius r around a query is visited, so no in-range point is missed.
    """
    q = _check_positions(queries, "queries")
    check_search(r, cap)
    if r > index.cell_size:
        raise ValueError(f"radius {r} exceeds the index cell_size {index.cell_size}")
    if q.shape[0] * index.positions.shape[0] <= _BLOCK_VALUES:
        return _all_pairs(index, q, r, cap)
    return _grid_search(index, q, r, cap)


def brute_force_neighbors(positions, queries, r: float, cap: int) -> NeighborTable:
    """All-pairs reference search. Same output contract as the grid path."""
    pos = _check_positions(positions, "positions")
    q = _check_positions(queries, "queries")
    check_search(r, cap)

    every = np.arange(pos.shape[0], dtype=np.int64)
    return _assemble(q, pos, np.full(q.shape[0], pos.shape[0], dtype=np.int64),
                     lambda a, b: np.tile(every, b - a), r, cap)
