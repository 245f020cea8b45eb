"""Radius-limited, count-capped neighbour queries over 3D point sets.

Two query paths produce bit-identical tables: a grid-hash accelerated
search and a brute-force all-pairs reference. Both feed their candidate
(query, point) pairs to one function, ``_assemble``, that does the pair
arithmetic and the (distance, index) ordering, so their results can be
compared with exact equality, not a tolerance.

The grid search needs cells at least as wide as the search radius, so
each query's window floor((q - r) / cell_size) .. floor((q + r) / cell_size)
spans 2 to 4 cells per axis at r = cell_size (3 as a rule; rounding in
the floors moves a bound by one). Queries that share a window share its
candidates, so the cell sweep runs once per distinct window.

``_assemble`` works through the queries in spans of consecutive ids,
each holding at most ``_BLOCK_VALUES`` candidates (the block budget,
which also bounds the kernel-map build and the conv passes). Each query
of a span takes a copy of its window's point list, and ``_rank`` orders
the span's pairs with one sort on an int64 key (query id in the high
bits, the top bits of the squared distance in the low bits), then
re-sorts exactly the runs of equal keys. The kept rows of every span are
then written into the table, so no temporary grows with the whole
candidate set.

Conventions:
  * a point at distance exactly r from the query is included,
  * candidates are ordered by squared distance, ties broken by ascending
    point index, and only the first K survive,
  * stored offsets are query minus neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CELL_LIMIT = 2.0 ** 62  # cell coordinates stay below it in magnitude

# The block budget: the values (8-byte ints or floats) one temporary array
# of the search, the kernel-map build or a conv pass may hold per block of
# work, 2^17 values or 1 MB. Fixed, so outputs never depend on a setting.
_BLOCK_VALUES = 1 << 17


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


def build_index(positions, cell_size: float) -> GridHashIndex:
    """Hash every point into its grid cell.

    Raises ValueError when a point lies 2^62 or more cells from the
    origin on some axis, or when the occupied cell range spans more than
    2^62 cells, whose keys would not pack into int64.
    """
    pos = _check_positions(positions, "positions")
    if pos.shape[0] < 1:
        raise ValueError("cannot index an empty point set")
    if not (cell_size > 0) or not np.isfinite(cell_size):
        raise ValueError("cell_size must be positive and finite")

    with np.errstate(over="ignore"):  # an overflow is +-inf, rejected below
        cells = np.floor(pos / cell_size)
    if np.abs(cells).max() >= _CELL_LIMIT:
        raise ValueError(f"points lie 2^62 or more cells of size {cell_size} from the origin")
    cells = cells.astype(np.int64)
    cmin = cells.min(axis=0)
    cmax = cells.max(axis=0)
    dims = cmax - cmin + 1  # below 2^63
    extent = int(dims[0]) * int(dims[1]) * int(dims[2])  # python ints: no overflow
    if extent > (1 << 62):
        raise ValueError(
            f"points span {extent} grid cells of size {cell_size}, more than 2^62; "
            "use a larger cell_size"
        )

    rel = cells - cmin
    keys = (rel[:, 0] * dims[1] + rel[:, 1]) * dims[2] + rel[:, 2]
    order = np.argsort(keys, kind="stable")  # stable: ascending ids per cell
    skeys = keys[order]
    is_first = np.empty(skeys.shape[0], dtype=bool)
    is_first[0] = True
    np.not_equal(skeys[1:], skeys[:-1], out=is_first[1:])
    firsts = np.flatnonzero(is_first)
    ukeys = skeys[firsts]
    ustarts = np.append(firsts, skeys.shape[0]).astype(np.int64)
    return GridHashIndex(float(cell_size), pos, cmin, dims, order, ukeys, ustarts)


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
    qid = np.repeat(np.arange(n, dtype=np.int64), counts)
    # the squared norm of query - point, summed one axis at a time in the
    # order x, y, z; where it overflows, d2 is inf and the ball test drops
    # the pair
    d2 = np.zeros(qid.shape[0])
    with np.errstate(over="ignore"):
        for qcol, pcol in zip(qcols, pcols):
            diff = qcol.take(qid)
            diff -= pcol.take(pid)
            diff *= diff
            d2 += diff
    keep = np.flatnonzero(d2 <= r * r)
    qid, pid, d2 = qid[keep], pid[keep], d2[keep]

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
    candidates, so no temporary grows with the whole candidate set. This
    is the single code path both search strategies funnel through, which
    is what makes them comparable bit-for-bit.
    """
    qcols, pcols = queries.T.copy(), positions.T.copy()
    rows = np.zeros(queries.shape[0], dtype=np.int64)
    spans = _spans(np.concatenate(([0], np.cumsum(counts))), 1)
    pieces = []
    for a, b in spans:
        rows[a:b], pid = _rank(qcols[:, a:b], pcols, candidates(a, b), counts[a:b], r, cap)
        pieces.append(pid)
    del candidates  # the candidate lists go before the offsets are made
    starts = np.concatenate(([0], np.cumsum(rows))).astype(np.int64)
    # one span's rows are the table's as they are: copying them would cost
    # a second allocation of their size on every small table
    indices = pieces[0] if len(pieces) == 1 else np.concatenate([np.zeros(0, np.int64), *pieces])
    del pieces
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


def radius_neighbors(index: GridHashIndex, queries, r: float, cap: int) -> NeighborTable:
    """Capped radius search against a grid hash index.

    Requires r <= index.cell_size. Every cell overlapping the ball of
    radius r around a query is visited, so no in-range point is missed.
    """
    q = _check_positions(queries, "queries")
    if not (r > 0) or not np.isfinite(r):
        raise ValueError("radius must be positive and finite")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if r > index.cell_size:
        raise ValueError(f"radius {r} exceeds the index cell_size {index.cell_size}")
    # unnamed here, so _assemble holds the only reference to the window lists
    return _assemble(q, index.positions, *_window_candidates(index, q, r), r, cap)


def brute_force_neighbors(positions, queries, r: float, cap: int) -> NeighborTable:
    """All-pairs reference search. Same output contract as the grid path."""
    pos = _check_positions(positions, "positions")
    q = _check_positions(queries, "queries")
    if not (r > 0) or not np.isfinite(r):
        raise ValueError("radius must be positive and finite")
    if cap < 1:
        raise ValueError("cap must be >= 1")

    every = np.arange(pos.shape[0], dtype=np.int64)
    return _assemble(q, pos, np.full(q.shape[0], pos.shape[0], dtype=np.int64),
                     lambda a, b: np.tile(every, b - a), r, cap)
