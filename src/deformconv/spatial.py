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
candidates, so the cell sweep runs once per distinct window, and each
query then takes a copy of its window's point list. ``_assemble`` orders
the pairs with one sort on an int64 key (query id in the high bits, the
top bits of the squared distance in the low bits), then re-sorts exactly
the runs of equal keys.

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
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(ends - counts - starts, counts)


def _assemble(
    qid: np.ndarray,
    pid: np.ndarray,
    queries: np.ndarray,
    positions: np.ndarray,
    r: float,
    cap: int,
) -> NeighborTable:
    """Filter, order, and cap candidate pairs into a CSR table.

    Candidates are (query id, point id) pairs, none repeated. This is the
    single code path both search strategies funnel through, which is what
    makes them comparable bit-for-bit.
    """
    # the squared norm of queries[qid] - positions[pid], summed one axis
    # at a time in the order x, y, z, so only the pairs kept get offsets;
    # where it overflows, d2 is inf and the ball test drops the pair
    d2 = np.zeros(qid.shape[0])
    with np.errstate(over="ignore"):
        for qcol, pcol in zip(queries.T.copy(), positions.T.copy()):
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
    nq = queries.shape[0]
    shift = max(nq - 1, 0).bit_length()
    key = (qid << (63 - shift)) | (d2.view(np.int64) >> shift)
    perm = np.argsort(key)
    key = key[perm]
    tie = np.flatnonzero(key[1:] == key[:-1])
    at = np.union1d(tie, tie + 1)
    runs = perm[at]
    perm[at] = runs[np.lexsort((pid[runs], d2[runs], key[at]))]

    qid = qid[perm]
    full_counts = np.bincount(qid, minlength=nq)
    rank = np.arange(qid.shape[0], dtype=np.int64) - (np.cumsum(full_counts) - full_counts)[qid]
    kept = rank < cap
    counts = np.minimum(full_counts, cap)
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = pid[perm[kept]]
    offsets = queries.take(qid[kept], axis=0) - positions.take(indices, axis=0)
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
    cs = index.cell_size
    if r > cs:
        raise ValueError(f"radius {r} exceeds the index cell_size {cs}")

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

    # each window's point ids, then each live query's copy of its window's
    # list, in ascending query order
    win_pid = index.order[_expand(cstart, ccount)]
    wcount = np.bincount(cw, weights=ccount, minlength=first.shape[0]).astype(np.int64)
    counts = wcount[wid]
    pid = win_pid[_expand((np.cumsum(wcount) - wcount)[wid], counts)]
    qid = np.repeat(live, counts)
    return _assemble(qid, pid, q, index.positions, r, cap)


def brute_force_neighbors(positions, queries, r: float, cap: int) -> NeighborTable:
    """All-pairs reference search. Same output contract as the grid path."""
    pos = _check_positions(positions, "positions")
    q = _check_positions(queries, "queries")
    if not (r > 0) or not np.isfinite(r):
        raise ValueError("radius must be positive and finite")
    if cap < 1:
        raise ValueError("cap must be >= 1")

    m, nq = pos.shape[0], q.shape[0]
    qid = np.repeat(np.arange(nq, dtype=np.int64), m)
    pid = np.tile(np.arange(m, dtype=np.int64), nq)
    return _assemble(qid, pid, q, pos, r, cap)
