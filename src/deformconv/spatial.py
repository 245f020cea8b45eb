"""Radius-limited, count-capped neighbour queries over 3D point sets.

Two query paths produce bit-identical tables: a grid-hash accelerated
search and a brute-force all-pairs reference. Both feed the same pair
arithmetic and the same (distance, index) ordering, so their results can
be compared with exact equality, not a tolerance. The grid search needs
cells at least as wide as the search radius, so each query sweeps a
window of at most 4 cells per axis.

Conventions:
  * a point at distance exactly r from the query is included,
  * candidates are ordered by squared distance, ties broken by ascending
    point index, and only the first K survive,
  * stored offsets are query minus neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sq_norms(v: np.ndarray) -> np.ndarray:
    # shared by both query paths; identical arithmetic keeps the
    # inclusion test bit-exact between them
    return v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2


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

    Raises ValueError when the occupied cell range spans more than 2^62
    cells, whose keys would not pack into int64.
    """
    pos = _check_positions(positions, "positions")
    if pos.shape[0] < 1:
        raise ValueError("cannot index an empty point set")
    if not (cell_size > 0) or not np.isfinite(cell_size):
        raise ValueError("cell_size must be positive and finite")

    cells = np.floor(pos / cell_size).astype(np.int64)
    cmin = cells.min(axis=0)
    cmax = cells.max(axis=0)
    dims = cmax - cmin + 1
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


def _assemble(
    qid: np.ndarray,
    pid: np.ndarray,
    off: np.ndarray,
    num_queries: int,
    r: float,
    cap: int,
) -> NeighborTable:
    """Filter, order, and cap candidate pairs into a CSR table.

    This is the single code path both search strategies funnel through,
    which is what makes them comparable bit-for-bit.
    """
    d2 = _sq_norms(off)
    keep = d2 <= r * r
    qid, pid, off, d2 = qid[keep], pid[keep], off[keep], d2[keep]

    perm = np.lexsort((pid, d2, qid))
    qid, pid, off = qid[perm], pid[perm], off[perm]

    full_counts = np.bincount(qid, minlength=num_queries)
    group_start = np.concatenate(([0], np.cumsum(full_counts)))
    rank = np.arange(qid.shape[0], dtype=np.int64) - group_start[qid]
    keep = rank < cap
    counts = np.minimum(full_counts, cap)
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices, offsets = pid[keep], np.ascontiguousarray(off[keep])
    # read-only: conv caches per-table work keyed on the table object
    for arr in (starts, indices, offsets):
        arr.setflags(write=False)
    return NeighborTable(starts, indices, offsets, radius=float(r), cap=int(cap))


def _candidate_ranges(index: GridHashIndex, lo: np.ndarray, hi: np.ndarray):
    """(query id, slice start in index.order, slice count) of every
    occupied cell in each query's window [lo, hi], sweeping the window
    offsets in lockstep over all queries."""
    # loop bounds come from the windows: 3 cells per axis when r <= cell
    # size, or 4 where rounding in the floors adds one (1 without queries)
    nx, ny, nz = (int(v) for v in (hi - lo + 1).max(axis=0, initial=1))
    cmin, cmax = index.cmin, index.cmin + index.dims - 1
    parts_q, parts_s, parts_c = [], [], []
    for dx in range(nx):
        for dy in range(ny):
            for dz in range(nz):
                cell = lo + np.array([dx, dy, dz], dtype=np.int64)
                ok = (
                    (cell <= hi).all(axis=1)
                    & (cell >= cmin).all(axis=1)
                    & (cell <= cmax).all(axis=1)
                )
                qsel = np.flatnonzero(ok)
                keys = index._pack(cell[qsel])
                pos = np.searchsorted(index.ukeys, keys)
                pos = np.minimum(pos, index.ukeys.shape[0] - 1)
                found = index.ukeys[pos] == keys
                pos = pos[found]
                parts_q.append(qsel[found])
                parts_s.append(index.ustarts[pos])
                parts_c.append(index.ustarts[pos + 1] - index.ustarts[pos])
    return np.concatenate(parts_q), np.concatenate(parts_s), np.concatenate(parts_c)


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

    lo = np.floor((q - r) / cs).astype(np.int64)
    hi = np.floor((q + r) / cs).astype(np.int64)
    cq, cstart, ccount = _candidate_ranges(index, lo, hi)
    # expand [start, start+count) ranges into flat slot positions
    bases = np.cumsum(ccount) - ccount
    slots = (
        np.arange(int(ccount.sum()), dtype=np.int64)
        - np.repeat(bases, ccount)
        + np.repeat(cstart, ccount)
    )
    pid = index.order[slots]
    qid = np.repeat(cq, ccount)
    off = q[qid] - index.positions[pid]
    return _assemble(qid, pid, off, q.shape[0], r, cap)


def brute_force_neighbors(positions, queries, r: float, cap: int) -> NeighborTable:
    """All-pairs reference search. Same output contract as the grid path."""
    pos = _check_positions(positions, "positions")
    q = _check_positions(queries, "queries")
    if not (r > 0) or not np.isfinite(r):
        raise ValueError("radius must be positive and finite")
    if cap < 1:
        raise ValueError("cap must be >= 1")

    m = pos.shape[0]
    parts = []
    # chunk queries so the (chunk, M, 3) offset block stays modest
    chunk = max(1, int(4_000_000 // max(1, m)))
    # without queries, one empty chunk still feeds _assemble
    for q0 in range(0, max(1, q.shape[0]), chunk):
        q1 = min(q.shape[0], q0 + chunk)
        off = q[q0:q1, None, :] - pos[None, :, :]
        qid = np.repeat(np.arange(q0, q1, dtype=np.int64), m)
        pid = np.tile(np.arange(m, dtype=np.int64), q1 - q0)
        parts.append((qid, pid, off.reshape(-1, 3)))
    qid = np.concatenate([p[0] for p in parts])
    pid = np.concatenate([p[1] for p in parts])
    off = np.concatenate([p[2] for p in parts])
    return _assemble(qid, pid, off, q.shape[0], r, cap)
