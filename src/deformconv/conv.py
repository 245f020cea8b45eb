"""Deformable filter convolution over 3D point neighbourhoods.

A filter stores one weight matrix per node of a small k x k x k lattice
(the anchor grid). Evaluating the filter at an arbitrary continuous
offset "deforms" it: the weight there is the trilinear blend of the
(at most eight) surrounding anchor matrices. Convolving a point cloud
then sums deformed-filter responses over each query point's metric
neighbourhood:

    h(y) = sum_{x in N(y)} ghat(y - x)^T f(x) + bias,
    ghat(z) = sum_{anchors p} w(z, p) * g(p),

with w the product of per-axis hat functions of width equal to the
anchor spacing. Because the offsets y - x move continuously with the
points, the operator responds to sub-cell displacements that any fixed
voxelisation rounds away, while remaining exactly translation and
permutation equivariant.

Each operation has one function, on a raw (M, D') feature matrix.
Two implementations of the forward pass are kept side by side:

  * forward_features / backward_features and their separable twins
    (forward_separable_features, backward_separable_features): the
    production path, which touches only the <= 8 anchors that enclose
    each offset. The full filter has two passes:
      - the dense pass, for a table whose per-query interpolation matrix
        H (queries x k^3 x slots, slots the most pairs any query holds)
        fits the block budget: H is the product of per-axis hats of the
        table's offsets, and each pass is a few batched GEMMs over all
        input channels at once (the way KPConv evaluates its kernel);
      - the channel pass, for every other table: the kernel map's query
        blocks, one input channel at a time, with threads > 1 spreading
        the parts over a thread pool.
    The separable filter runs on the kernel map's blocks too. The map
    holds only the nonzero (pair, corner) entries, each as a block-local
    (query, anchor) key, a neighbour id less the block's smallest and a
    weight, so no product or bincount sees a zero corner, and a block
    reads and adds into only its own range of neighbour ids. H and the map are built once per
    (table, grid) for all layers and passes. Only the dense pass keeps
    its sums for the backward, which rebuilds them, with the same bits,
    when given none. A backward told ``input_grad=False`` (a stack's
    first layer, whose input gradient nothing reads) builds no feature
    gradient; where one is built, the channel pass and the separable
    backward add it channel-major, into contiguous rows.
  * oracle_forward_features: a deliberately naive full scan over all
    k^3 anchors for every pair. It exists to cross-check the fast path
    and is used by tests and the benchmark command.

The search's block budget, ``spatial._BLOCK_VALUES``, bounds the large
temporaries here too: a kernel-map block's (8, pairs) gather, and so its
entries, and its (queries x k^3) sums hold at most the budget each
(``spatial._spans``), every operator runs one block at a time, and the
dense pass's H, gathered features and sums must each fit it. The two
passes agree to rounding.

All arithmetic is float64. Summation over a neighbourhood follows the
stored pair order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import spatial
from .pointcloud import _freeze
from .spatial import NeighborTable


@dataclass(frozen=True)
class AnchorGrid:
    """Cubic lattice of k^3 anchor positions centred on the origin.

    Anchors sit at (i, j, l) * unit for integer i, j, l in
    [-(k-1)/2, (k-1)/2]; k must be odd so the centre anchor is the
    origin itself. ``unit`` is the per-axis anchor spacing in meters and
    doubles as the hat-function width, so neighbouring anchors blend
    seamlessly (their hats sum to one between them).

    Linear anchor index convention, used for every (k^3, ...) weight
    array in this module:

        index(i, j, l) = ((i + h) * k + (j + h)) * k + (l + h),
        h = (k - 1) // 2        (l varies fastest)
    """

    k: int
    unit: np.ndarray  # (3,) float64, > 0

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be odd and >= 1, got {self.k}")
        u = np.array(self.unit, dtype=np.float64, copy=True).reshape(3)
        if not np.all(np.isfinite(u)) or np.any(u <= 0):
            raise ValueError("unit spacings must be positive and finite")
        _freeze(self, "unit", u)

    @property
    def half(self) -> int:
        return (self.k - 1) // 2

    @property
    def num_anchors(self) -> int:
        return self.k ** 3

    def anchor_index(self, i: int, j: int, l: int) -> int:
        h = self.half
        if max(abs(i), abs(j), abs(l)) > h:
            raise ValueError(f"anchor ({i},{j},{l}) outside lattice of half-width {h}")
        return ((i + h) * self.k + (j + h)) * self.k + (l + h)

    def anchor_positions(self) -> np.ndarray:
        """(k^3, 3) anchor coordinates, rows in linear-index order."""
        h = self.half
        rng = np.arange(-h, h + 1, dtype=np.float64)
        ii, jj, ll = np.meshgrid(rng, rng, rng, indexing="ij")
        lattice = np.stack([ii.ravel(), jj.ravel(), ll.ravel()], axis=1)
        return lattice * self.unit

    def support_radius(self) -> float:
        """Distance beyond which every deformed weight is exactly zero.

        A hat centred on the outermost anchor (h * unit per axis) dies
        at (h + 1) * unit, so offsets past the corner reach
        ||(h + 1) * unit|| contribute nothing.
        """
        reach = (self.half + 1) * self.unit
        return float(np.sqrt(reach[0] ** 2 + reach[1] ** 2 + reach[2] ** 2))


def grid_from_spacing(k: int, spacing) -> AnchorGrid:
    """AnchorGrid from a scalar or per-axis spacing."""
    u = np.asarray(spacing, dtype=np.float64)
    if u.ndim == 0:
        u = np.full(3, float(u))
    return AnchorGrid(k=k, unit=u)


def _freeze_bias(filt, out_dim: int) -> None:
    """Check a filter's optional bias, an (out_dim,) finite vector, and
    store it as a read-only float64 copy."""
    if filt.bias is None:
        return
    b = np.array(filt.bias, dtype=np.float64, copy=True).reshape(-1)
    if b.shape[0] != out_dim:
        raise ValueError(f"bias must be ({out_dim},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("bias contains non-finite values")
    _freeze(filt, "bias", b)


@dataclass(frozen=True)
class DeformableFilter:
    """Full filter: one (in_dim, out_dim) weight matrix per anchor."""

    grid: AnchorGrid
    weights: np.ndarray  # (k^3, in_dim, out_dim)
    bias: np.ndarray | None = None  # (out_dim,)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 3 or w.shape[0] != self.grid.num_anchors:
            raise ValueError(
                f"weights must be ({self.grid.num_anchors}, in, out), got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        _freeze(self, "weights", w)
        _freeze_bias(self, w.shape[2])

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class SeparableFilter:
    """Factorised filter: per-anchor per-channel spatial weights plus a
    shared pointwise channel map. Equivalent to a DeformableFilter whose
    anchor matrices are rank-one per channel:
    weights[p, c, d] = spatial[p, c] * pointwise[c, d]."""

    grid: AnchorGrid
    spatial: np.ndarray  # (k^3, in_dim)
    pointwise: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray | None = None  # (out_dim,)

    def __post_init__(self):
        s = np.array(self.spatial, dtype=np.float64, copy=True)
        if s.ndim != 2 or s.shape[0] != self.grid.num_anchors:
            raise ValueError(
                f"spatial must be ({self.grid.num_anchors}, in), got {s.shape}"
            )
        p = np.array(self.pointwise, dtype=np.float64, copy=True)
        if p.ndim != 2 or p.shape[0] != s.shape[1]:
            raise ValueError(f"pointwise must be ({s.shape[1]}, out), got {p.shape}")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(p))):
            raise ValueError("filter parameters contain non-finite values")
        _freeze(self, "spatial", s)
        _freeze(self, "pointwise", p)
        _freeze_bias(self, p.shape[1])

    @property
    def in_dim(self) -> int:
        return self.spatial.shape[1]

    @property
    def out_dim(self) -> int:
        return self.pointwise.shape[1]


@dataclass(frozen=True)
class ConvLayerSpec:
    """Geometry of one convolution: anchor grid, search radius, cap.

    The radius must cover the grid's support radius, otherwise points
    the filter could still see would be cut off by the search.
    """

    grid: AnchorGrid
    radius: float
    cap: int

    def __post_init__(self):
        spatial.check_search(self.radius, self.cap)
        support = self.grid.support_radius()
        if self.radius < support:
            raise ValueError(
                f"radius {self.radius} smaller than filter support {support}"
            )


def default_radius(grid: AnchorGrid) -> float:
    """Smallest search radius that keeps the whole filter support."""
    return grid.support_radius()


def trilinear_weight(offset, anchor, unit) -> float:
    """Interpolation weight between one offset and one anchor.

    Product over the three axes of the hat function
    max(1 - |offset_d - anchor_d| / unit_d, 0). Equals 1 exactly at the
    anchor, 0 at and beyond one spacing away per axis. Over any offset,
    the weights of all anchors of an enclosing lattice cell sum to 1.
    """
    o = np.asarray(offset, dtype=np.float64).reshape(3)
    a = np.asarray(anchor, dtype=np.float64).reshape(3)
    u = np.asarray(unit, dtype=np.float64).reshape(3)
    w = 1.0
    for d in range(3):
        w *= max(1.0 - abs(o[d] - a[d]) / u[d], 0.0)
    return w


def _hat_all(offsets: np.ndarray, grid: AnchorGrid) -> np.ndarray:
    """(N, k^3) trilinear weights of every offset against every anchor."""
    anchors = grid.anchor_positions()
    t = 1.0 - np.abs(offsets[:, None, :] - anchors[None, :, :]) / grid.unit
    np.maximum(t, 0.0, out=t)
    return t[:, :, 0] * t[:, :, 1] * t[:, :, 2]


def enclosing_anchors(z, grid: AnchorGrid) -> list[tuple[int, float]]:
    """The anchors with nonzero trilinear weight at offset z.

    Returns (linear index, weight) pairs in ascending index order; at
    most 8 (fewer near the lattice boundary, none once z is a full
    spacing outside the lattice hull on some axis). Weights match
    trilinear_weight exactly.
    """
    zz = np.asarray(z, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(zz)):
        raise ValueError("offset contains non-finite values")
    h = grid.half
    per_axis: list[list[tuple[int, float]]] = []
    for d in range(3):
        u = float(grid.unit[d])
        base = int(np.floor(zz[d] / u))
        axis = []
        for i in range(base - 1, base + 3):
            if -h <= i <= h:
                w = max(1.0 - abs(zz[d] - i * u) / u, 0.0)
                if w > 0.0:
                    axis.append((i, w))
        per_axis.append(axis)
    out = []
    for i, wi in per_axis[0]:
        for j, wj in per_axis[1]:
            for l, wl in per_axis[2]:
                out.append((grid.anchor_index(i, j, l), wi * wj * wl))
    return out


def interpolate_filter(z, filt: DeformableFilter) -> np.ndarray:
    """Deformed weight matrix ghat(z): (in_dim, out_dim)."""
    out = np.zeros((filt.in_dim, filt.out_dim))
    for idx, w in enclosing_anchors(z, filt.grid):
        out += w * filt.weights[idx]
    return out


def _axis_hats(o: np.ndarray, planes: np.ndarray, unit) -> np.ndarray:
    """max(1 - |o - planes * unit| / unit, 0), trilinear_weight's hat on
    one axis, of offsets o at lattice planes, all three broadcast."""
    t = o - planes * unit
    np.abs(t, out=t)
    t /= unit
    np.subtract(1.0, t, out=t)
    return np.maximum(t, 0.0, out=t)


def _corner_gather(offsets: np.ndarray, grid: AnchorGrid):
    """Vectorised enclosing-anchor lookup for a batch of offsets.

    Returns (kept, ids, w). kept holds, ascending, the rows of the offsets
    with a nonzero weight at some corner; ids and w, both (8, kept), hold
    the linear anchor index and trilinear weight of each of the 8 lattice
    corners around each kept offset, corners ordered by ascending (i, j,
    l); ids use the smallest unsigned dtype that holds k^3 - 1. Corners
    outside the lattice carry weight exactly 0 (their id is clamped into
    range so it is safe to gather with). Per-axis weights are _axis_hats,
    trilinear_weight's formula, so the weights of the corners it keeps
    agree with it bit-for-bit. It keeps the planes floor(o / unit) and
    one above per axis. Where a plane's position q * unit is inexact
    (|q| >= 3, so k >= 7), an offset on or a few ulps below the next
    plane can have o / unit land on that plane while its hat at q is
    still a rounding-level positive value: that corner is dropped (its
    weight is below 2^-50), where enclosing_anchors and the oracle's
    full scan keep it. Every step runs on all three axes' (3, 2, P)
    lower and upper lattice planes at once, and a corner's weight is
    (x * y) * z.
    """
    h, k = grid.half, grid.k
    unit = grid.unit[:, None, None]
    # an offset at least reach from 0 on some axis divides by unit to past
    # +-(h + 1) despite rounding (the 2^-40 margin), so both its planes on
    # that axis lie outside the lattice and all its corners weigh 0: only
    # the other offsets are gathered
    reach = (h + 1) * (1 + 2.0 ** -40) * grid.unit[:, None]
    o = np.ascontiguousarray(offsets.T)
    near = np.flatnonzero((np.abs(o) < reach).all(axis=0))
    o = o.take(near, axis=1)[:, None]  # (3, 1, P)
    corner = np.empty((3, 2, o.shape[2]))
    np.divide(o[:, 0], unit[:, 0], out=corner[:, 0])
    np.floor(corner[:, 0], out=corner[:, 0])
    np.add(corner[:, 0], 1.0, out=corner[:, 1])
    inside = np.abs(corner) <= h
    corner *= inside  # planes outside the lattice read the centre plane
    hats = _axis_hats(o, corner, unit)
    hats *= inside
    # rounding is monotone, so the largest corner weight is the product of
    # the per-axis maxima: an offset has a nonzero corner iff it is nonzero
    x, y, z = np.maximum(hats[:, 0], hats[:, 1])
    nonzero = np.flatnonzero(x * y * z > 0)
    x, y, z = hats.take(nonzero, axis=2)
    c = corner.take(nonzero, axis=2)
    c += h
    c *= np.array([k * k, k, 1.0])[:, None, None]
    cx, cy, cz = c.astype(np.min_scalar_type(k ** 3 - 1))
    ids = cx[:, None, None] + cy[None, :, None] + cz[None, None]
    w = (x[:, None, None] * y[None, :, None]) * z[None, None]
    return near.take(nonzero), ids.reshape(8, -1), w.reshape(8, -1)


def _scatter_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, C) sums of the rows of values (P, C) into rows index (P,): one
    bincount per column, adding in ascending row order (bit-identical runs)."""
    out = np.empty((n, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out


def _channel_last(grad: np.ndarray | None) -> np.ndarray | None:
    """A channel-major (in, M) gradient as a C-contiguous (M, in) copy;
    None stays None."""
    return None if grad is None else np.ascontiguousarray(grad.T)


# (builder name, k, unit bytes) -> (weak reference to a table, its value)
_KERNEL_MAPS: dict = {}


def _per_table(build):
    """build(table, grid), kept for the most recent table of each grid
    while that table lives; a hit does no per-table work."""
    @functools.wraps(build)
    def cached(table: NeighborTable, grid: AnchorGrid):
        key = (build.__name__, grid.k, grid.unit.tobytes())
        hit = _KERNEL_MAPS.get(key)
        if hit is not None and hit[0]() is table:
            return hit[1]
        value = build(table, grid)

        # no lock: a race between threads can only cost a rebuild, since a
        # value is served only to the table it was built from
        def evict(ref):
            if _KERNEL_MAPS.get(key, (None,))[0] is ref:
                _KERNEL_MAPS.pop(key, None)

        _KERNEL_MAPS[key] = (weakref.ref(table, evict), value)
        return value
    return cached


@_per_table
def _kernel_map(table: NeighborTable, grid: AnchorGrid) -> list:
    """The table's nonzero (pair, corner) entries, as a list of query
    blocks (rows, keys, nbr, w, base). rows is the block's slice of
    queries and base its smallest neighbour id (0 with no entries); per
    entry, keys holds (query - rows.start) * k^3 + anchor and nbr the
    neighbour id less base, both int64, and w the trilinear weight. So a
    block reads and adds into only the ids base .. base + nbr.max(), a
    short range when its queries' neighbours lie close in id, as in a
    LayerContext's cell order. The corners whose weight is exactly 0 are
    not stored, since they would only add zeros to every sum.

    Each block is gathered on its own (_corner_gather) and its entries
    taken, by flatnonzero, from its (8, kept) weights, so they stay in
    (corner, pair) order. Blocks are cut (spatial._spans) so that a
    block's (8, pairs) gather, and so its entries, and its (queries x
    k^3) sums each hold at most the block budget, and each block keeps
    its own arrays, so no temporary of the build outgrows one block.
    """
    a, counts = grid.num_anchors, table.counts
    blocks = []
    for q0, q1 in spatial._spans(8 * table.starts, a):
        p0, p1 = table.starts[q0], table.starts[q1]
        kept, ids, w = _corner_gather(table.offsets[p0:p1], grid)
        nonzero = w > 0
        at = np.flatnonzero(nonzero)
        # each entry's kept pair: its flat index less its corner's row start
        pair = at - np.repeat(np.arange(8, dtype=np.int64) * kept.shape[0],
                              np.count_nonzero(nonzero, axis=1))
        query = np.repeat(np.arange(q1 - q0, dtype=np.int64) * a, counts[q0:q1])
        keys = query.take(kept).take(pair)
        keys += ids.ravel().take(at)
        nbr = table.indices[p0:p1].take(kept).take(pair)
        base = int(nbr.min()) if nbr.shape[0] else 0
        nbr -= base
        blocks.append((slice(q0, q1), keys, nbr, w.ravel().take(at), base))
    return blocks


@_per_table
def _interpolation(table: NeighborTable, grid: AnchorGrid):
    """(H, cols, pads) of the table (see _dense_map), or None when H does
    not fit the block budget. The offsets go to their slots, +inf to the
    pads past a row's end, whose hats are then exactly 0. H, the product
    of the per-axis hats at the k lattice planes in the kernel map's
    corner order, (x * y) * z, has the map's weights. It is anchor-major,
    (k^3, queries, slots), seen as (queries, k^3, slots) by the GEMMs."""
    q, a, h = table.num_queries, grid.num_anchors, grid.half
    slots = int(table.counts.max(initial=0))
    if q * slots * a > spatial._BLOCK_VALUES:
        return None
    rows = spatial._expand(np.arange(q, dtype=np.int64) * slots, table.counts)
    offsets = np.full((3, 1, q * slots), np.inf)
    offsets[:, 0, rows] = table.offsets.T
    planes = np.arange(-h, h + 1, dtype=np.float64)[:, None]
    x, y, z = hats = _axis_hats(offsets, planes, grid.unit[:, None, None])  # (3, k, q * slots)
    with spatial._row_loops():
        hmat = (x[:, None, None] * y[None, :, None]) * z[None, None]
    # a slot weighs 0 at every corner when all its hats on some axis are 0
    pads = np.flatnonzero(~hats.any(axis=1).all(axis=0))
    cols = np.zeros(q * slots, dtype=np.int64)
    cols[rows] = table.indices
    cols[pads] = 0
    return hmat.reshape(a, q, slots).transpose(1, 0, 2), cols, pads


def _dense_map(table: NeighborTable, grid: AnchorGrid, in_dim: int):
    """(H, cols, pads) for the full operator's dense pass, built from the
    table alone once per (table, grid), or None when H, the gathered
    features (queries, slots, in_dim) or the sums (queries, k^3, in_dim)
    would hold more than the block budget.

    Row q * slots + j stands for q's j-th pair, slots being the most
    pairs any query of the table holds. H (queries, k^3, slots) holds at
    [q, a, j] that pair's trilinear weight at anchor a, and cols its
    neighbour id. pads lists the rows past a row's end and those of pairs
    zero at all eight corners, where H and cols are 0 and the gathered
    features are zeroed.
    """
    q, a = table.num_queries, grid.num_anchors
    if q * a * in_dim > spatial._BLOCK_VALUES:  # the sums alone do not fit
        return None
    dense = _interpolation(table, grid)
    if dense is None or q * dense[0].shape[2] * in_dim > spatial._BLOCK_VALUES:
        return None
    return dense


def _dense_sums(features: np.ndarray, dense) -> np.ndarray:
    """The dense pass's anchor sums S = H @ F (queries, k^3, in), F
    (queries, slots, in) the features of each query's pairs in its slots,
    zero at pads, so a query's sums read no other query's features."""
    h, cols, pads = dense
    f = features.take(cols, axis=0)
    f[pads] = 0.0  # exact zeros, whatever feature row 0 holds
    return h @ f.reshape(h.shape[0], h.shape[2], features.shape[1])


def _channel_parts(features, neighbors: NeighborTable, filt: DeformableFilter, work,
                   threads: int = 1):
    """(i, rows, work(i, block, S)) for every part of the full operator,
    in part order.

    A part is one input channel i of one kernel-map block (rows, keys,
    nbr, w, base). S (block queries, k^3) is channel i's anchor sums,

        S[q, a] = sum over the (pair, corner)s of q at anchor a of
                  trilinear weight * f_i(neighbour),

    one bincount over the block's keys, adding in its (corner, pair)
    order; the features are read by a take from the block's id range of
    a contiguous per-channel copy. With threads > 1 a block's channels
    run on a thread pool; results are still yielded in part order, so
    callers that add them in that order get bit-identical sums for any
    thread count.
    """
    num_anchors = filt.grid.num_anchors
    columns = np.ascontiguousarray(features.T)

    def run(part):
        i, block = part
        rows, keys, nbr, w, base = block
        size = (rows.stop - rows.start) * num_anchors
        s = np.bincount(keys, w * columns[i, base:].take(nbr), minlength=size)
        return i, rows, work(i, block, s.reshape(-1, num_anchors))

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for block in _kernel_map(neighbors, filt.grid):
            parts = [(i, block) for i in range(filt.in_dim)]
            yield from (pool.map if pool else map)(run, parts)


def _check_args(features, neighbors: NeighborTable, filt, upstream=None):
    """Validated float64 (features, upstream); upstream stays None when
    not given, else must be (num_queries, out_dim)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be (M, D'), got {features.shape}")
    if features.shape[1] != filt.in_dim:
        raise ValueError(
            f"filter expects {filt.in_dim} input channels, features have {features.shape[1]}"
        )
    ids = neighbors.indices
    if ids.size and not 0 <= int(ids.min()) <= int(ids.max()) < features.shape[0]:
        raise ValueError("neighbor table refers to points outside the feature rows")
    if upstream is None:
        return features, None
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != (neighbors.num_queries, filt.out_dim):
        raise ValueError(
            f"upstream must be ({neighbors.num_queries}, {filt.out_dim}), got {up.shape}"
        )
    return features, up


def forward_features(
    features: np.ndarray,
    neighbors: NeighborTable,
    filt: DeformableFilter,
    threads: int = 1,
    sums: list | None = None,
) -> np.ndarray:
    """Fast-path convolution of an (M, D') feature matrix; one output
    row per query, h[q] = sum_{i,a} S[q, a, i] * weights[a, i, :] (+ bias)
    over the anchor sums S.

    A table that takes the dense pass (``_dense_map``) is one part: S =
    H @ F for all input channels at once, and h = S (queries, k^3 * in)
    @ weights (k^3 * in, out); given a list ``sums``, S (at most one
    block budget) is appended to it, for a backward_features that follows
    to read. Otherwise one part per (query block, input channel i):
    channel i's sums S_i from the kernel map, contracted with
    weights[:, i, :] and added into the block's rows, and kept nowhere;
    threads > 1 runs these parts on a pool.
    """
    features, _ = _check_args(features, neighbors, filt)
    dense = _dense_map(neighbors, filt.grid, filt.in_dim)
    if dense is not None:
        q, (a, i, o) = neighbors.num_queries, filt.weights.shape
        s = _dense_sums(features, dense)
        out = s.reshape(q, a * i) @ filt.weights.reshape(a * i, o)
        if sums is not None:
            sums.append(s)
    else:
        out = np.zeros((neighbors.num_queries, filt.out_dim))

        def work(i, block, s):
            return s @ filt.weights[:, i]

        for _, rows, h in _channel_parts(features, neighbors, filt, work, threads):
            out[rows] += h
    if filt.bias is not None:
        out += filt.bias
    return out


def oracle_forward_features(
    features: np.ndarray, neighbors: NeighborTable, filt: DeformableFilter
) -> np.ndarray:
    """Reference convolution: full scan over all k^3 anchors per pair.

    No enclosing-cell shortcut and no shared segment machinery with the
    fast path; kept simple on purpose so it can arbitrate.
    """
    features, _ = _check_args(features, neighbors, filt)
    out = np.zeros((neighbors.num_queries, filt.out_dim))
    for i in range(neighbors.num_queries):
        idx, offs = neighbors.neighbors_of(i)
        if idx.shape[0] == 0:
            continue
        hats = _hat_all(offs, filt.grid)  # (n, k^3)
        deformed = np.tensordot(hats, filt.weights, axes=(1, 0))  # (n, in, out)
        out[i] = np.einsum("nio,ni->o", deformed, features[idx])
    if filt.bias is not None:
        out += filt.bias
    return out


def backward_features(
    features: np.ndarray,
    neighbors: NeighborTable,
    filt: DeformableFilter,
    upstream: np.ndarray,
    sums: list | None = None,
    *,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * forward) w.r.t. features, weights, bias.

    Walks the forward pass's parts. On the dense pass, S is read from
    ``sums`` when that list is not empty (the list that forward_features
    kept on the same features, table and grid), else rebuilt as the
    forward builds it, so both give the same bits; the channel pass
    always rebuilds its sums. A non-empty ``sums`` other than the one
    (queries, k^3, in) array the dense pass keeps raises ValueError.
    grad_bias is the column sum of upstream.

    On the dense pass, grad_weights is S^T @ upstream over all channels;
    H^T @ (upstream @ weights^T) carries dL/dS to every pair's slot, and
    one bincount per input channel i adds the slots' values into
    grad_features[:, i]. Otherwise, per part (query block, input channel
    i): grad_weights[:, i] gains S_i^T @ upstream; each pair blends
    (upstream @ weights[:, i, :]^T) of its query over its corners, and
    one bincount over the block's neighbour ids, as long as their range,
    adds those into that range of row i of a channel-major (in, M) sum,
    returned as C-contiguous (M, in). dL/dS is written into one buffer
    per call: freeing a 1 MB temporary per part lets the heap's top be
    trimmed and faulted back in by the next part. Parts add in a fixed
    order, so repeated runs are bit-identical.

    With ``input_grad=False`` (the caller discards it, as for a stack's
    first layer) grad_features is None and none of its work is done: no
    H^T product or scatter on the dense pass, no dL/dS, take or neighbour
    bincount per part on the channel pass. The other gradients keep
    their bits.
    """
    features, up = _check_args(features, neighbors, filt, upstream)
    dense = _dense_map(neighbors, filt.grid, filt.in_dim)
    q, (a, i, o) = neighbors.num_queries, filt.weights.shape
    keeps = [(q, a, i)] if dense is not None else []
    if sums and [np.shape(s) for s in sums] != keeps:
        raise ValueError(f"kept anchor sums do not match this table and filter, which keep {keeps}")
    if dense is not None:
        h, cols, pads = dense
        wide = filt.weights.reshape(a * i, o)
        grad_f = None
        if input_grad:
            # dL/dS[q, a, i] = up[q] . weights[a, i, :], carried to each slot.
            # Made before S is rebuilt, and never named, so S can reuse its
            # memory: with both live, a toy 8 -> 16 call took 0.3 ms more
            g = (h.transpose(0, 2, 1) @ (up @ wide.T).reshape(q, a, i)).reshape(q * h.shape[2], i)
            g[pads] = 0.0  # the pads add exact zeros into point 0's bin
            grad_f = _scatter_rows(cols, g, features.shape[0])
        s = sums[0] if sums else _dense_sums(features, dense)
        return grad_f, (s.reshape(q, a * i).T @ up).reshape(a, i, o), up.sum(axis=0)
    grad_w = np.zeros_like(filt.weights)
    grad_f = np.zeros((i, features.shape[0])) if input_grad else None
    blocks = _kernel_map(neighbors, filt.grid)
    if input_grad:
        dsum = np.empty(max(((b[0].stop - b[0].start) * a for b in blocks), default=0))

    def work(i, block, s):
        rows, keys, nbr, w, base = block
        if input_grad:
            # dL/dS_i[q, a] = up[q] . weights[a, i, :], read at each entry's key
            ds = dsum[:(rows.stop - rows.start) * a]
            np.matmul(up[rows], filt.weights[:, i].T, out=ds.reshape(-1, a))
            add = np.bincount(nbr, w * ds.take(keys))
            grad_f[i, base:base + add.shape[0]] += add
        return s.T @ up[rows]

    for i, _, gw in _channel_parts(features, neighbors, filt, work):
        grad_w[:, i] += gw
    return _channel_last(grad_f), grad_w, up.sum(axis=0)


def forward_separable_features(
    features: np.ndarray, neighbors: NeighborTable, sf: SeparableFilter
) -> np.ndarray:
    """Separable convolution: per-channel spatial aggregation
    m[y, i] = sum_{x in N(y)} ghat1_i(y - x) * f_i(x), then the
    pointwise map m @ pointwise (+ bias).

    One kernel-map block at a time, and one input channel i at a time
    within it: m[:, i] sums, per query, its entries' weight *
    spatial[anchor, i] * f_i(neighbour) in the block's (corner, pair)
    order (bit-identical runs), and the block's m @ pointwise fills its
    output rows. m and those rows hold the block's queries times in and
    out values: within the block budget while neither exceeds k^3.
    """
    features, _ = _check_args(features, neighbors, sf)
    columns, a = np.ascontiguousarray(features.T), sf.grid.num_anchors
    out = np.empty((neighbors.num_queries, sf.out_dim))
    for rows, keys, nbr, w, base in _kernel_map(neighbors, sf.grid):
        n = rows.stop - rows.start
        query = keys // a
        anchor = keys - query * a  # keys % a, at less cost
        m = np.empty((n, sf.in_dim))
        for i, column in enumerate(sf.spatial.T):
            m[:, i] = np.bincount(query, w * column.take(anchor) * columns[i, base:].take(nbr),
                                  minlength=n)
        out[rows] = m @ sf.pointwise
    if sf.bias is not None:
        out += sf.bias
    return out


def backward_separable_features(
    features: np.ndarray,
    neighbors: NeighborTable,
    sf: SeparableFilter,
    upstream: np.ndarray,
    *,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for the separable form: (features, spatial, pointwise, bias).

    Runs the forward pass's blocks and channels again. Per block, dL/dm
    is upstream @ pointwise^T on its rows; per channel i, one bincount
    each over the block's entries adds m[:, i], grad_spatial[:, i] and,
    into the block's id range of row i of a channel-major (in, M) sum
    returned as C-contiguous (M, in), grad_features[:, i]; the block's
    m^T @ upstream adds into grad_pointwise. No temporary holds more than
    one block. With ``input_grad=False`` grad_features is None and its
    bincounts are not run; the other gradients keep their bits.
    """
    features, up = _check_args(features, neighbors, sf, upstream)
    columns, a = np.ascontiguousarray(features.T), sf.grid.num_anchors
    grad_f = np.zeros_like(columns) if input_grad else None
    grad_s, grad_p = np.zeros_like(sf.spatial), np.zeros_like(sf.pointwise)
    for rows, keys, nbr, w, base in _kernel_map(neighbors, sf.grid):
        n = rows.stop - rows.start
        query = keys // a
        anchor = keys - query * a  # keys % a, at less cost
        dm = sf.pointwise @ up[rows].T  # dL/dm, (in, block queries)
        m = np.empty((n, sf.in_dim))
        for i, column in enumerate(sf.spatial.T):
            f = columns[i, base:].take(nbr)
            g = w * column.take(anchor)  # ghat1_i's share of each entry
            m[:, i] = np.bincount(query, g * f, minlength=n)
            u = dm[i].take(query)
            if input_grad:
                add = np.bincount(nbr, g * u)
                grad_f[i, base:base + add.shape[0]] += add
            # dL/dspatial[a, i] sums w * f * u over the entries at anchor a
            grad_s[:, i] += np.bincount(anchor, w * f * u, minlength=a)
        grad_p += m.T @ up[rows]
    return _channel_last(grad_f), grad_s, grad_p, up.sum(axis=0)
