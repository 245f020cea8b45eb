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

Two implementations are kept side by side:

  * forward / backward: the production path. Only the <= 8 anchors that
    enclose each offset are touched. Those corners and their weights
    (the kernel map) are gathered once per (neighbour table, anchor
    grid) and shared by every layer and pass on that table; pairs whose
    weight is zero at all eight corners are left out of the map. The
    full filter runs in query blocks, the separable one channel by channel.
  * oracle_forward: a deliberately naive full scan over all k^3 anchors
    for every pair. It exists to cross-check the fast path and is used
    by tests and the benchmark command.

All arithmetic is float64. Summation over a neighbourhood follows the
stored pair order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud, _freeze
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
        if self.bias is not None:
            b = np.array(self.bias, dtype=np.float64, copy=True).reshape(-1)
            if b.shape[0] != w.shape[2]:
                raise ValueError(f"bias must be ({w.shape[2]},), got {b.shape}")
            if not np.all(np.isfinite(b)):
                raise ValueError("bias contains non-finite values")
            _freeze(self, "bias", b)

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
        if self.bias is not None:
            b = np.array(self.bias, dtype=np.float64, copy=True).reshape(-1)
            if b.shape[0] != p.shape[1]:
                raise ValueError(f"bias must be ({p.shape[1]},), got {b.shape}")
            if not np.all(np.isfinite(b)):
                raise ValueError("bias contains non-finite values")
            _freeze(self, "bias", b)

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
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError("radius must be positive and finite")
        support = self.grid.support_radius()
        if self.radius < support:
            raise ValueError(
                f"radius {self.radius} smaller than filter support {support}"
            )
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


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


def _corner_gather(offsets: np.ndarray, grid: AnchorGrid) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised enclosing-anchor lookup for a batch of offsets.

    Returns (ids, w), both (P, 8): the linear anchor index and trilinear
    weight of each of the 8 lattice corners around each offset, corners
    ordered by ascending (i, j, l); ids use the smallest unsigned dtype
    that holds k^3 - 1. Corners outside the lattice carry weight exactly
    0 (their id is clamped into range so it is safe to gather with).
    Per-axis weights use the same formula as trilinear_weight, so
    nonzero weights agree with it bit-for-bit.
    """
    p = offsets.shape[0]
    u = grid.unit
    h = grid.half
    k = grid.k
    base = np.floor(offsets / u).astype(np.int64)  # (P,3) lower lattice corner
    # per axis: hat weight and validity of the lower/upper lattice plane
    axis_w = np.empty((2, p, 3))
    axis_idx = np.empty((2, p, 3), dtype=np.int64)
    for side in range(2):
        corner = base + side
        inside = (corner >= -h) & (corner <= h)
        safe = np.where(inside, corner, 0)
        wd = 1.0 - np.abs(offsets - safe * u) / u
        np.maximum(wd, 0.0, out=wd)
        wd[~inside] = 0.0
        axis_w[side] = wd
        axis_idx[side] = safe
    ids = np.empty((p, 8), dtype=np.min_scalar_type(k ** 3 - 1))
    w = np.empty((p, 8), dtype=np.float64)
    for c in range(8):
        b0, b1, b2 = (c >> 2) & 1, (c >> 1) & 1, c & 1
        w[:, c] = axis_w[b0, :, 0] * axis_w[b1, :, 1] * axis_w[b2, :, 2]
        ids[:, c] = (
            (axis_idx[b0, :, 0] + h) * k + (axis_idx[b1, :, 1] + h)
        ) * k + (axis_idx[b2, :, 2] + h)
    return ids, w


def _anchor_sums(features, nbr, ids, w, qid, num_queries: int, num_anchors: int) -> np.ndarray:
    """Weighted per-(query, anchor) feature sums for one query block:

        S[q, a, i] = sum over pairs of q and corners hitting anchor a of
                     trilinear weight * f_i(neighbour)

    ``qid`` is the block-local query id of each pair. Sums add in
    ascending (pair, corner) order, i.e. ascending query, then stored
    neighbour order. Everything the forward pass and the weight gradient
    need reduces to contractions of S.
    """
    keys = (qid[:, None] * num_anchors + ids).ravel()
    vals = (w[:, :, None] * features[nbr][:, None, :]).reshape(keys.shape[0], -1)
    return _scatter_rows(keys, vals, num_queries * num_anchors).reshape(num_queries, num_anchors, -1)


def _scatter_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, C) sums of the rows of values (P, C) into rows index (P,): one
    bincount per column, adding in ascending row order (bit-identical runs)."""
    out = np.empty((n, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out


def _query_blocks(starts: np.ndarray, pair_budget: int):
    """Split queries into consecutive blocks of at most pair_budget pairs
    (a block always holds at least one query)."""
    q = starts.shape[0] - 1
    q0 = 0
    while q0 < q:
        q1 = int(np.searchsorted(starts, starts[q0] + pair_budget, side="left"))
        q1 = max(q1, q0 + 1)
        q1 = min(q1, q)
        yield q0, q1
        q0 = q1


# grid key (k, unit bytes) -> (weak reference to a table, its kernel map)
_KERNEL_MAPS: dict = {}


def _kernel_map(table: NeighborTable, grid: AnchorGrid):
    """(starts, nbr, ids, w): the table's pairs with a nonzero weight at
    some corner, as a CSR over the same queries, with their corners.

    Dropped pairs would only add exact zeros to every sum. One map per
    grid is kept, for the most recent table and while that table lives,
    so search tables (read-only) are gathered once for all their layers,
    passes and epochs.
    """
    key = (grid.k, grid.unit.tobytes())
    hit = _KERNEL_MAPS.get(key)
    if hit is not None and hit[0]() is table:
        return hit[1]
    ids, w = _corner_gather(table.offsets, grid)
    keep = w.any(axis=1)
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    kmap = (kept_before[table.starts], table.indices[keep], ids[keep], w[keep])

    # no lock: a race between threads can only cost a rebuild, since a
    # map is served only to the table it was built from
    def evict(ref):
        if _KERNEL_MAPS.get(key, (None,))[0] is ref:
            _KERNEL_MAPS.pop(key, None)

    _KERNEL_MAPS[key] = (weakref.ref(table, evict), kmap)
    return kmap


def _block_pass(features, neighbors: NeighborTable, filt, contract, threads: int = 1):
    """Call contract(q0, q1, nbr, ids, w, qid, S) once per query block (full filter only).

    A block covers queries [q0, q1); nbr are its pairs' neighbour rows,
    (ids, w) their enclosing corners, qid their block-local query ids
    and S the block's anchor sums. Pairs come from the table's kernel
    map, built once per (table, grid) without zero-weight pairs. Blocks
    split the table's own rows, with a pair budget that keeps S near 4M
    values; blocks without kept pairs are skipped. With threads > 1
    blocks run on a thread pool, so contract may then only write rows
    [q0, q1) of its outputs; otherwise blocks run in ascending order,
    which keeps accumulated sums bit-identical.
    """
    starts, nbr_all, ids_all, w_all = _kernel_map(neighbors, filt.grid)
    counts = np.diff(starts)
    num_anchors = filt.grid.num_anchors
    budget = max(512, 4_000_000 // max(1, num_anchors * filt.in_dim))

    def run_block(block):
        q0, q1 = block
        p0, p1 = int(starts[q0]), int(starts[q1])
        if p0 == p1:
            return
        nbr, ids, w = nbr_all[p0:p1], ids_all[p0:p1], w_all[p0:p1]
        qid = np.repeat(np.arange(q1 - q0, dtype=np.int64), counts[q0:q1])
        s = _anchor_sums(features, nbr, ids, w, qid, q1 - q0, num_anchors)
        contract(q0, q1, nbr, ids, w, qid, s)

    blocks = list(_query_blocks(neighbors.starts, budget))
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, blocks))
    else:
        for block in blocks:
            run_block(block)


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
    if neighbors.num_pairs and int(neighbors.indices.max()) >= features.shape[0]:
        raise ValueError("neighbor table refers to points beyond the feature rows")
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
) -> np.ndarray:
    """Fast-path convolution on a raw feature matrix.

    Per query block: gather the <= 8 enclosing anchors of every pair,
    accumulate the per-(query, anchor) weighted feature sums S, then
    contract against the anchor weight matrices in one tensordot:
    h[q] = sum_{a,i} S[q, a, i] * weights[a, i, :] (+ bias).
    """
    features, _ = _check_args(features, neighbors, filt)
    out = np.zeros((neighbors.num_queries, filt.out_dim))

    def contract(q0, q1, nbr, ids, w, qid, s):
        out[q0:q1] = np.tensordot(s, filt.weights, axes=([1, 2], [0, 1]))

    _block_pass(features, neighbors, filt, contract, threads)
    if filt.bias is not None:
        out += filt.bias
    return out


def forward(
    cloud: PointCloud,
    neighbors: NeighborTable,
    filt: DeformableFilter,
    threads: int = 1,
) -> np.ndarray:
    """Convolve a cloud's features; one output row per query."""
    return forward_features(cloud.features, neighbors, filt, threads=threads)


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


def oracle_forward(
    cloud: PointCloud, neighbors: NeighborTable, filt: DeformableFilter
) -> np.ndarray:
    return oracle_forward_features(cloud.features, neighbors, filt)


def backward_features(
    features: np.ndarray,
    neighbors: NeighborTable,
    filt: DeformableFilter,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * forward) w.r.t. features, weights, bias.

    grad_features[x] collects ghat(y - x) @ upstream[y] over every query
    y that saw x; grad_weights[p] collects w(pair, p) * f(x) outer
    upstream[y]; grad_bias is the column sum of upstream. Accumulation
    runs in ascending query order, then stored neighbour order, then
    corner order, so repeated runs are bit-identical.
    """
    features, up = _check_args(features, neighbors, filt, upstream)
    d_in = filt.in_dim
    num_anchors = filt.grid.num_anchors
    grad_f = np.zeros_like(features)
    grad_w = np.zeros_like(filt.weights)

    def contract(q0, q1, nbr, ids, w, qid, s):
        up_blk = up[q0:q1]
        # dL/dW[a,i,o] = sum_q S[q,a,i] * up[q,o]
        grad_w[...] += np.tensordot(s, up_blk, axes=(0, 0))
        # dL/df(x)_i = sum over pairs seeing x of ghat(y-x)[i,:] . up[y]
        u = np.einsum("aio,qo->qai", filt.weights, up_blk)  # (q, A, in)
        gather = u.reshape(-1, d_in)[(qid[:, None] * num_anchors + ids).ravel()]
        pair_gf = (w.reshape(-1)[:, None] * gather).reshape(-1, 8, d_in).sum(axis=1)
        grad_f[...] += _scatter_rows(nbr, pair_gf, features.shape[0])

    _block_pass(features, neighbors, filt, contract)
    return grad_f, grad_w, up.sum(axis=0)


def backward(
    cloud: PointCloud,
    neighbors: NeighborTable,
    filt: DeformableFilter,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return backward_features(cloud.features, neighbors, filt, upstream)


def forward_separable_features(
    features: np.ndarray, neighbors: NeighborTable, sf: SeparableFilter
) -> np.ndarray:
    """Separable convolution: per-channel spatial aggregation
    m[y, i] = sum_{x in N(y)} ghat1_i(y - x) * f_i(x), then the
    pointwise map m @ pointwise (+ bias).

    One input channel i at a time on the table's kernel map: ghat1_i of
    every pair blends spatial[:, i] over the pair's corners, and m[:, i]
    sums over each query's pairs in stored order (bit-identical runs).
    No temporary is larger than the map's own (pairs, 8) weights.
    """
    features, _ = _check_args(features, neighbors, sf)
    starts, nbr, ids, w = _kernel_map(neighbors, sf.grid)
    qid = np.repeat(np.arange(neighbors.num_queries, dtype=np.int64), np.diff(starts))
    m = np.empty((neighbors.num_queries, sf.in_dim))
    for i, column in enumerate(sf.spatial.T):
        g = np.einsum("pc,pc->p", w, column.take(ids))
        m[:, i] = np.bincount(qid, weights=g * features[nbr, i], minlength=m.shape[0])
    out = m @ sf.pointwise
    if sf.bias is not None:
        out += sf.bias
    return out


def forward_separable(
    cloud: PointCloud, neighbors: NeighborTable, sf: SeparableFilter
) -> np.ndarray:
    return forward_separable_features(cloud.features, neighbors, sf)


def backward_separable_features(
    features: np.ndarray,
    neighbors: NeighborTable,
    sf: SeparableFilter,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for the separable form: (features, spatial, pointwise, bias).

    Runs the forward pass's channel loop again and takes every gradient
    but the bias's from each channel's m[:, i] as it is built, so no
    array holds m or dL/dm for all channels at once.
    """
    features, up = _check_args(features, neighbors, sf, upstream)
    starts, nbr, ids, w = _kernel_map(neighbors, sf.grid)
    q = neighbors.num_queries
    qid = np.repeat(np.arange(q, dtype=np.int64), np.diff(starts))
    grad_f, grad_s, grad_p = (np.empty_like(a) for a in (features, sf.spatial, sf.pointwise))
    for i, column in enumerate(sf.spatial.T):
        g = np.einsum("pc,pc->p", w, column.take(ids))
        f = features[nbr, i]
        m_i = np.bincount(qid, weights=g * f, minlength=q)
        grad_p[i] = m_i @ up
        u = (up @ sf.pointwise[i])[qid]  # dL/dm[:, i] at each pair's query
        grad_f[:, i] = np.bincount(nbr, weights=g * u, minlength=features.shape[0])
        # dL/dspatial[a, i] sums w * f * u over the (pair, corner)s at anchor a
        grad_s[:, i] = np.bincount(ids.ravel(), weights=(w * (f * u)[:, None]).ravel(),
                                   minlength=sf.grid.num_anchors)
    return grad_f, grad_s, grad_p, up.sum(axis=0)


def backward_separable(
    cloud: PointCloud,
    neighbors: NeighborTable,
    sf: SeparableFilter,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return backward_separable_features(cloud.features, neighbors, sf, upstream)
