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
    production path. Only the <= 8 anchors that enclose each offset
    are touched. Those corners and their weights (the kernel map) are
    gathered once per (neighbour table, anchor grid), over row slices
    of the table, and shared by every layer and pass on that table;
    pairs whose weight is zero at all eight corners are left out of the
    map. Both filters run in query blocks and one input channel at a
    time on that map, and threads > 1 spreads the full filter's (block,
    channel) parts over a thread pool.
  * oracle_forward_features: a deliberately naive full scan over all
    k^3 anchors for every pair. It exists to cross-check the fast path
    and is used by tests and the benchmark command.

The search's block budget, ``spatial._BLOCK_VALUES``, bounds the large
temporaries here too: a map slice holds budget / 8 rows, and a query
block's (8, pairs) corner keys and values and its dense (queries x k^3)
sums (m and its output rows for the separable filter) hold at most the
budget each (``spatial._spans``).

All arithmetic is float64. Summation over a neighbourhood follows the
stored pair order, so repeated runs are bit-identical.
"""

from __future__ import annotations

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


def _corner_gather(offsets: np.ndarray, grid: AnchorGrid):
    """Vectorised enclosing-anchor lookup for a batch of offsets.

    Returns (kept, ids, w). kept holds, ascending, the rows of the offsets
    with a nonzero weight at some corner; ids and w, both (8, kept), hold
    the linear anchor index and trilinear weight of each of the 8 lattice
    corners around each kept offset, corners ordered by ascending (i, j,
    l); ids use the smallest unsigned dtype that holds k^3 - 1. Corners
    outside the lattice carry weight exactly 0 (their id is clamped into
    range so it is safe to gather with). Per-axis weights use the same
    formula as trilinear_weight, so nonzero weights agree with it
    bit-for-bit. Every step runs on one axis's contiguous (2, P) lower
    and upper lattice planes.
    """
    u, h, k = grid.unit, grid.half, grid.k
    axis_w, axis_c = [], []
    for d in range(3):
        o = np.ascontiguousarray(offsets[:, d])
        corner = np.empty((2, o.shape[0]))
        np.floor(o / u[d], out=corner[0])
        np.add(corner[0], 1.0, out=corner[1])
        inside = (corner >= -h) & (corner <= h)
        corner *= inside  # planes outside the lattice read the centre plane
        wd = corner * u[d]
        np.subtract(o, wd, out=wd)
        np.abs(wd, out=wd)
        wd /= u[d]
        np.subtract(1.0, wd, out=wd)
        np.maximum(wd, 0.0, out=wd)
        wd *= inside
        axis_w.append(wd)
        axis_c.append(corner)
    # rounding is monotone, so the largest corner weight is the product of
    # the per-axis maxima: an offset has a nonzero corner iff it is nonzero
    x, y, z = (np.maximum(*wd) for wd in axis_w)
    kept = np.flatnonzero(x * y * z > 0)
    dtype = np.min_scalar_type(k ** 3 - 1)
    axis_w = [wd.take(kept, axis=1) for wd in axis_w]
    axis_c = [((c.take(kept, axis=1) + h) * k ** (2 - d)).astype(dtype)
              for d, c in enumerate(axis_c)]
    ids = np.empty((8, kept.shape[0]), dtype=dtype)
    w = np.empty(ids.shape)
    for c in range(8):
        b0, b1, b2 = (c >> 2) & 1, (c >> 1) & 1, c & 1
        np.multiply(axis_w[0][b0], axis_w[1][b1], out=w[c])
        w[c] *= axis_w[2][b2]
        ids[c] = axis_c[0][b0] + axis_c[1][b1] + axis_c[2][b2]
    return kept, ids, w


def _blend(w: np.ndarray, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per pair, sum over its 8 corners of corner weight * values[corner
    id], added corner by corner, so no temporary exceeds one (pairs,) row."""
    out = w[0] * values.take(ids[0])
    for c in range(1, 8):
        out += w[c] * values.take(ids[c])
    return out


# grid key (k, unit bytes) -> (weak reference to a table, its kernel map)
_KERNEL_MAPS: dict = {}


def _kernel_map(table: NeighborTable, grid: AnchorGrid):
    """(starts, nbr, ids, w): the table's pairs with a nonzero weight at
    some corner, as a CSR over the same queries, with their corners
    stored corner-major (ids and w are (8, pairs)).

    Dropped pairs would only add exact zeros to every sum. One map per
    grid is kept, for the most recent table and while that table lives,
    so search tables (read-only) are gathered once for all their layers,
    passes and epochs.
    """
    key = (grid.k, grid.unit.tobytes())
    hit = _KERNEL_MAPS.get(key)
    if hit is not None and hit[0]() is table:
        return hit[1]
    # gathered over row slices whose (8, rows) arrays fit the block budget
    # (one empty slice for an empty table, so the map keeps its dtypes)
    step = max(1, spatial._BLOCK_VALUES // 8)
    parts = []
    for p0 in range(0, max(table.num_pairs, 1), step):
        kept, ids, w = _corner_gather(table.offsets[p0:p0 + step], grid)
        parts.append((kept + p0, ids, w))
    # a single slice is the map as it is: copying it would cost a second
    # allocation of its size on every small table
    kept, ids, w = (arrs[0] if len(arrs) == 1 else np.concatenate(arrs, axis=-1)
                    for arrs in zip(*parts))
    del parts  # the slices go before the neighbour ids are taken
    kmap = (np.searchsorted(kept, table.starts), table.indices[kept], ids, w)

    # no lock: a race between threads can only cost a rebuild, since a
    # map is served only to the table it was built from
    def evict(ref):
        if _KERNEL_MAPS.get(key, (None,))[0] is ref:
            _KERNEL_MAPS.pop(key, None)

    _KERNEL_MAPS[key] = (weakref.ref(table, evict), kmap)
    return kmap


def _channel_parts(features, neighbors: NeighborTable, filt: DeformableFilter, work,
                   threads: int = 1):
    """(i, rows, pairs, work(i, rows, pairs, keys, S)) for every part of
    the full operator, in part order.

    A part is one input channel i of one block of queries (rows, a
    slice); pairs slices its kernel-map pairs and keys (8, pairs) holds
    their corner keys (block-local query * k^3 + anchor), formed once per
    block. S (block queries, k^3) is channel i's anchor sums,

        S[q, a] = sum over the (pair, corner)s of q at anchor a of
                  trilinear weight * f_i(neighbour),

    one bincount adding in ascending (corner, pair) order. Blocks are cut
    so that keys, the (8, pairs) values and S each hold at most the block
    budget (``spatial._spans``). With threads > 1 a block's channels run
    on a thread pool; results are still yielded in part order, so callers
    that add them in that order get bit-identical sums for any thread
    count.
    """
    starts, nbr, ids, w = _kernel_map(neighbors, filt.grid)
    num_anchors = filt.grid.num_anchors

    def run(part):
        i, (rows, pairs, keys) = part
        vals = w[:, pairs] * features[nbr[pairs], i]
        size = (rows.stop - rows.start) * num_anchors
        s = np.bincount(keys.ravel(), vals.ravel(), minlength=size).reshape(-1, num_anchors)
        return i, rows, pairs, work(i, rows, pairs, keys, s)

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for q0, q1 in spatial._spans(8 * starts, num_anchors):
            rows, pairs = slice(q0, q1), slice(starts[q0], starts[q1])
            local = np.arange(q1 - q0) * num_anchors
            keys = np.repeat(local, np.diff(starts[q0:q1 + 1])) + ids[:, pairs]
            parts = [(i, (rows, pairs, keys)) for i in range(filt.in_dim)]
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
    """Fast-path convolution of an (M, D') feature matrix; one output
    row per query.

    One part per (query block, input channel i): channel i's anchor sums
    S_i from the kernel map, contracted with anchor weights[:, i, :] and
    added into the block's rows, h[q] = sum_{i,a} S_i[q, a] *
    weights[a, i, :] (+ bias). threads > 1 runs the parts on a pool.
    """
    features, _ = _check_args(features, neighbors, filt)
    out = np.zeros((neighbors.num_queries, filt.out_dim))

    def work(i, rows, pairs, keys, s):
        return s @ filt.weights[:, i]

    for _, rows, _, h in _channel_parts(features, neighbors, filt, work, threads):
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * forward) w.r.t. features, weights, bias.

    Runs the forward pass's parts again. Per part (query block, input
    channel i): grad_weights[:, i] gains S_i^T @ upstream; each pair
    blends (upstream @ weights[:, i, :]^T) of its query over its corners,
    and one bincount over neighbour ids adds those into grad_features[:,
    i]. grad_bias is the column sum of upstream. Parts add in a fixed
    order, so repeated runs are bit-identical.
    """
    features, up = _check_args(features, neighbors, filt, upstream)
    _, nbr, _, w = _kernel_map(neighbors, filt.grid)
    grad_f = np.zeros_like(features)
    grad_w = np.zeros_like(filt.weights)

    def work(i, rows, pairs, keys, s):
        # dL/dS_i[q, a] = up[q] . weights[a, i, :], read at each pair's corners
        dsum = (up[rows] @ filt.weights[:, i].T).ravel()
        return s.T @ up[rows], np.einsum("cp,cp->p", w[:, pairs], dsum.take(keys))

    for i, _, pairs, (gw, g) in _channel_parts(features, neighbors, filt, work):
        grad_w[:, i] += gw
        grad_f[:, i] += np.bincount(nbr[pairs], g, minlength=features.shape[0])
    return grad_f, grad_w, up.sum(axis=0)


def forward_separable_features(
    features: np.ndarray, neighbors: NeighborTable, sf: SeparableFilter
) -> np.ndarray:
    """Separable convolution: per-channel spatial aggregation
    m[y, i] = sum_{x in N(y)} ghat1_i(y - x) * f_i(x), then the
    pointwise map m @ pointwise (+ bias).

    One block of queries at a time, cut like the full operator's blocks
    with the wider of m's and the output's rows in place of k^3, and one
    input channel i at a time within it: ghat1_i of every pair blends
    spatial[:, i] over the pair's corners, m[:, i] sums over each
    query's pairs in stored order (bit-identical runs), and the block's
    m @ pointwise fills its output rows. Corners blend one at a time, so
    no temporary exceeds one block's (pairs,) row.
    """
    features, _ = _check_args(features, neighbors, sf)
    starts, nbr, ids, w = _kernel_map(neighbors, sf.grid)
    out = np.empty((neighbors.num_queries, sf.out_dim))
    for q0, q1 in spatial._spans(8 * starts, max(sf.in_dim, sf.out_dim)):
        pairs = slice(starts[q0], starts[q1])
        qid = np.repeat(np.arange(q1 - q0, dtype=np.int64), np.diff(starts[q0:q1 + 1]))
        m = np.empty((q1 - q0, sf.in_dim))
        for i, column in enumerate(sf.spatial.T):
            g = _blend(w[:, pairs], ids[:, pairs], column)
            m[:, i] = np.bincount(qid, weights=g * features[nbr[pairs], i], minlength=q1 - q0)
        out[q0:q1] = m @ sf.pointwise
    if sf.bias is not None:
        out += sf.bias
    return out


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
        g = _blend(w, ids, column)
        f = features[nbr, i]
        m_i = np.bincount(qid, weights=g * f, minlength=q)
        grad_p[i] = m_i @ up
        u = (up @ sf.pointwise[i])[qid]  # dL/dm[:, i] at each pair's query
        grad_f[:, i] = np.bincount(nbr, weights=g * u, minlength=features.shape[0])
        # dL/dspatial[a, i] sums w * f * u over the (pair, corner)s at anchor a
        fu = f * u
        grad_s[:, i] = sum(np.bincount(ids[c], w[c] * fu, minlength=sf.grid.num_anchors)
                           for c in range(8))
    return grad_f, grad_s, grad_p, up.sum(axis=0)
