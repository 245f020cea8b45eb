"""Reference methods the deformable operator is measured against.

Two baselines:

  * continuous filters parameterised by a small MLP over the offset
    (one weight per channel per pair, then a pointwise map), and
  * voxelise-extend-restrict: average features into a fixed voxel grid,
    then read each point's cell value back.

The voxel path is the contrast case: any displacement that stays inside
a cell is invisible to it, and shifting a cloud across cell boundaries
changes its output, while the deformable operator tracks both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conv, nn
from .pointcloud import PointCloud
from .rng import DetRng
from .spatial import NeighborTable, build_index, radius_neighbors


def _scatter_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, C) sums of the rows of values (P, C) into rows index (P,): one
    bincount per column, adding in ascending row order (bit-identical runs)."""
    out = np.empty((n, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out


@dataclass(frozen=True)
class MlpFilter:
    """Offset -> per-channel filter weight, as a tiny dense network.

    Input is the 3-vector offset; hidden layers use ReLU; the final
    layer is linear and emits one weight per input feature channel.
    ``layers`` holds (W, b) pairs applied left to right.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("MlpFilter needs at least one layer")
        prev = 3
        frozen = []
        for i, (w, b) in enumerate(self.layers):
            w = np.array(w, dtype=np.float64, copy=True)
            b = np.array(b, dtype=np.float64, copy=True).reshape(-1)
            if w.ndim != 2 or w.shape[0] != prev or b.shape[0] != w.shape[1]:
                raise ValueError(f"MLP layer {i}: bad shapes {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"MLP layer {i}: non-finite parameters")
            w.setflags(write=False)
            b.setflags(write=False)
            frozen.append((w, b))
            prev = w.shape[1]
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[1]


def mlp_filter_init(hidden: list[int], out_dim: int, rng: DetRng) -> MlpFilter:
    """He-initialised MlpFilter with the given hidden widths."""
    dims = [3] + list(hidden) + [out_dim]
    layers = []
    for a, b in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / a)
        w = rng.normals(a * b, 0.0, scale).reshape(a, b)
        layers.append((w, np.zeros(b)))
    return MlpFilter(tuple(layers))


def mlp_eval(filt: MlpFilter, offsets: np.ndarray) -> np.ndarray:
    """Evaluate the filter network on a batch of offsets: (P, out_dim)."""
    x = np.asarray(offsets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"offsets must be (P, 3), got {x.shape}")
    return _mlp_tape(filt, x)[-1]


def _mlp_tape(filt: MlpFilter, offsets: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every pre-activation input for backprop."""
    acts = [np.asarray(offsets, dtype=np.float64)]
    n = len(filt.layers)
    for i, (w, b) in enumerate(filt.layers):
        x = acts[-1] @ w + b
        if i < n - 1:
            x = np.maximum(x, 0.0)
        acts.append(x)
    return acts


def _mlp_backward(
    filt: MlpFilter, acts: list[np.ndarray], upstream: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of the MLP parameters given d(loss)/d(output)."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(filt.layers)
    grad = upstream
    for i in range(len(filt.layers) - 1, -1, -1):
        w, _ = filt.layers[i]
        if i < len(filt.layers) - 1:
            grad = np.where(acts[i + 1] > 0, grad, 0.0)
        grads[i] = (acts[i].T @ grad, grad.sum(axis=0))
        grad = grad @ w.T
    return grads


def _pcc_aggregate(
    filt: MlpFilter, neighbors: NeighborTable, feats: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query sums m of w_mlp(offset) * f(neighbour), and the pair
    weights w, as (Q, D') and (P, D')."""
    w = mlp_eval(filt, neighbors.offsets)
    qid = np.repeat(np.arange(neighbors.num_queries, dtype=np.int64), neighbors.counts)
    m = _scatter_rows(qid, w * feats[neighbors.indices], neighbors.num_queries)
    return m, w


def pcc_forward(
    cloud: PointCloud,
    neighbors: NeighborTable,
    filt: MlpFilter,
    pointwise: np.ndarray,
) -> np.ndarray:
    """Continuous-filter convolution with MLP-parameterised weights:

    h(y) = pointwise^T sum_{x in N(y)} w_mlp(y - x) * f(x)

    (elementwise product over channels inside the sum)."""
    pw = np.asarray(pointwise, dtype=np.float64)
    f = cloud.features
    if filt.out_dim != f.shape[1]:
        raise ValueError(
            f"filter emits {filt.out_dim} channel weights, features have {f.shape[1]}"
        )
    if pw.ndim != 2 or pw.shape[0] != f.shape[1]:
        raise ValueError(f"pointwise must be ({f.shape[1]}, D), got {pw.shape}")
    return _pcc_aggregate(filt, neighbors, f)[0] @ pw


class PccLayer(nn.Layer):
    """Trainable continuous-filter conv layer (MLP filter + pointwise)."""

    kind = "pcc"

    def __init__(self, radius: float, cap: int, filt: MlpFilter, pointwise, bias):
        super().__init__(*(a for wb in filt.layers for a in wb), pointwise, bias)
        self.radius, self.cap = float(radius), int(cap)
        *self.mlp_params, self.pointwise, self.bias = self.params()

    def _filter(self) -> MlpFilter:
        return MlpFilter(tuple(zip(self.mlp_params[::2], self.mlp_params[1::2])))

    def out_channels(self, in_channels: int) -> int:
        return self._expect_channels(in_channels, *self.pointwise.shape)

    def forward(self, feats, ctx):
        self._feats = feats
        table = ctx.table_for(self.radius, self.cap)
        self._m, self._w = _pcc_aggregate(self._filter(), table, feats)
        return self._m @ self.pointwise + self.bias

    def backward(self, upstream, ctx):
        table = ctx.table_for(self.radius, self.cap)
        feats = self._feats
        grad_m = upstream @ self.pointwise.T  # (Q, D')
        qid = np.repeat(np.arange(table.num_queries, dtype=np.int64), table.counts)
        gm_pairs = grad_m[qid]  # (P, D')
        grad_f = _scatter_rows(table.indices, self._w * gm_pairs, feats.shape[0])
        filt = self._filter()
        acts = _mlp_tape(filt, table.offsets)
        mlp_grads = _mlp_backward(filt, acts, feats[table.indices] * gm_pairs)
        self._accumulate(
            *(g for wb in mlp_grads for g in wb), self._m.T @ upstream, upstream.sum(axis=0)
        )
        return grad_f


def _cells(positions: np.ndarray, pitch: float) -> np.ndarray:
    """World cell of each point, floor(position / pitch): the one binning
    of the voxel grid, of restrict and of the voxel layer."""
    return np.floor(positions / pitch).astype(np.int64)


@dataclass(frozen=True)
class VoxelGrid:
    """Dense voxelisation of a cloud: mean feature and count per cell.

    Cells are cubes of side ``pitch`` anchored at absolute multiples of
    the pitch (cell of a point = floor(position / pitch)), so the grid
    is fixed in space rather than attached to the cloud. ``corner`` is
    the world cell of entry (0,0,0) of the stored array; empty cells
    hold zeros.
    """

    corner: np.ndarray  # (3,) int64
    pitch: float
    features: np.ndarray  # (nx, ny, nz, D')
    counts: np.ndarray  # (nx, ny, nz) int64

    def __post_init__(self):
        for name, dtype in (("corner", np.int64), ("features", np.float64), ("counts", np.int64)):
            a = np.array(getattr(self, name), dtype=dtype, copy=True)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        f, c = self.features, self.counts
        if self.corner.shape != (3,) or f.ndim != 4 or c.shape != f.shape[:3]:
            raise ValueError("need a (3,) corner, (nx,ny,nz,D') features and matching counts")
        if not (self.pitch > 0 and np.isfinite(self.pitch)):
            raise ValueError("pitch must be positive and finite")

    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Index into the stored array of each position's cell."""
        return _cells(positions, self.pitch) - self.corner


def voxelize_extend(cloud: PointCloud, pitch: float, margin: int = 1) -> VoxelGrid:
    """Average the cloud's features into a world-anchored voxel grid.

    The stored array covers the occupied cell range plus ``margin``
    empty cells on every side (so slightly displaced clouds still fall
    inside the same grid).
    """
    if not (pitch > 0 and np.isfinite(pitch)):
        raise ValueError("pitch must be positive and finite")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    cells = _cells(cloud.positions, pitch)
    cmin = cells.min(axis=0) - margin
    cmax = cells.max(axis=0) + margin
    dims = cmax - cmin + 1
    total = int(dims[0]) * int(dims[1]) * int(dims[2])
    if total > 100_000_000:
        raise ValueError(f"voxel grid would hold {total} cells; pitch too small")
    rel = cells - cmin
    flat = (rel[:, 0] * dims[1] + rel[:, 1]) * dims[2] + rel[:, 2]
    d = cloud.feature_dim
    sums = _scatter_rows(flat, cloud.features, total)
    counts = np.bincount(flat, minlength=total).astype(np.int64)
    feats = np.zeros_like(sums)
    occupied = counts > 0
    feats[occupied] = sums[occupied] / counts[occupied, None]
    return VoxelGrid(
        corner=cmin,
        pitch=float(pitch),
        features=feats.reshape(int(dims[0]), int(dims[1]), int(dims[2]), d),
        counts=counts.reshape(int(dims[0]), int(dims[1]), int(dims[2])),
    )


def restrict(grid: VoxelGrid, cloud: PointCloud) -> np.ndarray:
    """Read each point's cell value back from the grid: (M, D').

    A point whose cell lies outside the stored array is an error: the
    grid does not extend to it.
    """
    cells = grid.cell_of(cloud.positions)
    dims = np.array(grid.features.shape[:3], dtype=np.int64)
    bad = np.any((cells < 0) | (cells >= dims), axis=1)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"point {i} at {cloud.positions[i].tolist()} falls outside the voxel grid"
        )
    return grid.features[cells[:, 0], cells[:, 1], cells[:, 2]]


class VoxelConvLayer(nn.Layer):
    """Voxelise-extend-restrict, then a pointwise map, as one layer.

    Every point receives the mean feature of its cell (the cells of
    voxelize_extend), mapped by ``weights`` and ``bias``. The cell-mean
    operator is symmetric, so it is its own adjoint: each cell's
    incoming gradient is spread uniformly back over its points.
    """

    kind = "voxel"

    def __init__(self, pitch: float, weights, bias):
        if not (pitch > 0 and np.isfinite(pitch)):
            raise ValueError("pitch must be positive and finite")
        super().__init__(weights, bias)
        self.pitch = float(pitch)
        self.weights, self.bias = self.params()

    def out_channels(self, in_channels: int) -> int:
        return self._expect_channels(in_channels, *self.weights.shape)

    def forward(self, feats, ctx):
        cells = _cells(ctx.cloud.positions, self.pitch)
        _, self._inv = np.unique(cells, axis=0, return_inverse=True)
        self._counts = np.bincount(self._inv).astype(np.float64)
        self._mean = self._cell_mean(feats)
        return self._mean @ self.weights + self.bias

    def backward(self, upstream, ctx):
        self._accumulate(self._mean.T @ upstream, upstream.sum(axis=0))
        return self._cell_mean(upstream @ self.weights.T)

    def _cell_mean(self, x: np.ndarray) -> np.ndarray:
        sums = _scatter_rows(self._inv, x, self._counts.shape[0])
        return sums[self._inv] / self._counts[self._inv, None]


@dataclass(frozen=True)
class SubvoxelReport:
    """Output deltas after a within-cell displacement of one point."""

    voxel_path_diff: float
    deform_path_diff: float


def subvoxel_discrimination(pitch: float, displacement: float, seed: int) -> SubvoxelReport:
    """Move one point inside its voxel; measure what each method notices.

    Builds a random cloud, picks a point that can move +x by
    ``displacement`` without leaving its cell, and compares outputs on
    the original and displaced clouds:

      * voxel path: voxelise at ``pitch`` then restrict (diff is 0, the
        cell contents never change),
      * deformable path: random filter with anchor spacing = pitch
        (diff is nonzero, the offsets moved).

    Raises if the displacement cannot avoid a boundary crossing.
    """
    if not (pitch > 0 and np.isfinite(pitch)):
        raise ValueError("pitch must be positive and finite")
    if displacement < 0 or displacement >= pitch:
        raise ValueError("displacement must lie in [0, pitch)")
    rng = DetRng(seed)
    m, d = 64, 2
    # Domain scales with pitch so points land within each other's filter
    # support (per-axis reach 2 * pitch for the k=3 grid below); a sparse
    # cloud would let the deformable path miss the displacement entirely.
    half = 2.0 * pitch
    pos = rng.uniforms(3 * m, -half, half).reshape(m, 3)
    feats = rng.uniforms(m * d, -1.0, 1.0).reshape(m, d)
    base = PointCloud(pos, feats)

    # headroom to the +x face of each point's cell
    room = pitch - (pos[:, 0] - pitch * np.floor(pos[:, 0] / pitch))
    target = int(np.argmax(room))
    if displacement >= room[target]:
        raise ValueError(
            f"displacement {displacement} crosses a cell boundary for every point"
        )
    moved_pos = pos.copy()
    moved_pos[target, 0] += displacement
    moved = PointCloud(moved_pos, feats)

    grid_a = voxelize_extend(base, pitch)
    grid_b = voxelize_extend(moved, pitch)
    vox_a = restrict(grid_a, base)
    vox_b = restrict(grid_b, moved)
    voxel_diff = float(np.max(np.abs(vox_a - vox_b))) if vox_a.size else 0.0

    grid = conv.grid_from_spacing(3, pitch)
    radius = conv.default_radius(grid)
    weights = rng.normals(grid.num_anchors * d * d).reshape(grid.num_anchors, d, d)
    filt = conv.DeformableFilter(grid, weights)
    out = []
    for cl in (base, moved):
        table = radius_neighbors(build_index(cl.positions, radius), cl.positions, radius, 16)
        out.append(conv.forward(cl, table, filt))
    deform_diff = float(np.max(np.abs(out[0] - out[1])))
    return SubvoxelReport(voxel_path_diff=voxel_diff, deform_path_diff=deform_diff)
