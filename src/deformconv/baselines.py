"""Reference methods the deformable operator is measured against.

Two baselines, each with one implementation:

  * continuous filters parameterised by a small MLP over the offset
    (one weight per channel per pair, then a pointwise map): PccLayer,
  * a voxel cell mean: each point receives the mean feature of its cell
    in a grid fixed in space (cell_mean), then a pointwise map:
    VoxelConvLayer.

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


class PccLayer(nn.Layer):
    """Trainable continuous-filter conv layer (MLP filter + pointwise)."""

    kind = "pcc"

    def __init__(self, radius: float, cap: int, filt: MlpFilter, pointwise, bias):
        super().__init__(*(a for wb in filt.layers for a in wb), pointwise, bias)
        self.radius, self.cap = float(radius), int(cap)
        *self.mlp_params, self.pointwise, self.bias = self.params()
        if self.pointwise.ndim != 2 or self.pointwise.shape[0] != filt.out_dim:
            raise ValueError(f"filter emits {filt.out_dim} channel weights, "
                             f"pointwise map is {self.pointwise.shape}")

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


def _checked_pitch(pitch: float) -> float:
    if not (pitch > 0 and np.isfinite(pitch)):
        raise ValueError("pitch must be positive and finite")
    return float(pitch)


def cell_mean(positions: np.ndarray, values: np.ndarray, pitch: float) -> np.ndarray:
    """Each point's row of values (M, D') replaced by the mean of the rows
    of the points in its voxel: (M, D').

    A point's cell is floor(position / pitch), a cube anchored at absolute
    multiples of the pitch, so the grid is fixed in space rather than
    attached to the cloud. Only occupied cells are formed, so memory grows
    with the point count, not with the cloud's extent. The operator is
    symmetric, so it is its own adjoint.
    """
    cells = np.floor(positions / _checked_pitch(pitch)).astype(np.int64)
    _, inv = np.unique(cells, axis=0, return_inverse=True)
    counts = np.bincount(inv).astype(np.float64)
    return _scatter_rows(inv, values, counts.shape[0])[inv] / counts[inv, None]


class VoxelConvLayer(nn.Layer):
    """Voxel cell mean, then a pointwise map, as one layer.

    Every point receives the mean feature of its cell (cell_mean), mapped
    by ``weights`` and ``bias``. The cell mean is its own adjoint: each
    cell's incoming gradient is spread uniformly back over its points.
    """

    kind = "voxel"

    def __init__(self, pitch: float, weights, bias):
        self.pitch = _checked_pitch(pitch)
        super().__init__(weights, bias)
        self.weights, self.bias = self.params()

    def out_channels(self, in_channels: int) -> int:
        return self._expect_channels(in_channels, *self.weights.shape)

    def forward(self, feats, ctx):
        self._mean = cell_mean(ctx.cloud.positions, feats, self.pitch)
        return self._mean @ self.weights + self.bias

    def backward(self, upstream, ctx):
        self._accumulate(self._mean.T @ upstream, upstream.sum(axis=0))
        return cell_mean(ctx.cloud.positions, upstream @ self.weights.T, self.pitch)


def _in_place_of_conv(record: nn.LayerType) -> dict[str, nn.LayerType]:
    """nn.LAYER_TYPES with ``record`` building both conv layer types."""
    return {**nn.LAYER_TYPES, "deformable": record, "separable": record}


def pcc_types(hidden: list[int]) -> dict[str, nn.LayerType]:
    """Layer types of the MLP-filter baseline stack: each conv layer is a
    PccLayer with the spec's radius and cap, whose MLP has the given
    hidden widths. Its arrays are the MLP's (W, b) pairs, He-initialised,
    then the pointwise map and the bias."""

    def arrays(spec):
        dims = [3, *hidden, spec["in"]]
        mlp = [a for n_in, n_out in zip(dims[:-1], dims[1:])
               for a in (((n_in, n_out), np.sqrt(2.0 / n_in)), ((n_out,), None))]
        return mlp + [((spec["in"], spec["out"]), np.sqrt(1.0 / spec["in"])),
                      ((spec["out"],), None)]

    def build(spec, params):
        geom, (*mlp, pointwise, bias) = nn.conv_spec(spec), params
        filt = MlpFilter(tuple(zip(mlp[::2], mlp[1::2])))
        return PccLayer(geom.radius, geom.cap, filt, pointwise, bias)

    return _in_place_of_conv(nn.LayerType(nn.CONV_FIELDS, arrays, build))


def voxel_types(pitch: float) -> dict[str, nn.LayerType]:
    """Layer types of the voxel baseline stack: each conv layer is a
    VoxelConvLayer at ``pitch``, initialised like a linear layer."""
    record = nn.LayerType(nn.CONV_FIELDS, nn.LAYER_TYPES["linear"].arrays,
                          lambda spec, params: VoxelConvLayer(pitch, *params))
    return _in_place_of_conv(record)


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

      * voxel path: cell mean at ``pitch`` (diff is 0, the cell contents
        never change),
      * deformable path: random filter with anchor spacing = pitch
        (diff is nonzero, the offsets moved).

    Raises if the displacement cannot avoid a boundary crossing.
    """
    _checked_pitch(pitch)
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

    vox_a = cell_mean(base.positions, base.features, pitch)
    vox_b = cell_mean(moved.positions, moved.features, pitch)
    voxel_diff = float(np.max(np.abs(vox_a - vox_b)))

    grid = conv.grid_from_spacing(3, pitch)
    radius = conv.default_radius(grid)
    weights = rng.normals(grid.num_anchors * d * d).reshape(grid.num_anchors, d, d)
    filt = conv.DeformableFilter(grid, weights)
    out = []
    for cl in (base, moved):
        table = radius_neighbors(build_index(cl.positions, radius), cl.positions, radius, 16)
        out.append(conv.forward_features(cl.features, table, filt))
    deform_diff = float(np.max(np.abs(out[0] - out[1])))
    return SubvoxelReport(voxel_path_diff=voxel_diff, deform_path_diff=deform_diff)
