"""Reference methods the deformable operator is measured against.

Two baselines, each a spatial aggregation wrapped around nn's own
layers, so their maps and gradients are nn.LinearLayer's and
nn.ReluLayer's:

  * parametric continuous convolution (Wang et al., CVPR 2018): a small
    MLP over the offset gives one weight per channel per pair, the
    weighted features are summed per query (conv._scatter_rows), then a
    pointwise map: PccLayer,
  * a voxel cell mean: each point receives the mean feature of its cell
    in a grid fixed in space (cell_mean), then a pointwise map:
    VoxelConvLayer, an nn.LinearLayer.

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
from .spatial import build_index, radius_neighbors


class PccLayer(nn.Layer):
    """Trainable continuous-filter conv layer: per pair, an MLP over the
    offset gives one weight per input channel; each query sums its
    weighted neighbour features; a pointwise map follows.

    ``mlp`` holds (W, b) pairs, applied left to right to the offset, and
    becomes nn.LinearLayers with an nn.ReluLayer between each pair; the
    pointwise map and bias are one more nn.LinearLayer. Parameters are
    stored as the MLP's (W, b) pairs, then the pointwise map and bias.
    """

    kind = "pcc"

    def __init__(self, radius: float, cap: int, mlp, pointwise, bias):
        if not mlp:
            raise ValueError("the MLP filter needs at least one layer")
        self.radius, self.cap = float(radius), int(cap)
        self.mlp: list[nn.Layer] = []
        width = 3
        for i, (w, b) in enumerate(mlp):
            lin = nn.LinearLayer(w, np.reshape(b, -1))
            w, b = lin.params()
            if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
                raise ValueError(f"MLP layer {i}: bad shapes {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"MLP layer {i}: non-finite parameters")
            self.mlp += [nn.ReluLayer(), lin] if self.mlp else [lin]
            width = w.shape[1]
        self.head = nn.LinearLayer(pointwise, bias)
        self.mlp_params = [p for l in self.mlp for p in l.params()]
        self.pointwise, self.bias = self.head.params()
        if self.pointwise.ndim != 2 or self.pointwise.shape[0] != width:
            raise ValueError(f"filter emits {width} channel weights, "
                             f"pointwise map is {self.pointwise.shape}")
        self._params = [*self.mlp_params, self.pointwise, self.bias]
        self._grads = [g for l in (*self.mlp, self.head) for g in l.grads()]

    def out_channels(self, in_channels: int) -> int:
        return self.head.out_channels(in_channels)

    def forward(self, feats, ctx):
        table = ctx.table_for(self.radius, self.cap)
        w = table.offsets
        for layer in self.mlp:
            w = layer.forward(w, ctx)
        self._feats, self._w = feats, w  # (M, D'), (P, D')
        self._qid = np.repeat(np.arange(table.num_queries, dtype=np.int64), table.counts)
        m = conv._scatter_rows(self._qid, w * feats[table.indices], table.num_queries)
        return self.head.forward(m, ctx)

    def backward(self, upstream, ctx, *, input_grad=True):
        table = ctx.table_for(self.radius, self.cap)
        gm_pairs = self.head.backward(upstream, ctx)[self._qid]  # dL/dm at each pair
        grad = self._feats[table.indices] * gm_pairs
        for layer in reversed(self.mlp[1:]):
            grad = layer.backward(grad, ctx)
        self.mlp[0].backward(grad, ctx, input_grad=False)  # nothing reads dL/d(offsets)
        if not input_grad:
            return None
        return conv._scatter_rows(table.indices, self._w * gm_pairs, self._feats.shape[0])


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
    return conv._scatter_rows(inv, values, counts.shape[0])[inv] / counts[inv, None]


class VoxelConvLayer(nn.LinearLayer):
    """Voxel cell mean, then the linear layer's pointwise map.

    Every point receives the mean feature of its cell (cell_mean), mapped
    by ``weights`` and ``bias``. The cell mean is its own adjoint: each
    cell's incoming gradient is spread uniformly back over its points.
    """

    kind = "voxel"

    def __init__(self, pitch: float, weights, bias):
        self.pitch = _checked_pitch(pitch)
        super().__init__(weights, bias)

    def forward(self, feats, ctx):
        return super().forward(cell_mean(ctx.positions, feats, self.pitch), ctx)

    def backward(self, upstream, ctx, *, input_grad=True):
        grad = super().backward(upstream, ctx, input_grad=input_grad)
        return None if grad is None else cell_mean(ctx.positions, grad, self.pitch)


def _in_place_of_conv(record: nn.LayerType) -> dict[str, nn.LayerType]:
    """nn.LAYER_TYPES with ``record`` building both conv layer types."""
    return {**nn.LAYER_TYPES, "deformable": record, "separable": record}


def pcc_types(hidden: list[int]) -> dict[str, nn.LayerType]:
    """Layer types of the MLP-filter baseline stack: each conv layer is a
    PccLayer with the spec's radius and cap, whose MLP has the given
    hidden widths. Its arrays are the MLP's (W, b) pairs, He-initialised,
    then the pointwise map and the bias. An empty ``hidden`` gives a
    one-layer MLP; a width below 1 is a ValueError."""
    if any(n < 1 for n in hidden):
        raise ValueError(f"hidden widths must be >= 1, got {hidden}")

    def arrays(spec):
        dims = [3, *hidden, spec["in"]]
        mlp = [a for n_in, n_out in zip(dims[:-1], dims[1:])
               for a in (((n_in, n_out), np.sqrt(2.0 / n_in)), ((n_out,), None))]
        return mlp + [((spec["in"], spec["out"]), np.sqrt(1.0 / spec["in"])),
                      ((spec["out"],), None)]

    def build(spec, params):
        geom, (*mlp, pointwise, bias) = nn.conv_spec(spec), params
        return PccLayer(geom.radius, geom.cap, list(zip(mlp[::2], mlp[1::2])), pointwise, bias)

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


def check_subvoxel(pitch: float, displacement: float) -> None:
    """The sub-voxel probe's settings: a positive, finite pitch and a
    displacement in [0, pitch); a ValueError says which rule fails."""
    _checked_pitch(pitch)
    if displacement < 0 or displacement >= pitch:
        raise ValueError("displacement must lie in [0, pitch)")


def subvoxel_discrimination(pitch: float, displacement: float, seed: int) -> SubvoxelReport:
    """Move one point inside its voxel; measure what each method notices.

    Builds a random cloud, picks a point that can move +x by
    ``displacement`` without leaving its cell, and compares outputs on
    the original and displaced clouds:

      * voxel path: cell mean at ``pitch`` (diff is 0, the cell contents
        never change),
      * deformable path: random filter with anchor spacing = pitch
        (diff is nonzero, the offsets moved).

    Raises if check_subvoxel does, or if the displacement cannot avoid a
    boundary crossing.
    """
    check_subvoxel(pitch, displacement)
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
