"""Reference baselines: MLP-filter continuous conv and the voxel cell mean."""
from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from deformconv import baselines, conv, nn, pointcloud
from deformconv.rng import DetRng
from conftest import fd_grad, grad_rel, neighbor_table, random_cloud, rel_err


def _mlp(seed=0, out_dim=2, hidden=(4, 4)):
    """He-initialised MLP filter (W, b) pairs with the given hidden widths."""
    rng, dims = DetRng(seed), [3, *hidden, out_dim]
    return [(rng.normals(a * b, 0.0, np.sqrt(2.0 / a)).reshape(a, b), np.zeros(b))
            for a, b in zip(dims[:-1], dims[1:])]


def _pcc(mlp, pointwise, bias=None, radius=0.7, cap=12):
    bias = np.zeros(np.shape(pointwise)[1]) if bias is None else bias
    return baselines.PccLayer(radius, cap, mlp, pointwise, bias)


def _filter_weights(layer, offsets):
    """Per-offset channel weights (P, D') of a PccLayer, read from its own
    MLP layers."""
    w = np.asarray(offsets, dtype=np.float64)
    for mlp_layer in layer.mlp:
        w = mlp_layer.forward(w, None)
    return w


class TestMlpFilter:
    # the PccLayer's MLP filter, offset -> one weight per input channel
    def test_eval_shape_and_determinism(self):
        layer = _pcc(_mlp(out_dim=3), np.eye(3))
        offs = np.random.default_rng(0).uniform(-0.5, 0.5, (10, 3))
        a = _filter_weights(layer, offs)
        assert a.shape == (10, 3)
        assert np.array_equal(a, _filter_weights(layer, offs))

    def test_nonlinear_in_offsets(self):
        # a linear map with v(0)=0 would be odd; the rectifier is not
        # (zero-bias rectifier nets are positively homogeneous, so probing
        # v(2x) vs 2 v(x) along one ray would not detect anything)
        layer = _pcc(_mlp(out_dim=1), np.eye(1))
        offs = np.array([[0.3, 0.1, -0.2], [-0.3, -0.1, 0.2]])
        vals = _filter_weights(layer, offs)
        assert abs(vals[0, 0] + vals[1, 0]) > 1e-8

    def test_zero_final_layer_gives_zero(self):
        mlp = _mlp(out_dim=2)
        w_last, b_last = mlp[-1]
        mlp[-1] = (np.zeros_like(w_last), np.zeros_like(b_last))
        layer = _pcc(mlp, np.eye(2))
        offs = np.random.default_rng(1).uniform(-0.4, 0.4, (6, 3))
        assert not np.any(_filter_weights(layer, offs))


class TestPccForward:
    # PccLayer.forward with a zero bias: h(y) = pointwise^T sum_{x in N(y)}
    # w_mlp(y - x) * f(x), the product taken channel by channel
    def _instance(self, seed=0, m=20, d_in=2, d_out=3):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, m, d_in, extent=0.5)
        mlp = _mlp(seed=seed, out_dim=d_in)
        pointwise = rng.normal(size=(d_in, d_out))
        table = neighbor_table(cloud, 0.7, 12)
        return cloud, table, mlp, pointwise

    @staticmethod
    def _forward(cloud, layer):
        return layer.forward(cloud.features, nn.LayerContext(cloud))

    def test_single_point_worked_example(self):
        pos = np.zeros((1, 3))
        feats = np.array([[2.0, -1.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=feats)
        pointwise = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        layer = _pcc(_mlp(out_dim=2), pointwise, cap=4)
        out = self._forward(cloud, layer)
        u = _filter_weights(layer, np.zeros((1, 3)))[0]
        expect = (u * feats[0]) @ pointwise
        assert np.allclose(out[0], expect, atol=1e-15)

    def test_matches_direct_reevaluation(self):
        for seed in range(4):
            cloud, table, mlp, pointwise = self._instance(seed)
            layer = _pcc(mlp, pointwise)
            out = self._forward(cloud, layer)
            expect = np.zeros_like(out)
            for q in range(table.num_queries):
                idx, offs = table.neighbors_of(q)
                acc = np.zeros(cloud.feature_dim)
                for j, off in zip(idx, offs):
                    acc += _filter_weights(layer, off[None])[0] * cloud.features[j]
                expect[q] = acc @ pointwise
            assert rel_err(out, expect) <= 1e-12

    def test_translation_and_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        cloud, _, mlp, pointwise = self._instance(6, m=24)
        layer = _pcc(mlp, pointwise)
        base = self._forward(cloud, layer)
        moved = cloud.translated(np.array([40.0, -7.0, 2.0]))
        out = self._forward(moved, layer)
        assert rel_err(out, base) <= 1e-9
        perm = rng.permutation(cloud.num_points)
        shuffled = pointcloud.PointCloud(positions=cloud.positions[perm],
                                         features=cloud.features[perm])
        out2 = self._forward(shuffled, layer)
        assert rel_err(out2, base[perm]) <= 1e-9

    def test_dim_mismatch_rejected(self):
        # the MLP emits 2 channel weights; a 1-row pointwise map takes 1 channel
        _, _, mlp, pointwise = self._instance(1)
        with pytest.raises(ValueError, match="filter emits 2 channel weights"):
            baselines.PccLayer(0.7, 12, mlp, pointwise[:1], np.zeros(3))

    @pytest.mark.parametrize("edit,message", [
        (lambda mlp: [], "needs at least one layer"),
        (lambda mlp: [(np.ones((2, 4)), np.zeros(4))] + mlp[1:], r"MLP layer 0: bad shapes"),
        (lambda mlp: mlp[:1] + [(np.ones((3, 4)), np.zeros(4))] + mlp[2:],
         r"MLP layer 1: bad shapes \(3, 4\), \(4,\)"),
        (lambda mlp: mlp[:2] + [(mlp[2][0], np.zeros(3))], r"MLP layer 2: bad shapes"),
        (lambda mlp: [(np.full((3, 4), np.nan), np.zeros(4))] + mlp[1:],
         "MLP layer 0: non-finite parameters"),
        (lambda mlp: mlp[:2] + [(mlp[2][0], np.array([0.0, np.inf]))],
         "MLP layer 2: non-finite parameters"),
    ], ids=["no-layer", "first-rows", "unchained", "bias-width", "nan-weight", "inf-bias"])
    def test_constructor_rejections(self, edit, message):
        _, _, mlp, pointwise = self._instance(1)
        with pytest.raises(ValueError, match=message):
            baselines.PccLayer(0.7, 12, edit(mlp), pointwise, np.zeros(3))


class TestPccLayerGradients:
    @pytest.mark.parametrize("hidden", [(), (4,), (4, 4)], ids=["no-hidden", "4", "4-4"])
    def test_gradcheck(self, hidden):
        # the MLP gets nonzero biases here: self-pairs feed it the zero
        # offset, and with zero biases every hidden unit would sit exactly
        # on its rectifier kink, where finite differences disagree with
        # any one-sided derivative by construction
        rng = np.random.default_rng(2)
        m = 8
        cloud = pointcloud.PointCloud(
            positions=rng.uniform(-0.4, 0.4, (m, 3)),
            features=rng.normal(size=(m, 2)),
            labels=rng.integers(0, 2, m))
        mlp = [(w.copy(), rng.normal(size=b.shape) * 0.3)
               for w, b in _mlp(seed=3, out_dim=2, hidden=hidden)]
        layer = baselines.PccLayer(0.7, 6, mlp,
                                   rng.normal(size=(2, 2)),
                                   rng.normal(size=2))
        assert len(layer.mlp) == 2 * len(hidden) + 1  # a ReluLayer between each pair
        ctx = nn.LayerContext(cloud)
        up = rng.normal(size=(m, 2))
        feats = cloud.features.copy()

        def loss():
            return float(np.sum(layer.forward(feats, ctx) * up))

        layer.zero_grads()
        layer.forward(feats, ctx)
        down = layer.backward(up, ctx)
        for p, g in zip(layer.params(), layer.grads()):
            assert grad_rel(g, fd_grad(loss, p)) <= 1e-6
        assert grad_rel(down, fd_grad(loss, feats)) <= 1e-6


class TestVoxelize:
    def test_one_point_one_cell(self):
        out = baselines.cell_mean(np.array([[0.05, 0.25, -0.15]]), np.array([[7.0]]), 0.2)
        assert np.array_equal(out, [[7.0]])

    def test_same_cell_mean(self):
        pos = np.array([[0.05, 0.05, 0.05], [0.15, 0.05, 0.05]])
        out = baselines.cell_mean(pos, np.array([[1.0], [3.0]]), 0.2)
        assert np.array_equal(out, [[2.0], [2.0]])

    def test_within_cell_move_identical_grids(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0.01, 0.19, (12, 3)) + rng.integers(0, 3, (12, 3)) * 0.2
        feats = rng.normal(size=(12, 2))
        moved = pos.copy()
        moved[5] = moved[5] + np.array([0.004, -0.003, 0.002])  # stays in cell
        assert np.array_equal(baselines.cell_mean(pos, feats, 0.2),
                              baselines.cell_mean(moved, feats, 0.2))

    def test_identity_one_point_per_cell(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.5, 0.1, 0.1], [0.1, 0.7, 0.3]])
        feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(baselines.cell_mean(pos, feats, 0.2), feats)

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 40, 3, extent=0.9)
        got = baselines.cell_mean(cloud.positions, cloud.features, 0.25)
        cells = np.floor(cloud.positions / 0.25)
        for i in range(40):
            same = np.all(cells == cells[i], axis=1)
            assert np.allclose(got[i], cloud.features[same].mean(axis=0), rtol=0, atol=1e-15)

    def test_pitch_validated(self):
        for pitch in (0.0, -0.2, np.inf, np.nan):
            with pytest.raises(ValueError, match="pitch must be positive and finite"):
                baselines.cell_mean(np.zeros((1, 3)), np.ones((1, 1)), pitch)

    def test_memory_grows_with_points_not_extent(self):
        # 20,000 points 60 m wide at a 0.05 m pitch span about 1.7e9 cells;
        # only the occupied ones may be formed
        rng = np.random.default_rng(11)
        pos = rng.uniform(-30.0, 30.0, (20_000, 3))
        feats = rng.normal(size=(20_000, 2))
        tracemalloc.start()
        try:
            out = baselines.cell_mean(pos, feats, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == feats.shape
        assert peak <= 8 * (pos.nbytes + feats.nbytes)


class TestVoxelNotTranslationEquivariant:
    def test_constructive_boundary_crossing(self):
        # two points share a cell; a +0.1 shift along x splits them,
        # changing their cell means. The deformable path moves
        # with the cloud and stays put.
        pos = np.array([[0.04, 0.05, 0.05], [0.16, 0.05, 0.05]])
        feats = np.array([[1.0], [3.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=feats)
        shift = np.array([0.1, 0.0, 0.0])
        moved = cloud.translated(shift)

        base = baselines.cell_mean(cloud.positions, feats, 0.2)
        after = baselines.cell_mean(moved.positions, feats, 0.2)
        assert float(np.max(np.abs(after - base))) > 0.5  # mean 2.0 splits to 1 and 3

        filt = conv.DeformableFilter(
            grid=conv.grid_from_spacing(3, 0.2),
            weights=np.random.default_rng(0).normal(size=(27, 1, 1)))
        r = conv.default_radius(filt.grid)
        a = conv.forward_features(feats, neighbor_table(cloud, r, 8), filt)
        b = conv.forward_features(feats, neighbor_table(moved, r, 8), filt)
        assert rel_err(b, a) <= 1e-9


class TestVoxelConvLayer:
    def test_forward_equals_cell_mean(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 30, 2, extent=0.8)
        layer = baselines.VoxelConvLayer(0.2, np.eye(2), np.zeros(2))
        got = layer.forward(cloud.features, nn.LayerContext(cloud))
        assert np.array_equal(got, baselines.cell_mean(cloud.positions, cloud.features, 0.2))

    def test_points_on_pitch_multiples(self):
        # x / 0.2 rounds below an integer for some multiples of 0.2 (a
        # point at x = -1.8 is binned in cell -10), so the cell mean must
        # bin with the same floor(x / pitch) as the oracle below
        ticks = np.arange(-40, 41) / 5.0
        rng = np.random.default_rng(12)
        for x in ticks:
            lone = pointcloud.PointCloud(positions=np.array([[x, -x, 0.0]]),
                                         features=np.array([[x + 1.0]]))
            assert np.array_equal(
                baselines.cell_mean(lone.positions, lone.features, 0.2), lone.features)
        pos = np.stack([ticks, ticks[::-1], np.roll(ticks, 7)], axis=1)
        cloud = pointcloud.PointCloud(positions=pos, features=rng.normal(size=(81, 2)))
        got = baselines.cell_mean(pos, cloud.features, 0.2)
        cells = np.floor(pos / 0.2)
        for i in range(81):
            same = np.all(cells == cells[i], axis=1)
            assert np.allclose(got[i], cloud.features[same].mean(axis=0), rtol=0, atol=1e-15)
        layer = baselines.VoxelConvLayer(0.2, np.eye(2), np.zeros(2))
        assert np.array_equal(layer.forward(cloud.features, nn.LayerContext(cloud)), got)

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 10, 2, extent=0.5)
        layer = baselines.VoxelConvLayer(0.2, rng.normal(size=(2, 3)), rng.normal(size=3))
        ctx = nn.LayerContext(cloud)
        feats = cloud.features.copy()
        up = rng.normal(size=(10, 3))

        def loss():
            return float(np.sum(layer.forward(feats, ctx) * up))

        layer.zero_grads()
        layer.forward(feats, ctx)
        down = layer.backward(up, ctx)
        for p, g in zip(layer.params(), layer.grads()):
            assert grad_rel(g, fd_grad(loss, p)) <= 1e-6
        assert grad_rel(down, fd_grad(loss, feats)) <= 1e-6


class TestBaselineStacks:
    # a conv layer with skip = 1 wraps the baseline layer that replaces it
    # in a ConcatSkipLayer
    SPECS = [
        {"type": "deformable", "in": 2, "out": 3, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 6, "skip": 1},
        {"type": "relu"},
        {"type": "linear", "in": 5, "out": 2, "skip": 0},
    ]

    @pytest.mark.parametrize("method,inner", [
        ("pcc", baselines.PccLayer), ("voxel", baselines.VoxelConvLayer)])
    def test_skip_stack_gradcheck(self, method, inner):
        types = {"pcc": baselines.pcc_types([4]), "voxel": baselines.voxel_types(0.2)}[method]
        stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(3), types=types)
        assert isinstance(stack.layers[0], nn.ConcatSkipLayer)
        assert isinstance(stack.layers[0].inner, inner)
        rng = np.random.default_rng(13)
        # nonzero MLP biases keep hidden units off their kink at the
        # zero self-offset (see TestPccLayerGradients)
        for p in stack.parameters():
            p[...] = rng.normal(size=p.shape) * 0.5
        cloud = random_cloud(rng, 10, 2, extent=0.4)
        ctx = nn.LayerContext(cloud)
        feats = cloud.features.copy()
        up = rng.normal(size=(10, 2))

        def loss():
            x = feats
            for layer in stack.layers:
                x = layer.forward(x, ctx)
            return float(np.sum(x * up))

        stack.zero_grads()
        loss()
        down = stack.backward(up, ctx)
        assert len(stack.parameters()) == len(stack.gradients()) > 2
        for p, g in zip(stack.parameters(), stack.gradients()):
            assert grad_rel(g, fd_grad(loss, p)) <= 1e-6
        assert grad_rel(down, fd_grad(loss, feats)) <= 1e-6


def _trained_digest(types) -> str:
    """sha256 of a seeded baseline stack's parameters after 3 epochs on
    four 64-point two-surfaces clouds. The second conv layer's input
    gradient trains the first, so every backward output is in the bits."""
    specs = [
        {"type": "deformable", "in": 2, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0},
        {"type": "relu"},
        {"type": "deformable", "in": 4, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 1},
        {"type": "relu"},
        {"type": "linear", "in": 8, "out": 2, "skip": 0},
    ]
    stack = nn.build_stack(specs, "segmentation", rng=DetRng(5), types=types)
    nn.train_stack(stack, pointcloud.synth_dataset("two-surfaces-seg", 4, 64, 0.01, 3),
                   lr=1e-2, weight_decay=5e-4, epochs=3, batch_size=2, rng=DetRng(6))
    return hashlib.sha256(nn.flatten_params(stack).astype("<f8").tobytes()).hexdigest()


class TestPinnedTraining:
    """Trained baseline parameters, bit for bit (numpy 2.4 with its
    bundled OpenBLAS, the same at one and two BLAS threads). The voxel
    digest was recorded when each baseline had its own MLP and
    linear-head code, and building the baselines from nn's layers kept
    it; its stack searches nothing, so it runs in the cloud's order. The
    PCC digests were re-recorded when stacks began to run in the
    context's cell order, in which the weight gradients sum over the
    queries. A different BLAS may round its products differently;
    re-record the digests there only after the gradchecks above pass."""

    DIGESTS = {
        "pcc-no-hidden":
            "d59a2b9c6924200ad7ffe4f40cf0d531a57415fa5db75a59c51b0f1361f93b37",
        "pcc-4":
            "3bf02d9b357d8a30cba2facaaeedad85dcf7ebdc02f89db93b0d3cff6c03d125",
        "pcc-4-4":
            "55b91a823fc74c91ed483612cdeb5a21f6c2ade5182d24f38c26afa7a34f2194",
        "voxel":
            "161a3f6d561d5e07559f5138a29f80a8e8ef9662e7349adeb30dbfa5502f0fa9",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_trained_parameters(self, name):
        hidden = {"pcc-no-hidden": [], "pcc-4": [4], "pcc-4-4": [4, 4]}
        types = baselines.pcc_types(hidden[name]) if name in hidden else baselines.voxel_types(0.2)
        assert _trained_digest(types) == self.DIGESTS[name]


class TestTrainingInputGradient:
    """train_stack asks a baseline stack's first layer for no input
    gradient: the voxel layer then runs no cell mean on it, the PCC layer
    no final scatter, and each returns None."""

    SPECS = [
        {"type": "deformable", "in": 2, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 4, "out": 2, "skip": 0},
    ]

    @pytest.mark.parametrize("method,spied", [
        ("pcc", (conv, "_scatter_rows")), ("voxel", (baselines, "cell_mean"))], ids=["pcc", "voxel"])
    def test_first_layer_builds_none(self, method, spied, monkeypatch):
        types = {"pcc": baselines.pcc_types([4]), "voxel": baselines.voxel_types(0.2)}[method]
        stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(3), types=types)
        first = stack.layers[0]
        inside, seen = [False], []

        def spy(*args, real=getattr(*spied)):
            if inside[0]:
                seen[-1][1] += 1
            return real(*args)

        def backward(upstream, ctx, *, input_grad=True, real=first.backward):
            seen.append([input_grad, 0])
            inside[0] = True
            try:
                grad = real(upstream, ctx, input_grad=input_grad)
            finally:
                inside[0] = False
            assert (grad is None) is not input_grad
            return grad

        monkeypatch.setattr(*spied, spy)
        first.backward = backward
        ds = pointcloud.synth_dataset("two-surfaces-seg", 2, 64, 0.01, 3)
        nn.train_stack(stack, ds, lr=1e-2, weight_decay=5e-4, epochs=1, batch_size=1,
                       rng=DetRng(6))
        assert seen == [[False, 0]] * 2  # one step per cloud

        # the same step asked for the input gradient builds it, with the
        # same parameter gradients
        ctx = nn.LayerContext(ds.clouds[0])
        up = np.random.default_rng(1).normal(size=(64, 2))
        kept = []
        for input_grad in (False, True):
            stack.zero_grads()
            stack.forward(ds.clouds[0], ctx)
            stack.backward(up, ctx, input_grad=input_grad)
            kept.append([g.copy() for g in stack.gradients()])
        assert seen[2:] == [[False, 0], [True, 1]]
        assert all(np.array_equal(a, b) for a, b in zip(*kept))


class TestSubvoxelDiscrimination:
    def test_zero_displacement_both_zero(self):
        rep = baselines.subvoxel_discrimination(0.2, 0.0, seed=1)
        assert rep.voxel_path_diff == 0.0
        assert rep.deform_path_diff == 0.0

    def test_seeded_instances_split_the_paths(self):
        for seed in range(3):
            rep = baselines.subvoxel_discrimination(0.2, 0.05, seed=seed)
            assert rep.voxel_path_diff < 1e-12
            assert rep.deform_path_diff > 1e-6

    def test_displacement_validated(self):
        with pytest.raises(ValueError):
            baselines.subvoxel_discrimination(0.2, 0.2, seed=0)
        with pytest.raises(ValueError):
            baselines.subvoxel_discrimination(0.2, -0.01, seed=0)
