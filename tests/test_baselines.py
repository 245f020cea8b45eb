"""Reference baselines: MLP-filter continuous conv and voxelize/restrict."""
from __future__ import annotations

import numpy as np
import pytest

from deformconv import baselines, conv, nn, pointcloud, spatial
from deformconv.rng import DetRng
from conftest import fd_grad, grad_rel, neighbor_table, random_cloud, rel_err


def _mlp(seed=0, out_dim=2, hidden=(4, 4)):
    """He-initialised MlpFilter with the given hidden widths."""
    rng, dims = DetRng(seed), [3, *hidden, out_dim]
    return baselines.MlpFilter(tuple(
        (rng.normals(a * b, 0.0, np.sqrt(2.0 / a)).reshape(a, b), np.zeros(b))
        for a, b in zip(dims[:-1], dims[1:])))


class TestMlpFilter:
    def test_eval_shape_and_determinism(self):
        f = _mlp(out_dim=3)
        offs = np.random.default_rng(0).uniform(-0.5, 0.5, (10, 3))
        a = baselines.mlp_eval(f, offs)
        assert a.shape == (10, 3)
        assert np.array_equal(a, baselines.mlp_eval(f, offs))

    def test_nonlinear_in_offsets(self):
        # a linear map with v(0)=0 would be odd; the rectifier is not
        # (zero-bias rectifier nets are positively homogeneous, so probing
        # v(2x) vs 2 v(x) along one ray would not detect anything)
        f = _mlp(out_dim=1)
        offs = np.array([[0.3, 0.1, -0.2], [-0.3, -0.1, 0.2]])
        vals = baselines.mlp_eval(f, offs)
        assert abs(vals[0, 0] + vals[1, 0]) > 1e-8

    def test_zero_final_layer_gives_zero(self):
        f = _mlp(out_dim=2)
        w_last, b_last = f.layers[-1]
        layers = tuple(f.layers[:-1]) + ((np.zeros_like(w_last),
                                          np.zeros_like(b_last)),)
        g = baselines.MlpFilter(layers=layers)
        offs = np.random.default_rng(1).uniform(-0.4, 0.4, (6, 3))
        assert not np.any(baselines.mlp_eval(g, offs))


class TestPccForward:
    def _instance(self, seed=0, m=20, d_in=2, d_out=3):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, m, d_in, extent=0.5)
        filt = _mlp(seed=seed, out_dim=d_in)
        pointwise = rng.normal(size=(d_in, d_out))
        table = neighbor_table(cloud, 0.7, 12)
        return cloud, table, filt, pointwise

    def test_single_point_worked_example(self):
        filt = _mlp(out_dim=2)
        pos = np.zeros((1, 3))
        feats = np.array([[2.0, -1.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=feats)
        index = spatial.build_index(pos, 0.7)
        table = spatial.radius_neighbors(index, pos, 0.7, 4)
        pointwise = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        out = baselines.pcc_forward(cloud, table, filt, pointwise)
        u = baselines.mlp_eval(filt, np.zeros((1, 3)))[0]
        expect = (u * feats[0]) @ pointwise
        assert np.allclose(out[0], expect, atol=1e-15)

    def test_matches_direct_reevaluation(self):
        for seed in range(4):
            cloud, table, filt, pointwise = self._instance(seed)
            out = baselines.pcc_forward(cloud, table, filt, pointwise)
            expect = np.zeros_like(out)
            for q in range(table.num_queries):
                idx, offs = table.neighbors_of(q)
                acc = np.zeros(cloud.feature_dim)
                for j, off in zip(idx, offs):
                    acc += baselines.mlp_eval(filt, off[None])[0] * cloud.features[j]
                expect[q] = acc @ pointwise
            assert rel_err(out, expect) <= 1e-12

    def test_translation_and_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        cloud, table, filt, pointwise = self._instance(6, m=24)
        base = baselines.pcc_forward(cloud, table, filt, pointwise)
        moved = cloud.translated(np.array([40.0, -7.0, 2.0]))
        out = baselines.pcc_forward(
            moved, neighbor_table(moved, 0.7, 12), filt, pointwise)
        assert rel_err(out, base) <= 1e-9
        perm = rng.permutation(cloud.num_points)
        shuffled = pointcloud.PointCloud(positions=cloud.positions[perm],
                                         features=cloud.features[perm])
        out2 = baselines.pcc_forward(
            shuffled, neighbor_table(shuffled, 0.7, 12), filt, pointwise)
        assert rel_err(out2, base[perm]) <= 1e-9

    def test_dim_mismatch_rejected(self):
        cloud, table, filt, pointwise = self._instance(1)
        with pytest.raises(ValueError):
            baselines.pcc_forward(cloud, table, filt, pointwise[:1])


class TestPccLayerGradients:
    def test_gradcheck(self):
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
        base = _mlp(seed=3, out_dim=2)
        layers = tuple((w.copy(), rng.normal(size=b.shape) * 0.3)
                       for w, b in base.layers)
        filt = baselines.MlpFilter(layers=layers)
        layer = baselines.PccLayer(0.7, 6, filt,
                                   rng.normal(size=(2, 2)),
                                   rng.normal(size=2))
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
        cloud = pointcloud.PointCloud(positions=np.array([[0.05, 0.25, -0.15]]),
                                      features=np.array([[7.0]]))
        grid = baselines.voxelize_extend(cloud, 0.2)
        occupied = np.nonzero(grid.counts)
        assert len(occupied[0]) == 1
        assert grid.features[occupied][0] == 7.0

    def test_same_cell_mean(self):
        cloud = pointcloud.PointCloud(
            positions=np.array([[0.05, 0.05, 0.05], [0.15, 0.05, 0.05]]),
            features=np.array([[1.0], [3.0]]))
        grid = baselines.voxelize_extend(cloud, 0.2)
        cell = grid.cell_of(cloud.positions)
        assert np.array_equal(cell[0], cell[1])
        back = baselines.restrict(grid, cloud)
        assert np.array_equal(back, [[2.0], [2.0]])

    def test_within_cell_move_identical_grids(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0.01, 0.19, (12, 3)) + rng.integers(0, 3, (12, 3)) * 0.2
        feats = rng.normal(size=(12, 2))
        a = pointcloud.PointCloud(positions=pos, features=feats)
        moved = pos.copy()
        moved[5] = moved[5] + np.array([0.004, -0.003, 0.002])  # stays in cell
        b = pointcloud.PointCloud(positions=moved, features=feats)
        ga = baselines.voxelize_extend(a, 0.2)
        gb = baselines.voxelize_extend(b, 0.2)
        assert np.array_equal(ga.features, gb.features)
        assert np.array_equal(ga.counts, gb.counts)

    def test_extend_restrict_identity_one_point_per_cell(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.5, 0.1, 0.1], [0.1, 0.7, 0.3]])
        feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=feats)
        grid = baselines.voxelize_extend(cloud, 0.2)
        assert np.array_equal(baselines.restrict(grid, cloud), feats)

    def test_restrict_matches_index_recompute(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 40, 3, extent=0.9)
        grid = baselines.voxelize_extend(cloud, 0.25)
        got = baselines.restrict(grid, cloud)
        cells = np.floor(cloud.positions / 0.25).astype(np.int64)
        for i in range(40):
            c = cells[i] - grid.corner
            assert np.array_equal(got[i], grid.features[c[0], c[1], c[2]])

    def test_restrict_outside_errors(self):
        cloud = pointcloud.PointCloud(positions=np.zeros((1, 3)),
                                      features=np.ones((1, 1)))
        grid = baselines.voxelize_extend(cloud, 0.2)
        far = pointcloud.PointCloud(positions=np.array([[5.0, 0.0, 0.0]]),
                                    features=np.ones((1, 1)))
        with pytest.raises(ValueError):
            baselines.restrict(grid, far)

    def test_pitch_validated(self):
        cloud = pointcloud.PointCloud(positions=np.zeros((1, 3)),
                                      features=np.ones((1, 1)))
        with pytest.raises(ValueError):
            baselines.voxelize_extend(cloud, 0.0)


class TestVoxelNotTranslationEquivariant:
    def test_constructive_boundary_crossing(self):
        # two points share a cell; a +0.1 shift along x splits them,
        # changing the restricted features. The deformable path moves
        # with the cloud and stays put.
        pos = np.array([[0.04, 0.05, 0.05], [0.16, 0.05, 0.05]])
        feats = np.array([[1.0], [3.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=feats)
        shift = np.array([0.1, 0.0, 0.0])
        moved = cloud.translated(shift)

        base = baselines.restrict(baselines.voxelize_extend(cloud, 0.2), cloud)
        after = baselines.restrict(baselines.voxelize_extend(moved, 0.2), moved)
        assert float(np.max(np.abs(after - base))) > 0.5  # mean 2.0 splits to 1 and 3

        filt = conv.DeformableFilter(
            grid=conv.grid_from_spacing(3, 0.2),
            weights=np.random.default_rng(0).normal(size=(27, 1, 1)))
        r = conv.default_radius(filt.grid)
        a = conv.forward_features(feats, neighbor_table(cloud, r, 8), filt)
        b = conv.forward_features(feats, neighbor_table(moved, r, 8), filt)
        assert rel_err(b, a) <= 1e-9


class TestVoxelConvLayer:
    def test_forward_equals_voxelize_restrict(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 30, 2, extent=0.8)
        layer = baselines.VoxelConvLayer(0.2, np.eye(2), np.zeros(2))
        got = layer.forward(cloud.features, nn.LayerContext(cloud))
        grid = baselines.voxelize_extend(cloud, 0.2)
        assert np.array_equal(got, baselines.restrict(grid, cloud))

    def test_points_on_pitch_multiples(self):
        # x / 0.2 rounds below an integer for some multiples of 0.2 (a
        # point at x = -1.8 is binned in cell -10), so the grid, restrict
        # and the layer must all bin with the same floor(x / pitch)
        ticks = np.arange(-40, 41) / 5.0
        rng = np.random.default_rng(12)
        for x in ticks:
            lone = pointcloud.PointCloud(positions=np.array([[x, -x, 0.0]]),
                                         features=np.array([[x + 1.0]]))
            grid = baselines.voxelize_extend(lone, 0.2)
            assert np.array_equal(baselines.restrict(grid, lone), lone.features)
        pos = np.stack([ticks, ticks[::-1], np.roll(ticks, 7)], axis=1)
        cloud = pointcloud.PointCloud(positions=pos, features=rng.normal(size=(81, 2)))
        got = baselines.restrict(baselines.voxelize_extend(cloud, 0.2), cloud)
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
