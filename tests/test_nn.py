"""Layers, stacks, loss, Adam, metrics, and the training loop."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from deformconv import baselines, cli, conv, nn, pointcloud
from deformconv.rng import DetRng
from conftest import fd_grad, grad_rel, neighbor_table, random_cloud


def _seg_cloud(rng, m=20, dim=2, classes=2):
    c = random_cloud(rng, m, dim, extent=0.5)
    return pointcloud.PointCloud(positions=c.positions, features=c.features,
                                 labels=rng.integers(0, classes, m))


def _seg_dataset(seed=0, n=3, m=20, dim=2, classes=2):
    rng = np.random.default_rng(seed)
    clouds = tuple(_seg_cloud(rng, m, dim, classes) for _ in range(n))
    return pointcloud.Dataset(clouds=clouds, num_classes=classes, task="segmentation")


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((6, 4))
        loss, _ = nn.cross_entropy(logits, np.array([0, 1, 2, 3, 0, 1]))
        assert abs(loss - np.log(4.0)) <= 1e-12

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[1e9, 0.0], [0.0, 1e9]])
        loss, _ = nn.cross_entropy(logits, np.array([0, 1]))
        assert loss <= 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, 5)
        _, grad = nn.cross_entropy(logits, labels)

        def loss():
            return nn.cross_entropy(logits, labels)[0]

        assert grad_rel(grad, fd_grad(loss, logits)) <= 1e-6

    def test_invalid_labels_rejected(self):
        logits = np.zeros((2, 3))
        with pytest.raises(ValueError):
            nn.cross_entropy(logits, np.array([0, 3]))
        with pytest.raises(ValueError):
            nn.cross_entropy(logits, np.array([0, -1]))
        with pytest.raises(ValueError):
            nn.cross_entropy(logits, np.array([0]))


class TestAdam:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = [np.array([1.0, -2.0])]
        state = nn.init_adam(p, lr=0.1, weight_decay=0.0)
        nn.adam_step(state, p, [np.zeros(2)])
        assert np.array_equal(p[0], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        for g in (3.0, -0.01, 1e4):
            p = [np.array([1.0])]
            state = nn.init_adam(p, lr=0.1, weight_decay=0.0)
            nn.adam_step(state, p, [np.array([g])])
            # bias-corrected m/sqrt(v) is sign(g) on step one, up to eps
            assert abs(p[0][0] - (1.0 - 0.1 * np.sign(g))) <= 1e-6

    def test_quadratic_rollout_monotone(self):
        p = [np.array([1.0])]
        state = nn.init_adam(p, lr=0.1, weight_decay=0.0)
        trail = [1.0]
        for _ in range(10):
            nn.adam_step(state, p, [2.0 * p[0]])  # d/dw of w^2
            trail.append(float(p[0][0]))
        assert all(b < a for a, b in zip(trail, trail[1:]))
        assert trail[-1] < 0.2

    def test_decoupled_weight_decay_exact_shrink(self):
        p = [np.array([1.0, -4.0])]
        state = nn.init_adam(p, lr=0.01, weight_decay=0.5)
        nn.adam_step(state, p, [np.zeros(2)])
        assert np.array_equal(p[0], np.array([1.0, -4.0]) * (1.0 - 0.01 * 0.5))

    @pytest.mark.parametrize("lr,weight_decay", [(1.0, 2.0), (0.5, 2.0), (1e300, 5e-4)])
    def test_decay_factor_must_stay_positive(self, lr, weight_decay):
        # decay multiplies parameters by 1 - lr * weight_decay, which must be > 0
        with pytest.raises(ValueError, match=r"lr \* weight_decay must be < 1"):
            nn.init_adam([np.zeros(2)], lr=lr, weight_decay=weight_decay)
        p = [np.array([1.0, -4.0])]
        state = nn.init_adam(p, lr=0.5, weight_decay=1.99)
        nn.adam_step(state, p, [np.zeros(2)])
        assert np.array_equal(p[0], np.array([1.0, -4.0]) * (1.0 - 0.5 * 1.99))

    def test_shape_mismatch_rejected(self):
        p = [np.zeros(3)]
        state = nn.init_adam(p, lr=0.1)
        with pytest.raises(ValueError):
            nn.adam_step(state, p, [np.zeros(2)])


class TestMetrics:
    def test_perfect(self):
        y = np.array([0, 1, 1, 0, 2])
        rep = nn.metrics_from_predictions(y, y, 3)
        assert rep.accuracy == 1.0 and rep.miou == 1.0

    def test_single_wrong_class_on_balanced_data(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.zeros(4, dtype=np.int64)
        rep = nn.metrics_from_predictions(preds, labels, 2)
        assert rep.accuracy == 0.5
        assert rep.per_class_iou[0] == 0.5
        assert rep.per_class_iou[1] == 0.0
        assert rep.miou == 0.25

    def test_absent_class_excluded(self):
        labels = np.zeros(4, dtype=np.int64)
        preds = np.zeros(4, dtype=np.int64)
        rep = nn.metrics_from_predictions(preds, labels, 2)
        assert rep.miou == 1.0
        assert 1 not in rep.per_class_iou

    def test_random_recount(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, 200)
        preds = rng.integers(0, 4, 200)
        rep = nn.metrics_from_predictions(preds, labels, 4)
        assert rep.accuracy == float(np.mean(preds == labels))
        for c in range(4):
            tp = int(np.sum((preds == c) & (labels == c)))
            fp = int(np.sum((preds == c) & (labels != c)))
            fn = int(np.sum((preds != c) & (labels == c)))
            if tp + fp + fn == 0:
                assert c not in rep.per_class_iou
            else:
                assert rep.per_class_iou[c] == tp / (tp + fp + fn)
        assert rep.miou == float(np.mean(list(rep.per_class_iou.values())))


def _tiny_specs(d_in=2, classes=2):
    return [
        {"type": "deformable", "in": d_in, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 4, "out": classes},
    ]


class TestStackForward:
    def test_identity_linear_stack(self):
        rng = np.random.default_rng(1)
        cloud = _seg_cloud(rng, 10, 3)
        stack = nn.LayerStack([nn.LinearLayer(np.eye(3), np.zeros(3))],
                              task="segmentation")
        out = nn.stack_forward(stack, cloud)
        assert np.allclose(out, cloud.features, atol=1e-15)

    def test_pool_on_constant_features(self):
        pos = np.random.default_rng(2).uniform(-0.5, 0.5, (6, 3))
        feats = np.tile([1.5, -2.0], (6, 1))
        cloud = pointcloud.PointCloud(positions=pos, features=feats,
                                      labels=np.zeros(6, dtype=np.int64))
        stack = nn.LayerStack([nn.GlobalMaxPoolLayer()], task="classification")
        out = nn.stack_forward(stack, cloud)
        assert out.shape == (1, 2)
        assert np.array_equal(out[0], [1.5, -2.0])

    def test_two_layer_matches_oracle_composition(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 18, 2, extent=0.5)
        g = conv.grid_from_spacing(3, 0.2)
        r = conv.default_radius(g)
        spec = conv.ConvLayerSpec(grid=g, radius=r, cap=8)
        w1 = rng.normal(size=(27, 2, 3))
        b1 = rng.normal(size=3)
        w2 = rng.normal(size=(27, 3, 2))
        b2 = rng.normal(size=2)
        stack = nn.LayerStack(
            [nn.DeformConvLayer(spec, w1, b1), nn.DeformConvLayer(spec, w2, b2)],
            task="segmentation")
        table = neighbor_table(cloud, r, 8)
        got = nn.stack_forward(stack, cloud, neighbors=table)
        f1 = conv.oracle_forward_features(
            cloud.features, table, conv.DeformableFilter(g, w1, b1))
        f2 = conv.oracle_forward_features(
            f1, table, conv.DeformableFilter(g, w2, b2))
        denom = float(np.max(np.abs(f2)))
        assert float(np.max(np.abs(got - f2))) / denom <= 1e-12

    def test_segmentation_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        cloud = _seg_cloud(rng, 24, 2)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(0))
        base = nn.stack_forward(stack, cloud)
        perm = rng.permutation(24)
        shuffled = pointcloud.PointCloud(
            positions=cloud.positions[perm], features=cloud.features[perm],
            labels=cloud.labels[perm])
        out = nn.stack_forward(stack, shuffled)
        assert np.allclose(out, base[perm], rtol=1e-9, atol=1e-12)

    def test_classification_permutation_invariance(self):
        rng = np.random.default_rng(5)
        base_cloud = random_cloud(rng, 24, 2, extent=0.5)
        cloud = pointcloud.PointCloud(
            positions=base_cloud.positions, features=base_cloud.features,
            labels=np.full(24, 1, dtype=np.int64))
        specs = _tiny_specs() + [{"type": "pool"}]
        stack = nn.build_stack(specs, "classification", rng=DetRng(0))
        base = nn.stack_forward(stack, cloud)
        perm = rng.permutation(24)
        shuffled = pointcloud.PointCloud(
            positions=cloud.positions[perm], features=cloud.features[perm],
            labels=cloud.labels[perm])
        out = nn.stack_forward(stack, shuffled)
        assert out.shape == (1, 2)
        assert np.allclose(out, base, rtol=1e-9, atol=1e-12)

    def test_pool_count_enforced(self):
        with pytest.raises(ValueError):
            nn.LayerStack([nn.ReluLayer()], task="classification")
        with pytest.raises(ValueError):
            nn.LayerStack([nn.GlobalMaxPoolLayer()], task="segmentation")

    def test_channel_mismatch_caught(self):
        stack = nn.build_stack(_tiny_specs(d_in=3), "segmentation", rng=DetRng(0))
        with pytest.raises(ValueError):
            stack.check_channels(2)


class TestPoolBackward:
    def test_ties_route_to_first_occurrence(self):
        pos = np.random.default_rng(0).uniform(-0.5, 0.5, (4, 3))
        feats = np.array([[1.0], [3.0], [3.0], [0.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=feats,
                                      labels=np.zeros(4, dtype=np.int64))
        layer = nn.GlobalMaxPoolLayer()
        ctx = nn.LayerContext(cloud)
        layer.forward(feats, ctx)
        down = layer.backward(np.array([[2.0]]), ctx)
        assert np.array_equal(down[:, 0], [0.0, 2.0, 0.0, 0.0])


class TestStackGradients:
    def test_full_stack_gradcheck(self):
        rng = np.random.default_rng(6)
        cloud = _seg_cloud(rng, 10, 2)
        specs = [
            {"type": "deformable", "in": 2, "out": 3, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": None, "cap": 6, "skip": 0},
            {"type": "relu"},
            {"type": "separable", "in": 3, "out": 3, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": None, "cap": 6, "skip": 1},
            {"type": "linear", "in": 6, "out": 2},
        ]
        stack = nn.build_stack(specs, "segmentation", rng=DetRng(3))
        ctx = nn.LayerContext(cloud)
        labels = cloud.labels

        def loss():
            logits = stack.forward(cloud, ctx)
            return nn.cross_entropy(logits, labels)[0]

        stack.zero_grads()
        logits = stack.forward(cloud, ctx)
        _, grad = nn.cross_entropy(logits, labels)
        stack.backward(grad, ctx)
        for p, g in zip(stack.parameters(), stack.gradients()):
            assert grad_rel(g, fd_grad(loss, p)) <= 1e-6


class TestDeformConvLayer:
    @pytest.mark.parametrize("k", [3, 7])
    def test_gradcheck_with_cap_cutting(self, k):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 14, 3, extent=0.5)
        spec = conv.ConvLayerSpec(grid=conv.grid_from_spacing(k, 0.2),
                                  radius=conv.default_radius(conv.grid_from_spacing(k, 0.2)),
                                  cap=6)
        # cap cuts some neighbourhoods
        assert neighbor_table(cloud, spec.radius, 14).counts.max() > spec.cap
        layer = nn.DeformConvLayer(spec, rng.normal(size=(spec.grid.num_anchors, 3, 2)),
                                   rng.normal(size=2))
        ctx = nn.LayerContext(cloud)
        feats = cloud.features.copy()
        up = rng.normal(size=(cloud.num_points, 2))

        def loss():
            return float(np.sum(layer.forward(feats, ctx) * up))

        layer.forward(feats, ctx)
        grad_f = layer.backward(up, ctx)
        grads = [g.copy() for g in layer.grads()]
        for p, g in zip(layer.params(), grads):
            assert grad_rel(g, fd_grad(loss, p)) <= 1e-6
        assert grad_rel(grad_f, fd_grad(loss, feats)) <= 1e-6


class TestBuildStack:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            nn.build_stack(_tiny_specs(), "segmentation")
        with pytest.raises(ValueError):
            nn.build_stack(_tiny_specs(), "segmentation",
                           rng=DetRng(0), flat=np.zeros(4))

    def test_flat_roundtrip_identical_outputs(self):
        rng = np.random.default_rng(7)
        cloud = _seg_cloud(rng, 14, 2)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(5))
        flat = nn.flatten_params(stack)
        rebuilt = nn.build_stack(_tiny_specs(), "segmentation", flat=flat)
        a = nn.stack_forward(stack, cloud)
        b = nn.stack_forward(rebuilt, cloud)
        assert np.array_equal(a, b)

    def test_flat_size_checked(self):
        flat = nn.flatten_params(
            nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(5)))
        with pytest.raises(ValueError):
            nn.build_stack(_tiny_specs(), "segmentation", flat=flat[:-1])
        with pytest.raises(ValueError):
            nn.build_stack(_tiny_specs(), "segmentation",
                           flat=np.append(flat, 0.0))

    def test_unknown_layer_type(self):
        with pytest.raises(ValueError):
            nn.build_stack([{"type": "dropout"}], "segmentation", rng=DetRng(0))

    def test_param_count_matches_shapes(self):
        specs = _tiny_specs()
        total = nn.spec_param_count(specs)
        flat = nn.flatten_params(
            nn.build_stack(specs, "segmentation", rng=DetRng(1)))
        assert flat.shape[0] == total


def _init_digest(stack) -> str:
    return hashlib.sha256(nn.flatten_params(stack).astype("<f8").tobytes()).hexdigest()


class TestInitDigests:
    """sha256 of the seeded initial parameters (nn.flatten_params), so the
    number, order and scale of the init draws cannot drift. Init draws
    only from DetRng, whose samplers are pinned, so these do not depend
    on BLAS."""

    SEG = [
        {"type": "deformable", "in": 2, "out": 4, "k": 3,
         "a": [0.2, 0.25, 0.3], "r": None, "cap": 8, "skip": 1},
        {"type": "relu"},
        {"type": "separable", "in": 6, "out": 5, "k": 5,
         "a": [0.1, 0.1, 0.1], "r": 0.6, "cap": 12, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 5, "out": 3, "skip": 0},
    ]
    CLS = [
        {"type": "separable", "in": 3, "out": 4, "k": 1,
         "a": [0.3, 0.3, 0.3], "r": None, "cap": 4, "skip": 0},
        {"type": "pool"},
        {"type": "linear", "in": 4, "out": 2, "skip": 1},
        {"type": "relu"},
        {"type": "deformable", "in": 6, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 16, "skip": 0},
    ]
    DIGESTS = {
        ("segmentation", 0):
            "caf374e3f00bb2fdd6a9e35ca935633f9a8ff3178bcbb8a6f5edf629d8cc97d2",
        ("segmentation", 12345):
            "330354a086937073f195ff17ae09ebe5f5616906deb5945811beaaa0be680424",
        ("classification", 0):
            "9349587e701f18906aa1597eb42df960f9c66a415256c2ecdad279eb08752f34",
        ("classification", 12345):
            "4e0b7c2459d5a5b5fc6116c641c6e2bd5a2275973e9eb4d2c473bfbf4c43b0c2",
    }
    BASELINES = {
        "deformable": "17e9ab1f35f6621e22d832970bd211e61e3224420ec261220a6db07edf6c71a4",
        "pcc": "0bc861d2e023af798f47acb5baf0908f451ccaf3a7f059fb777601fbdf58e82f",
        "voxel": "bd210874f636cf7777fae5e6d3593fba728046a89a53e6d48d7bb171e118b07b",
    }

    @pytest.mark.parametrize("task,seed", list(DIGESTS))
    def test_every_layer_type(self, task, seed):
        specs = self.SEG if task == "segmentation" else self.CLS
        stack = nn.build_stack(specs, task, rng=DetRng(seed))
        assert _init_digest(stack) == self.DIGESTS[task, seed]

    def test_compare_baselines_stacks(self, tmp_path, monkeypatch):
        # the stacks as compare-baselines builds them, read where it
        # hands each to training
        seen = []

        def untrained(stack, *args, **kwargs):
            seen.append(_init_digest(stack))
            return []

        monkeypatch.setattr(nn, "train_stack", untrained)
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"""
task = segmentation
seed = 21
out = {tmp_path / 'cmp'}
data.kind = two-surfaces-seg
data.train = 2
data.test = 1
data.points = 24
layer.count = 5
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 3
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 6
layer.0.skip = 1
layer.1.type = relu
layer.2.type = separable
layer.2.in = 5
layer.2.out = 4
layer.2.k = 3
layer.2.a = 0.15,0.2,0.25
layer.2.cap = 6
layer.3.type = relu
layer.4.type = linear
layer.4.in = 4
layer.4.out = 2
pcc.hidden = 3,5
voxel.pitch = 0.3
opt.lr = 0.001
opt.epochs = 1
""", encoding="ascii")
        assert cli.main(["compare-baselines", "--config", str(cfg)]) == 0
        assert seen == list(self.BASELINES.values())


class TestEvaluate:
    def test_validations(self):
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(0))
        ds = _seg_dataset()
        cls = pointcloud.synth_dataset("shapes4", 2, 16, 0.0, seed=0)
        with pytest.raises(ValueError):
            nn.evaluate(stack, cls)  # task mismatch

    def test_point_order_invariance(self):
        rng = np.random.default_rng(9)
        ds = _seg_dataset(seed=9, n=4, m=18)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(2))
        base = nn.evaluate(stack, ds)
        shuffled = []
        for c in ds.clouds:
            perm = rng.permutation(c.num_points)
            shuffled.append(pointcloud.PointCloud(
                positions=c.positions[perm], features=c.features[perm],
                labels=c.labels[perm]))
        ds2 = pointcloud.Dataset(clouds=tuple(shuffled), num_classes=2,
                                 task="segmentation")
        again = nn.evaluate(stack, ds2)
        assert again.accuracy == base.accuracy
        assert again.miou == base.miou


class TestTrainStack:
    def test_single_small_step_decreases_loss(self):
        ds = _seg_dataset(seed=3, n=4, m=16)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(4))
        ctxs = [nn.LayerContext(c) for c in ds.clouds]

        def total_loss():
            vals = []
            for c, ctx in zip(ds.clouds, ctxs):
                logits = stack.forward(c, ctx)
                vals.append(nn.cross_entropy(logits, c.labels)[0])
            return float(np.mean(vals))

        before = total_loss()
        stack.zero_grads()
        for c, ctx in zip(ds.clouds, ctxs):
            logits = stack.forward(c, ctx)
            _, grad = nn.cross_entropy(logits, c.labels)
            stack.backward(grad, ctx)
        state = nn.init_adam(stack.parameters(), lr=1e-5, weight_decay=0.0)
        nn.adam_step(state, stack.parameters(), stack.gradients())
        assert total_loss() < before

    def test_deterministic_repeat(self):
        def run():
            ds = _seg_dataset(seed=5, n=5, m=16)
            stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(6))
            logs = nn.train_stack(stack, ds, lr=1e-3, weight_decay=5e-4,
                                  epochs=2, batch_size=2, rng=DetRng(7))
            return logs, nn.flatten_params(stack)

        logs1, p1 = run()
        logs2, p2 = run()
        assert np.array_equal(p1, p2)
        assert [(l.epoch, l.loss, l.accuracy, l.miou) for l in logs1] == \
               [(l.epoch, l.loss, l.accuracy, l.miou) for l in logs2]

    def test_zero_epochs_is_noop(self):
        ds = _seg_dataset(seed=5, n=2, m=16)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(6))
        before = nn.flatten_params(stack).copy()
        logs = nn.train_stack(stack, ds, lr=1e-3, weight_decay=0.0,
                              epochs=0, batch_size=1, rng=DetRng(0))
        assert logs == []
        assert np.array_equal(nn.flatten_params(stack), before)

    @pytest.mark.parametrize("method", ["deformable", "pcc", "voxel"])
    def test_adam_updates_the_named_arrays(self, method):
        # the arrays a layer names (and perfbench, the gates and the
        # filter export read) are the ones Adam updates in place
        specs = [
            {"type": "deformable", "in": 2, "out": 3, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": None, "cap": 6, "skip": 1},
            {"type": "relu"},
            {"type": "separable", "in": 5, "out": 3, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": None, "cap": 6, "skip": 0},
            {"type": "linear", "in": 3, "out": 2},
        ]
        types = {"deformable": nn.LAYER_TYPES, "pcc": baselines.pcc_types([4]),
                 "voxel": baselines.voxel_types(0.2)}[method]
        stack = nn.build_stack(specs, "segmentation", rng=DetRng(4), types=types)
        layers = [getattr(l, "inner", l) for l in stack.layers]
        trained = [l for l in layers if l.params()]
        kinds = {"deformable": ["deformable", "separable", "linear"],
                 "pcc": ["pcc", "pcc", "linear"], "voxel": ["voxel", "voxel", "linear"]}
        assert [l.kind for l in trained] == kinds[method]
        before = [p.copy() for p in stack.parameters()]
        nn.train_stack(stack, _seg_dataset(seed=5, n=2, m=16), lr=1e-2,
                       weight_decay=0.0, epochs=1, batch_size=2, rng=DetRng(0))
        for layer in trained:
            if isinstance(layer, nn.SeparableConvLayer):
                named = [layer.spatial, layer.pointwise, layer.bias]
            elif isinstance(layer, baselines.PccLayer):
                named = [*layer.mlp_params, layer.pointwise, layer.bias]
            else:
                named = [layer.weights, layer.bias]
            assert len(named) == len(layer.params())
            assert all(a is p for a, p in zip(named, layer.params()))
        after = stack.parameters()
        assert all(np.any(a != b) for a, b in zip(after, before))

    def test_class_count_mismatch_rejected(self):
        ds = _seg_dataset(seed=5, n=2, m=16, classes=2)
        stack = nn.build_stack(_tiny_specs(classes=3), "segmentation",
                               rng=DetRng(6))
        with pytest.raises(ValueError):
            nn.train_stack(stack, ds, lr=1e-3, weight_decay=0.0,
                           epochs=1, batch_size=1, rng=DetRng(0))

    def test_threads_bit_identical_training(self, monkeypatch):
        # 3,000 scene points with cap 16 put the second conv layer's
        # 48,000 pairs into several query blocks, so threads=2 runs a pool
        rng = DetRng(11)
        radius = conv.default_radius(conv.grid_from_spacing(3, 0.2))
        scene = cli._bench_cloud(3000, 16, radius, rng, 2)
        labels = (scene.positions[:, 2] > np.median(scene.positions[:, 2])).astype(np.int64)
        cloud = pointcloud.PointCloud(scene.positions, scene.features, labels)
        ds = pointcloud.Dataset(clouds=(cloud,), num_classes=2, task="segmentation")
        specs = [
            {"type": "deformable", "in": 2, "out": 8, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": None, "cap": 16, "skip": 0},
            {"type": "relu"},
            {"type": "deformable", "in": 8, "out": 16, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": None, "cap": 16, "skip": 0},
            {"type": "relu"},
            {"type": "linear", "in": 16, "out": 2},
        ]
        pools = []
        real_pool = conv.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(conv, "ThreadPoolExecutor", counting_pool)

        def run(threads):
            stack = nn.build_stack(specs, "segmentation", rng=DetRng(12))
            logs = nn.train_stack(stack, ds, lr=1e-3, weight_decay=5e-4, epochs=2,
                                  batch_size=1, rng=DetRng(13), threads=threads)
            return logs, nn.flatten_params(stack)

        logs1, p1 = run(1)
        assert not pools
        logs2, p2 = run(2)
        assert pools
        assert np.array_equal(p1, p2)
        assert logs1 == logs2

    @pytest.mark.parametrize("lr", [1e300, 1e308])
    def test_divergence_names_epoch_step_and_array(self, lr):
        ds = _seg_dataset(seed=5, n=4, m=16)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(6))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"epoch 1, Adam step \d+: "):
                nn.train_stack(stack, ds, lr=lr, weight_decay=0.0,
                               epochs=3, batch_size=2, rng=DetRng(7))

    def test_early_stop(self):
        ds = _seg_dataset(seed=8, n=3, m=16)
        stack = nn.build_stack(_tiny_specs(), "segmentation", rng=DetRng(9))
        logs = nn.train_stack(stack, ds, lr=1e-3, weight_decay=0.0,
                              epochs=50, batch_size=1, rng=DetRng(1),
                              stop_accuracy=0.0)
        assert len(logs) == 1  # any accuracy clears a zero bar
