"""Layers, stacks, loss, Adam, metrics, and the training loop."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from deformconv import baselines, cli, conv, nn, pointcloud, spatial
from deformconv.rng import DetRng
from conftest import (PASSES, fd_grad, full_pass, grad_rel, neighbor_table, on_both_passes,
                      random_cloud, run_python)


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
        stack = nn.build_stack([{"type": "linear", "in": 3, "out": 3, "skip": 0}], "segmentation",
                               flat=np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
        out = nn.stack_forward(stack, cloud)
        assert np.allclose(out, cloud.features, atol=1e-15)

    def test_pool_on_constant_features(self):
        pos = np.random.default_rng(2).uniform(-0.5, 0.5, (6, 3))
        feats = np.tile([1.5, -2.0], (6, 1))
        cloud = pointcloud.PointCloud(positions=pos, features=feats,
                                      labels=np.zeros(6, dtype=np.int64))
        stack = nn.build_stack([{"type": "pool"}], "classification", flat=np.empty(0))
        out = nn.stack_forward(stack, cloud)
        assert out.shape == (1, 2)
        assert np.array_equal(out[0], [1.5, -2.0])

    def test_two_layer_matches_oracle_composition(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 18, 2, extent=0.5)
        g = conv.grid_from_spacing(3, 0.2)
        r = conv.default_radius(g)
        w1 = rng.normal(size=(27, 2, 3))
        b1 = rng.normal(size=3)
        w2 = rng.normal(size=(27, 3, 2))
        b2 = rng.normal(size=2)
        specs = [{"type": "deformable", "in": d_in, "out": d_out, "k": 3, "a": [0.2] * 3,
                  "r": None, "cap": 8, "skip": 0} for d_in, d_out in ((2, 3), (3, 2))]
        stack = nn.build_stack(specs, "segmentation",
                               flat=np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))
        table = neighbor_table(cloud, r, 8)  # the stack's own search at the same (r, cap)
        got = nn.stack_forward(stack, cloud)
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
        with pytest.raises(ValueError, match="task = classification needs exactly one pool"):
            nn.build_stack([{"type": "relu"}], "classification", flat=np.empty(0))
        with pytest.raises(ValueError, match="task = segmentation needs no pool layer, got "
                                             "layer.0.type = pool"):
            nn.build_stack([{"type": "pool"}], "segmentation", flat=np.empty(0))

    def test_channel_mismatch_caught(self):
        with pytest.raises(ValueError, match="layer.0.in = 3, but the dataset gives 2 channels"):
            nn.check_stack(_tiny_specs(d_in=3), "segmentation", channels=2)


def _chain_layer(kind: str, d_in: int, d_out: int, skip: int) -> dict:
    if kind in ("relu", "pool"):
        return {"type": kind}
    spec = {"type": kind, "in": d_in, "out": d_out, "skip": skip}
    if kind != "linear":
        spec.update(k=3, a=[0.2, 0.2, 0.2], r=None, cap=4)
    return spec


_CHAIN_LAYER = st.builds(_chain_layer, st.sampled_from(list(nn.LAYER_TYPES)),
                         st.integers(1, 3), st.integers(1, 3), st.integers(0, 1))


_CHAINS = st.lists(_CHAIN_LAYER, min_size=1, max_size=4)


class TestStackShape:
    """nn.check_stack, the one rule for a stack's shape."""

    @settings(max_examples=150, deadline=None)
    @given(_CHAINS, st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_accepts_exactly_the_chains_that_run(self, specs, channels, seed):
        try:
            nn.check_stack(specs, None, channels)
            accepted = True
        except ValueError:
            accepted = False
        cloud = random_cloud(np.random.default_rng(seed), 10, channels, extent=0.5)
        ctx, feats = nn.LayerContext(cloud), cloud.features
        try:
            for i, spec in enumerate(specs):
                # each layer built on its own, so that only its own spec is checked
                task = "classification" if spec["type"] == "pool" else "segmentation"
                [layer] = nn.build_stack([spec], task, rng=DetRng(i)).layers
                feats = layer.forward(feats, ctx)
            ran = True
        except ValueError:
            ran = False
        assert accepted == ran
        if ran:  # and the width it emits is the class count it takes
            nn.check_stack(specs, None, channels, classes=feats.shape[1])

    def test_stack_keeps_its_specs(self):
        specs = _tiny_specs()
        stack = nn.build_stack(specs, "segmentation", rng=DetRng(0))
        assert stack.specs is specs and stack.task == "segmentation"

    @pytest.mark.parametrize("specs,frag", [
        ([{"type": "linear", "in": 2, "out": 10**30, "skip": 0}],
         f"layer.0.in = 2, layer.0.out = {10**30}: the stack's parameters do not fit"),
        ([{"type": "linear", "in": 10**400, "out": 2, "skip": 0}], f"layer.0.in = {10**400}, "),
        ([{**_tiny_specs()[0], "k": 10**7 + 1}], "layer.0.k = 10000001: "),
    ], ids=["out-1e30", "in-past-float-range", "k"])
    def test_parameters_past_one_array_are_refused(self, specs, frag):
        with pytest.raises(ValueError, match=frag):
            nn.check_stack(specs, "segmentation")

    def test_huge_width_fails_fast(self):
        # run apart, so that a build that hangs fails the test
        proc = run_python(["-c", """
from deformconv import nn
from deformconv.rng import DetRng
try:
    nn.build_stack([{"type": "linear", "in": 2, "out": 10**30, "skip": 0}], "segmentation",
                   rng=DetRng(0))
except ValueError as exc:
    print(exc)
"""], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "the stack's parameters do not fit one float64 array" in proc.stdout


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


# values where a ReLU's bits are easy to get wrong: NaNs of either sign,
# signed zeros and infinities, subnormals and the smallest normal
_RELU_SPECIAL = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308]


class TestReluForward:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_RELU_SPECIAL), st.floats()),
                    min_size=1, max_size=60),
           st.integers(1, 4))
    def test_bytes_match_the_mask_form(self, values, cols):
        x = np.array(values * cols, dtype=np.float64).reshape(-1, cols)
        before = x.tobytes()
        out = nn.ReluLayer().forward(x, None)
        assert out.dtype == np.float64 and out.shape == x.shape
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert x.tobytes() == before


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


def _lattice_cloud(rng, n: int = 5) -> pointcloud.PointCloud:
    """n^3 points on a lattice of pitch 0.25, exact in binary, so that
    their distances tie exactly: at a = 0.25 and cap 8 a point keeps
    itself, its 6 face neighbours and 1 of its 12 edge neighbours."""
    axis = np.arange(n) * 0.25
    pos = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return pointcloud.PointCloud(pos, rng.normal(size=(n ** 3, 2)),
                                 rng.integers(0, 2, n ** 3))


def _permuted(cloud: pointcloud.PointCloud, perm: np.ndarray) -> pointcloud.PointCloud:
    labels = None if cloud.labels is None else cloud.labels[perm]
    return pointcloud.PointCloud(cloud.positions[perm], cloud.features[perm], labels)


class TestContextOrder:
    """A LayerStack runs its layers in the context's cell order, fixed by
    the positions alone, and hands rows back in the cloud's order: so a
    permuted cloud gives the permuted outputs and gradients bit for bit,
    also where distances tie at cap."""

    CONV = {"k": 3, "a": [0.25, 0.25, 0.25], "r": None, "cap": 8}
    SPECS = [{"type": "deformable", **CONV, "in": 2, "out": 3, "skip": 0},
             {"type": "relu"},
             {"type": "separable", **CONV, "in": 3, "out": 3, "skip": 1},
             {"type": "relu"},
             {"type": "linear", "in": 6, "out": 2, "skip": 0}]

    def _clouds(self, rng):
        lattice = _lattice_cloud(rng)
        # the lattice's cap-th and (cap + 1)-th distances tie within the radius
        pos, r = lattice.positions, nn.conv_spec(self.SPECS[0]).radius
        d = np.sort(np.linalg.norm(pos[:, None] - pos[None], axis=2), axis=1)
        assert np.any((d[:, 7] == d[:, 8]) & (d[:, 8] <= r))
        return [_seg_cloud(rng, 60), lattice]

    @on_both_passes
    def test_stack_forward_on_a_permuted_cloud(self):
        rng = np.random.default_rng(60)
        stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(4))
        for cloud in self._clouds(rng):
            out = nn.stack_forward(stack, cloud)
            for _ in range(3):
                perm = rng.permutation(cloud.num_points)
                assert nn.stack_forward(stack, _permuted(cloud, perm)).tobytes() == \
                    out[perm].tobytes()

    @on_both_passes
    def test_backward_on_a_permuted_cloud(self):
        rng = np.random.default_rng(61)
        stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(4))

        def grads(cloud, up):
            stack.zero_grads()
            ctx = nn.LayerContext(cloud)
            stack.forward(cloud, ctx)
            return stack.backward(up, ctx), [g.copy() for g in stack.gradients()]

        for cloud in self._clouds(rng):
            up = rng.normal(size=(cloud.num_points, 2))
            down, want = grads(cloud, up)
            perm = rng.permutation(cloud.num_points)
            moved, got = grads(_permuted(cloud, perm), up[perm])
            assert moved.tobytes() == down[perm].tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @on_both_passes
    def test_training_on_permuted_clouds(self):
        # the weight gradients sum over the queries in the context's order,
        # so the trained parameters do not depend on the points' order
        rng = np.random.default_rng(62)
        ds = pointcloud.Dataset(tuple(self._clouds(rng)), 2, "segmentation")
        moved = pointcloud.Dataset(
            tuple(_permuted(c, rng.permutation(c.num_points)) for c in ds.clouds),
            2, "segmentation")
        params = []
        for data in (ds, moved):
            stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(4))
            nn.train_stack(stack, data, lr=1e-2, weight_decay=5e-4, epochs=2, batch_size=1,
                           rng=DetRng(6))
            params.append(nn.flatten_params(stack).tobytes())
        assert params[0] == params[1]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 40),
           st.sampled_from(["deformable", "separable"]))
    @on_both_passes
    def test_permuted_clouds_train_to_the_same_bytes(self, seed, m, kind):
        # the loss is a mean over the rows in context order, so the logged
        # losses do not depend on the points' order either
        rng = np.random.default_rng(seed)
        clouds = [_seg_cloud(rng, m) for _ in range(3)]
        # input ids break the ties of repeated positions, so they stay out
        assume(all(np.unique(c.positions, axis=0).shape[0] == m for c in clouds))
        specs = [{"type": kind, **self.CONV, "in": 2, "out": 3, "skip": 0},
                 {"type": "relu"}, {"type": "linear", "in": 3, "out": 2, "skip": 0}]
        perms = [rng.permutation(m) for _ in clouds]
        runs = []
        for data in (clouds, [_permuted(c, p) for c, p in zip(clouds, perms)]):
            stack = nn.build_stack(specs, "segmentation", rng=DetRng(4))
            logs = nn.train_stack(stack, pointcloud.Dataset(tuple(data), 2, "segmentation"),
                                  lr=1e-2, weight_decay=5e-4, epochs=2, batch_size=2,
                                  rng=DetRng(6))
            runs.append((nn.flatten_params(stack).tobytes(),
                         np.array([[l.loss, l.accuracy, l.miou] for l in logs]).tobytes(),
                         [nn.stack_forward(stack, c) for c in data]))
        assert runs[0][:2] == runs[1][:2]
        for out, moved, perm in zip(*[run[2] for run in runs], perms):
            assert moved.tobytes() == out[perm].tobytes()

    def test_stack_gradients_in_the_clouds_order(self):
        rng = np.random.default_rng(63)
        cloud = _seg_cloud(rng, 12)
        stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(5))
        ctx = nn.LayerContext(cloud)
        feats = cloud.features.copy()
        up = rng.normal(size=(12, 2))

        def loss():
            return float(np.sum(stack.forward(pointcloud.PointCloud(cloud.positions, feats),
                                              ctx) * up))

        stack.zero_grads()
        stack.forward(cloud, ctx)
        down = stack.backward(up, ctx)
        assert not np.array_equal(ctx.order, np.arange(12))
        for p, g in zip(stack.parameters(), [g.copy() for g in stack.gradients()]):
            assert grad_rel(g, fd_grad(loss, p)) <= 1e-6
        assert grad_rel(down, fd_grad(loss, feats)) <= 1e-6

    def test_context_is_sorted_once(self):
        rng = np.random.default_rng(64)
        cloud = _seg_cloud(rng, 40)
        stack = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(4))
        spec = nn.conv_spec(self.SPECS[0])
        assert stack.radius == spec.radius
        ctx = nn.LayerContext(cloud)
        assert ctx.order is None and ctx.positions is cloud.positions
        stack.forward(cloud, ctx)
        order = ctx.order
        assert np.array_equal(order, spatial.cell_order(cloud.positions, spec.radius)[0])
        assert np.array_equal(ctx.positions, cloud.positions[order])
        table = ctx.table_for(spec.radius, spec.cap)
        want = neighbor_table(pointcloud.PointCloud(ctx.positions, cloud.features[order]),
                              spec.radius, spec.cap)
        assert all(np.array_equal(a, b) for a, b in ((table.starts, want.starts),
                                                     (table.indices, want.indices),
                                                     (table.offsets, want.offsets)))
        stack.forward(cloud, ctx)
        assert ctx.order is order and ctx.table_for(spec.radius, spec.cap) is table

    def test_input_order_where_nothing_is_sorted(self):
        rng = np.random.default_rng(65)
        cloud = _seg_cloud(rng, 40)
        spec = nn.conv_spec(self.SPECS[0])
        # a table searched before any stack forward fixes the input order
        ctx = nn.LayerContext(cloud)
        ctx.table_for(spec.radius, spec.cap)
        nn.build_stack(self.SPECS, "segmentation", rng=DetRng(4)).forward(cloud, ctx)
        assert ctx.order is None
        # a stack that searches nothing sorts nothing
        voxel = nn.build_stack(self.SPECS, "segmentation", rng=DetRng(4),
                               types=baselines.voxel_types(0.25))
        assert voxel.radius is None
        ctx = nn.LayerContext(cloud)
        voxel.forward(cloud, ctx)
        assert ctx.order is None


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


def _two_conv_specs(d_in=2):
    """A skip-wrapped deformable layer and a plain one."""
    conv_spec = {"type": "deformable", "k": 3, "a": [0.2, 0.2, 0.2], "r": None, "cap": 8}
    return [
        {**conv_spec, "in": d_in, "out": 2, "skip": 1},
        {"type": "relu"},
        {**conv_spec, "in": d_in + 2, "out": 3, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 3, "out": 2},
    ]


def _conv_layers(stack) -> list:
    return [l for l in (getattr(l, "inner", l) for l in stack.layers)
            if isinstance(l, nn.DeformConvLayer)]


class TestKeptSums:
    """Every forward keeps the anchor sums of each deformable layer that
    takes the dense pass, for a backward that follows to read; a layer on
    the channel pass keeps none."""

    @on_both_passes
    def test_backward_releases_the_sums(self):
        rng = np.random.default_rng(30)
        cloud = _seg_cloud(rng, 20)
        stack = nn.build_stack(_two_conv_specs(), "segmentation", rng=DetRng(3))
        ctx = nn.LayerContext(cloud)
        logits = stack.forward(cloud, ctx)
        assert all(l._sums is not None for l in _conv_layers(stack))
        stack.backward(nn.cross_entropy(logits, cloud.labels)[1], ctx)
        assert all(l._sums is None for l in _conv_layers(stack))

    def test_dense_pass_layers_keep_sums_after_any_forward(self):
        # 20 points take the dense pass; 2,500 points x 27 anchors x 2
        # input channels of sums exceed the block budget, so the channel pass
        ds = _seg_dataset(seed=31, n=3, m=20)
        big = _seg_cloud(np.random.default_rng(34), 2500)
        stack = nn.build_stack(_two_conv_specs(), "segmentation", rng=DetRng(3))

        def kept():
            return [[s.shape for s in l._sums] for l in _conv_layers(stack)]

        for forward in (lambda: nn.stack_forward(stack, ds.clouds[0]),
                        lambda: nn.evaluate(stack, ds),
                        # ends on the epoch's scoring forwards
                        lambda: nn.train_stack(stack, ds, lr=1e-3, weight_decay=0.0,
                                               epochs=1, batch_size=2, rng=DetRng(0))):
            forward()
            assert kept() == [[(20, 27, 2)], [(20, 27, 4)]]
            nn.stack_forward(stack, big)
            assert kept() == [[], []]

    def test_scoring_forwards_keep_none(self):
        # on the channel pass a scoring forward keeps no sums, and drops
        # those an earlier dense-pass forward kept
        rng = np.random.default_rng(31)
        small = _seg_cloud(rng, 20)
        big = pointcloud.Dataset(clouds=(_seg_cloud(rng, 2500),), num_classes=2,
                                 task="segmentation")
        stack = nn.build_stack(_two_conv_specs(), "segmentation", rng=DetRng(3))
        for score in (lambda: nn.evaluate(stack, big),
                      lambda: nn.stack_forward(stack, big.clouds[0])):
            stack.forward(small, nn.LayerContext(small))
            assert all(l._sums for l in _conv_layers(stack))
            score()
            assert all(l._sums == [] for l in _conv_layers(stack))

    def test_train_stack_keeps_on_training_forwards_only(self, monkeypatch):
        # every forward keeps its dense-pass sums, but only a training
        # forward's reach a backward: the epoch's scoring forwards follow
        # its last backward, and the next training forward replaces them
        ds = _seg_dataset(seed=32, n=3, m=20)
        stack = nn.build_stack(_two_conv_specs(), "segmentation", rng=DetRng(3))
        events, real_forward, real_backward = [], conv.forward_features, conv.backward_features

        def forward(*args, sums=None, **kwargs):
            out = real_forward(*args, sums=sums, **kwargs)
            events.append(("f", sums, [s.shape for s in sums]))
            return out

        def backward(*args, sums=None, **kwargs):
            events.append(("b", sums, None))
            return real_backward(*args, sums=sums, **kwargs)

        monkeypatch.setattr(conv, "forward_features", forward)
        monkeypatch.setattr(conv, "backward_features", backward)
        nn.train_stack(stack, ds, lr=1e-3, weight_decay=0.0, epochs=2, batch_size=2,
                       rng=DetRng(0))
        # per epoch: 3 training forwards, each followed by its backward
        # through the 2 layers in reverse, then 3 scoring forwards
        epoch = ["f", "f", "b", "b"] * 3 + ["f", "f"] * 3
        assert [e[0] for e in events] == epoch * 2
        forwards = [e[2] for e in events if e[0] == "f"]
        assert forwards == [[(20, 27, 2)], [(20, 27, 4)]] * 12
        # each backward reads the list its own training forward kept
        for j in (j0 + 4 * t for j0 in (0, len(epoch)) for t in range(3)):
            assert events[j + 2][1] is events[j + 1][1] and events[j + 3][1] is events[j][1]

    @on_both_passes
    def test_eval_forward_drops_stale_sums(self):
        rng = np.random.default_rng(33)
        first, second = _seg_cloud(rng, 20), _seg_cloud(rng, 14)
        up = rng.normal(size=(second.num_points, 2))

        def eval_forward_then_backward(stack):
            ctx = nn.LayerContext(second)
            stack.forward(second, ctx)
            return [stack.backward(up, ctx)] + [g.copy() for g in stack.gradients()]

        kept = nn.build_stack(_two_conv_specs(), "segmentation", rng=DetRng(3))
        kept.forward(first, nn.LayerContext(first))
        plain = nn.build_stack(_two_conv_specs(), "segmentation", rng=DetRng(3))
        assert all(np.array_equal(a, b) for a, b in zip(eval_forward_then_backward(kept),
                                                        eval_forward_then_backward(plain)))

    def test_layer_over_the_budget_keeps_none(self, monkeypatch):
        # 600 points x 27 anchors: 7 input channels of sums fit the
        # 2^17-value block budget and take the dense pass, 9 do not
        rng = np.random.default_rng(34)
        cloud = _seg_cloud(rng, 600, dim=7)
        stack = nn.build_stack(_two_conv_specs(d_in=7), "segmentation", rng=DetRng(3))
        sizes = [l.weights.shape[1] * cloud.num_points * 27 for l in _conv_layers(stack)]
        assert sizes[0] <= spatial._BLOCK_VALUES < sizes[1]
        stack.forward(cloud, nn.LayerContext(cloud))
        assert [bool(l._sums) for l in _conv_layers(stack)] == [True, False]
        # the budget bounds the sums a layer keeps, at their exact size
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", sizes[1])
        stack.forward(cloud, nn.LayerContext(cloud))
        assert [bool(l._sums) for l in _conv_layers(stack)] == [True, True]
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", sizes[1] - 1)
        stack.forward(cloud, nn.LayerContext(cloud))
        assert [bool(l._sums) for l in _conv_layers(stack)] == [True, False]

    @on_both_passes
    def test_training_bits_match_rebuilt_sums(self, monkeypatch):
        # the gate-6 stack and optimiser settings on a smaller dataset
        full = pointcloud.synth_dataset("two-surfaces-seg", 12, 256, 0.01, 11)
        train = pointcloud.Dataset(full.clouds[:8], 2, "segmentation")
        test = pointcloud.Dataset(full.clouds[8:], 2, "segmentation")
        conv_spec = {"type": "deformable", "k": 3, "a": [0.2, 0.2, 0.2], "r": None,
                     "cap": 16, "skip": 0}
        specs = [{**conv_spec, "in": 2, "out": 8}, {"type": "relu"},
                 {**conv_spec, "in": 8, "out": 16}, {"type": "relu"},
                 {"type": "linear", "in": 16, "out": 2, "skip": 0}]
        spec = nn.conv_spec(specs[2])
        table = nn.LayerContext(train.clouds[0]).table_for(spec.radius, spec.cap)
        dense = conv._dense_map(table, spec.grid, 8) is not None
        given, real = [], conv.backward_features

        def run(keep):
            def reading(*args, sums=None, **kwargs):
                given.append(bool(sums))
                return real(*args, sums=sums if keep else None, **kwargs)

            monkeypatch.setattr(conv, "backward_features", reading)
            rng = DetRng(11)
            stack = nn.build_stack(specs, "segmentation", rng=rng)
            logs = nn.train_stack(stack, train, lr=1e-4, weight_decay=5e-4, epochs=2,
                                  batch_size=4, rng=rng, eval_set=test)
            return logs, nn.flatten_params(stack)

        # every backward is given the sums its forward kept, on the dense pass
        logs, params = run(keep=True)
        assert given == [dense] * 32
        # the rebuild forced by dropping them
        rebuilt_logs, rebuilt = run(keep=False)
        assert np.array_equal(params, rebuilt) and logs == rebuilt_logs


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
        {"type": "relu"},
        {"type": "deformable", "in": 4, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 16, "skip": 1},
        {"type": "pool"},
        {"type": "linear", "in": 8, "out": 2, "skip": 1},
    ]
    DIGESTS = {
        ("segmentation", 0):
            "caf374e3f00bb2fdd6a9e35ca935633f9a8ff3178bcbb8a6f5edf629d8cc97d2",
        ("segmentation", 12345):
            "330354a086937073f195ff17ae09ebe5f5616906deb5945811beaaa0be680424",
        ("classification", 0):
            "4df4e92f733073f4dcb8cf40f1df51913e6c7ab3e4f681e42413f253f019e33b",
        ("classification", 12345):
            "614cb04085b32552421c8f6583045147f296de3003acbfcb11943b09f10c47d3",
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


def _operator_stack(first: str, skip: int = 0) -> list[dict]:
    """``first`` conv layer (2 -> 3 channels, skip-wrapped when ``skip``),
    relu, the other conv type, relu, linear: both conv operators."""
    second = {"deformable": "separable", "separable": "deformable"}[first]
    spec = {"k": 3, "a": [0.2, 0.2, 0.2], "r": None, "cap": 8}
    return [
        {"type": first, **spec, "in": 2, "out": 3, "skip": skip},
        {"type": "relu"},
        {"type": second, **spec, "in": 2 * skip + 3, "out": 3, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 3, "out": 2, "skip": 0},
    ]


class TestTrainingInputGradient:
    """train_stack discards the gradient w.r.t. the cloud's features, so
    the stack's first layer is asked for none and builds none; every
    gradient that is read keeps its bits."""

    STACKS = {
        "deformable-first": _operator_stack("deformable"),
        "separable-first": _operator_stack("separable"),
        "skip-wrapped-first": _operator_stack("deformable", skip=1),
    }

    @pytest.mark.parametrize("name", list(STACKS))
    @on_both_passes
    def test_first_layer_builds_none_with_the_same_bits(self, name, monkeypatch):
        ds = _seg_dataset(seed=41, n=3, m=20)
        convs = []

        def train():
            stack = nn.build_stack(self.STACKS[name], "segmentation", rng=DetRng(5))
            convs[:] = [l for l in (getattr(l, "inner", l) for l in stack.layers)
                        if isinstance(l, (nn.DeformConvLayer, nn.SeparableConvLayer))]
            logs = nn.train_stack(stack, ds, lr=1e-2, weight_decay=5e-4, epochs=2,
                                  batch_size=2, rng=DetRng(6))
            return logs, nn.flatten_params(stack)

        # the reference: every layer builds its input gradient
        real_backward = nn.LayerStack.backward
        with monkeypatch.context() as mp:
            mp.setattr(nn.LayerStack, "backward",
                       lambda self, up, ctx, **_: real_backward(self, up, ctx))
            want_logs, want = train()

        calls = []
        for attr in ("backward_features", "backward_separable_features"):
            def spy(*args, real=getattr(conv, attr), **kwargs):
                result = real(*args, **kwargs)
                full = real(*args, **{**kwargs, "input_grad": True})
                layer = [j for j, l in enumerate(convs) if l._filt is args[2]]
                calls.append((layer, kwargs.get("input_grad", True), result, full))
                return result
            monkeypatch.setattr(conv, attr, spy)
        logs, params = train()
        # every conv layer's backward, 2 epochs x 3 clouds each, goes
        # through the operator's backward function
        assert sorted(c[0] for c in calls) == [[0]] * 6 + [[1]] * 6
        for layer, input_grad, result, full in calls:
            first = layer == [0]
            assert input_grad is not first
            assert (result[0] is None) is first and full[0] is not None
            assert all(np.array_equal(a, b) for a, b in zip(result[1:], full[1:]))
            if not first:
                assert np.array_equal(result[0], full[0])
        assert np.array_equal(params, want) and logs == want_logs


class TestPinnedOperatorTraining:
    """Trained parameters of a seeded deformable -> relu -> separable ->
    relu -> linear stack, bit for bit, on each pass of the full operator,
    as recorded when stacks began to run in the context's cell order
    (numpy 2.4 with its bundled OpenBLAS, the same at one and two BLAS
    threads); building no discarded input gradient kept the bits.
    The separable layer's input gradient trains the first layer, so
    every backward output that training reads is in the bits. A
    different BLAS may round its products differently; re-record the
    digests there only after the gradchecks pass."""

    DIGESTS = {
        "dense": "a3654e07d2fd5908f016990fd58ee37468659656b42332c11018b3293eaf731b",
        "channel": "5a95e7d0aef76611925d84ecbdbf19c75c6f73bb69d1dd6e8bb8162ee448f87a",
    }

    @pytest.mark.parametrize("name", PASSES)
    def test_trained_parameters(self, name, monkeypatch):
        full_pass(monkeypatch, name)
        spec = {"k": 3, "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0}
        specs = [{"type": "deformable", **spec, "in": 2, "out": 4}, {"type": "relu"},
                 {"type": "separable", **spec, "in": 4, "out": 4}, {"type": "relu"},
                 {"type": "linear", "in": 4, "out": 2, "skip": 0}]
        stack = nn.build_stack(specs, "segmentation", rng=DetRng(5))
        nn.train_stack(stack, pointcloud.synth_dataset("two-surfaces-seg", 4, 64, 0.01, 3),
                       lr=1e-2, weight_decay=5e-4, epochs=3, batch_size=2, rng=DetRng(6))
        digest = hashlib.sha256(nn.flatten_params(stack).astype("<f8").tobytes()).hexdigest()
        assert digest == self.DIGESTS[name]
