"""Deformable-filter convolution: interpolation, forward, backward, equivariance."""
from __future__ import annotations

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from deformconv import conv, pointcloud, spatial
from conftest import (benchmark_cloud, fd_grad, grad_rel, neighbor_table,
                      random_cloud, random_filter, rel_err)


class TestAnchorGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            conv.AnchorGrid(k=2, unit=np.array([0.2, 0.2, 0.2]))
        with pytest.raises(ValueError):
            conv.AnchorGrid(k=0, unit=np.array([0.2, 0.2, 0.2]))
        with pytest.raises(ValueError):
            conv.grid_from_spacing(3, 0.0)

    def test_layout_k3(self):
        g = conv.grid_from_spacing(3, 0.2)
        assert g.num_anchors == 27
        assert g.anchor_index(0, 0, 0) == 13
        p = g.anchor_positions()
        assert np.allclose(p[13], 0.0)
        assert np.allclose(p[g.anchor_index(1, 0, -1)], [0.2, 0.0, -0.2])
        # last axis varies fastest
        assert np.allclose(p[0], [-0.2, -0.2, -0.2])
        assert np.allclose(p[1], [-0.2, -0.2, 0.0])

    def test_anisotropic_spacing(self):
        g = conv.grid_from_spacing(3, (0.1, 0.2, 0.4))
        p = g.anchor_positions()
        assert np.allclose(p[g.anchor_index(1, 1, 1)], [0.1, 0.2, 0.4])

    def test_support_radius(self):
        g = conv.grid_from_spacing(3, 0.2)
        assert np.isclose(g.support_radius(), 0.4 * np.sqrt(3.0), atol=1e-15)
        g1 = conv.grid_from_spacing(1, 0.2)
        assert np.isclose(g1.support_radius(), 0.2 * np.sqrt(3.0), atol=1e-15)


class TestTrilinearWeight:
    G = conv.grid_from_spacing(3, 0.2)

    def test_at_anchor_is_one(self):
        for a in (np.zeros(3), np.array([0.2, -0.2, 0.0])):
            assert conv.trilinear_weight(a, a, self.G.unit) == 1.0

    def test_one_spacing_away_is_zero(self):
        assert conv.trilinear_weight(np.array([0.2, 0.0, 0.0]),
                                     np.zeros(3), self.G.unit) == 0.0

    def test_half_spacing_corner(self):
        w = conv.trilinear_weight(np.array([0.1, 0.1, 0.1]),
                                  np.zeros(3), self.G.unit)
        assert w == 0.125

    def test_anisotropic(self):
        unit = np.array([0.1, 0.2, 0.4])
        w = conv.trilinear_weight(np.array([0.05, 0.1, 0.2]), np.zeros(3), unit)
        assert w == 0.125

    def test_beyond_support_zero(self):
        assert conv.trilinear_weight(np.array([0.45, 0.0, 0.0]),
                                     np.zeros(3), self.G.unit) == 0.0


class TestEnclosingAnchors:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([1, 3, 7]))
    def test_partition_of_unity_inside_hull(self, seed, k):
        rng = np.random.default_rng(seed)
        g = conv.grid_from_spacing(k, 0.2)
        half = (k - 1) // 2
        z = rng.uniform(-half * 0.2, half * 0.2, 3)
        pairs = conv.enclosing_anchors(z, g)
        total = sum(w for _, w in pairs)
        assert abs(total - 1.0) <= 1e-12
        assert len(pairs) <= 8

    def test_matches_full_scan_exactly(self):
        rng = np.random.default_rng(1)
        for k in (1, 3, 7):
            g = conv.grid_from_spacing(k, 0.2)
            reach = ((k - 1) // 2 + 1) * 0.2
            for _ in range(60):
                z = rng.uniform(-reach * 1.3, reach * 1.3, 3)
                pairs = dict(conv.enclosing_anchors(z, g))
                full = {a: conv.trilinear_weight(z, p, g.unit)
                        for a, p in enumerate(g.anchor_positions())}
                full = {a: w for a, w in full.items() if w != 0.0}
                assert pairs == full

    def test_indices_ascending(self):
        g = conv.grid_from_spacing(3, 0.2)
        pairs = conv.enclosing_anchors(np.array([0.05, -0.13, 0.19]), g)
        ids = [a for a, _ in pairs]
        assert ids == sorted(ids)

    def test_outside_support_empty(self):
        g = conv.grid_from_spacing(3, 0.2)
        assert conv.enclosing_anchors(np.array([0.6, 0.0, 0.0]), g) == []

    def test_at_anchor_single_entry(self):
        g = conv.grid_from_spacing(3, 0.2)
        pairs = conv.enclosing_anchors(np.array([0.2, 0.2, 0.2]), g)
        assert pairs == [(g.anchor_index(1, 1, 1), 1.0)]


class TestInterpolateFilter:
    def test_midpoint_worked_example(self):
        g = conv.grid_from_spacing(3, 0.2)
        w = np.zeros((27, 1, 1))
        w[13, 0, 0] = 1.0
        filt = conv.DeformableFilter(grid=g, weights=w)
        out = conv.interpolate_filter(np.array([-0.1, 0.0, 0.0]), filt)
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.5

    def test_exact_at_anchor(self):
        rng = np.random.default_rng(0)
        filt = random_filter(rng, 3, 0.2, 2, 3)
        g = filt.grid
        for (i, j, l) in [(0, 0, 0), (1, -1, 0), (-1, -1, -1)]:
            z = np.array([i, j, l]) * 0.2
            got = conv.interpolate_filter(z, filt)
            assert np.array_equal(got, filt.weights[g.anchor_index(i, j, l)])

    def test_zero_outside_support(self):
        rng = np.random.default_rng(0)
        filt = random_filter(rng, 3, 0.2, 2, 3)
        out = conv.interpolate_filter(np.array([0.0, 0.0, 0.61]), filt)
        assert np.all(out == 0.0)


def _spec_for(filt: conv.DeformableFilter, cap: int = 16) -> conv.ConvLayerSpec:
    return conv.ConvLayerSpec(grid=filt.grid,
                              radius=conv.default_radius(filt.grid), cap=cap)


def _separable(grid: conv.AnchorGrid, rng, d_in: int, d_out: int) -> conv.SeparableFilter:
    return conv.SeparableFilter(grid=grid, spatial=rng.normal(size=(grid.num_anchors, d_in)),
                                pointwise=rng.normal(size=(d_in, d_out)),
                                bias=rng.normal(size=d_out))


def _capped_pass(filt, cloud, cap: int) -> np.ndarray:
    """Either operator on a fresh capped table of the cloud."""
    table = neighbor_table(cloud, conv.default_radius(filt.grid), cap)
    if isinstance(filt, conv.SeparableFilter):
        return conv.forward_separable_features(cloud.features, table, filt)
    return conv.forward_features(cloud.features, table, filt)


def _untied_capped_instance(seed: int, m: int, cap: int, separable: bool):
    """(cloud, filter, rng), where cap cuts some neighbourhood and every cut
    neighbourhood's cap-th and (cap+1)-th distances differ by at least 1e-6,
    so a shift or a relabelling keeps the same points; None otherwise."""
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, m, 2, extent=0.4)
    filt = random_filter(rng, 3, 0.2, 2, 3, bias=True)
    if separable:
        filt = _separable(filt.grid, rng, 2, 3)
    pos = cloud.positions
    d = np.sort(np.linalg.norm(pos[:, None] - pos[None], axis=2), axis=1)
    cut = d[:, cap] <= conv.default_radius(filt.grid)
    if not cut.any() or np.any(d[cut, cap] - d[cut, cap - 1] < 1e-6):
        return None
    return cloud, filt, rng


def _multi_block_instance(seed: int, d_out: int = 4):
    """A 10,240-pair k = 7 table with 24 input channels: the full operator
    runs it as 24 parts, one per channel."""
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, 640, 24, extent=1.0)
    filt = random_filter(rng, 7, 0.2, 24, d_out)
    table = neighbor_table(cloud, conv.default_radius(filt.grid), 16)
    return cloud.features, table, filt, rng


def _record_parts(monkeypatch) -> tuple[list, list]:
    """(parts, pooled): the (channel, first row, end row) of every part the
    full operator's passes run, and the parts of each thread pool map."""
    parts, pooled = [], []
    real_parts, real_pool = conv._channel_parts, conv.ThreadPoolExecutor

    def recording(*args, **kwargs):
        for i, rows, pairs, result in real_parts(*args, **kwargs):
            parts.append((i, rows.start, rows.stop))
            yield i, rows, pairs, result

    class Pool(real_pool):
        def map(self, fn, *iterables, **kwargs):
            items = list(iterables[0])
            pooled.append([(i, rows.start, rows.stop) for i, (rows, _, _) in items])
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(conv, "_channel_parts", recording)
    monkeypatch.setattr(conv, "ThreadPoolExecutor", Pool)
    return parts, pooled


def _forward_on_threads(monkeypatch, feats, table, filt) -> tuple[np.ndarray, list]:
    """The forward on 1, 2 and 4 threads, checked bit-identical, with the
    threaded runs mapping every part on their pool (one map per query
    block) and several parts; returns it and the list that keeps
    recording parts (see _record_parts)."""
    parts, pooled = _record_parts(monkeypatch)
    one = conv.forward_features(feats, table, filt, threads=1)
    assert not pooled and len(parts) > 1
    single = list(parts)
    for threads in (2, 4):
        assert np.array_equal(conv.forward_features(feats, table, filt, threads=threads), one)
        assert [part for block in pooled for part in block] == single
        pooled.clear()
    return one, parts


def _adjoint_gap(lhs: float, grad: np.ndarray, x: np.ndarray) -> float:
    """Relative gap between sum(upstream * forward) and sum(grad * x)."""
    return abs(float(np.sum(grad * x)) - lhs) / abs(lhs)


class TestForward:
    def test_two_point_worked_example(self):
        # Filter: 1 at the center anchor, 3 at the +x anchor, 0 elsewhere.
        # Query p0 sees itself (offset 0, deformed weight 1) and p1 at
        # offset +0.1 on x (deformed weight 0.5*1 + 0.5*3 = 2).
        # h(p0) = 1*1 + 2*0.5 = 2.0 exactly.
        g = conv.grid_from_spacing(3, 0.2)
        w = np.zeros((27, 1, 1))
        w[13, 0, 0] = 1.0
        w[g.anchor_index(1, 0, 0), 0, 0] = 3.0
        filt = conv.DeformableFilter(grid=g, weights=w)
        cloud = pointcloud.PointCloud(
            positions=np.array([[0.0, 0.0, 0.0], [-0.1, 0.0, 0.0]]),
            features=np.array([[1.0], [0.5]]))
        spec = _spec_for(filt)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        out = conv.forward_features(cloud.features, table, filt)
        assert out.shape == (2, 1)
        assert out[0, 0] == 2.0
        oracle = conv.oracle_forward_features(cloud.features, table, filt)
        assert np.array_equal(out, oracle)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_fast_equals_oracle(self, k):
        rng = np.random.default_rng(k)
        for _ in range(8):
            m = int(rng.integers(2, 48))
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            cloud = random_cloud(rng, m, d_in, extent=0.6)
            filt = random_filter(rng, k, 0.2, d_in, d_out, bias=bool(rng.integers(2)))
            spec = _spec_for(filt, cap=int(rng.integers(1, 20)))
            table = neighbor_table(cloud, spec.radius, spec.cap)
            fast = conv.forward_features(cloud.features, table, filt)
            oracle = conv.oracle_forward_features(cloud.features, table, filt)
            assert rel_err(fast, oracle) <= 1e-12

    def test_single_point_identity(self):
        # a lone point sees only itself at offset 0, where the deformed
        # filter is exactly the centre anchor matrix
        rng = np.random.default_rng(4)
        filt = random_filter(rng, 3, 0.2, 2, 3, bias=True)
        pos = np.zeros((1, 3))
        feats = rng.normal(size=(1, 2))
        index = spatial.build_index(pos, 0.7)
        table = spatial.radius_neighbors(index, pos, 0.7, 4)
        out = conv.forward_features(feats, table, filt)
        centre = filt.grid.anchor_index(0, 0, 0)
        expect = feats[0] @ filt.weights[centre] + filt.bias
        assert np.allclose(out[0], expect, atol=1e-15)

    def test_zero_features_zero_output(self):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, 16, 2, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 2, 2)
        spec = _spec_for(filt)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        out = conv.forward_features(np.zeros((16, 2)), table, filt)
        assert not np.any(out)

    def test_linear_in_features(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 30, 3, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 3, 2)
        spec = _spec_for(filt)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        f1 = rng.normal(size=(30, 3))
        f2 = rng.normal(size=(30, 3))
        a, b = 0.7, -1.3
        lhs = conv.forward_features(a * f1 + b * f2, table, filt)
        rhs = (a * conv.forward_features(f1, table, filt)
               + b * conv.forward_features(f2, table, filt))
        assert rel_err(lhs, rhs) <= 1e-12

    def test_linear_in_weights(self):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 24, 2, extent=0.5)
        g = conv.grid_from_spacing(3, 0.2)
        w = rng.normal(size=(27, 2, 3))
        table = neighbor_table(cloud, conv.default_radius(g), 16)
        base = conv.forward_features(
            cloud.features, table, conv.DeformableFilter(grid=g, weights=w.copy()))
        scaled = conv.forward_features(
            cloud.features, table, conv.DeformableFilter(grid=g, weights=2.5 * w))
        assert rel_err(scaled, 2.5 * base) <= 1e-12

    def test_kernel_support_far_point_inert(self):
        # a neighbour inside the search radius but beyond the filter's
        # spatial support contributes exactly nothing
        rng = np.random.default_rng(16)
        filt = random_filter(rng, 3, 0.2, 1, 2)
        support = filt.grid.support_radius()
        r = 2.0 * support
        pos = np.array([[0.0, 0.0, 0.0], [1.5 * support, 0.0, 0.0]])
        feats = np.array([[1.0], [100.0]])
        index = spatial.build_index(pos, r)
        table = spatial.radius_neighbors(index, pos, r, 4)
        assert table.counts[0] == 2  # far point really is in the neighbourhood
        out = conv.forward_features(feats, table, filt)
        solo = spatial.radius_neighbors(
            spatial.build_index(pos[:1], r), pos[:1], r, 4)
        alone = conv.forward_features(feats[:1], solo, filt)
        assert rel_err(out[:1], alone) <= 1e-12

    def test_bias_is_additive(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 20, 2, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 2, 3, bias=True)
        bare = conv.DeformableFilter(grid=filt.grid, weights=filt.weights)
        spec = _spec_for(filt)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        with_b = conv.forward_features(cloud.features, table, filt)
        without = conv.forward_features(cloud.features, table, bare)
        assert np.allclose(with_b, without + filt.bias, atol=1e-15)

    def test_query_subset(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 40, 2, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 2, 2)
        r = conv.default_radius(filt.grid)
        index = spatial.build_index(cloud.positions, r)
        queries = cloud.positions[::3]
        table = spatial.radius_neighbors(index, queries, r, 16)
        out = conv.forward_features(cloud.features, table, filt)
        assert out.shape == (queries.shape[0], 2)
        full_table = spatial.radius_neighbors(index, cloud.positions, r, 16)
        full = conv.forward_features(cloud.features, full_table, filt)
        assert np.allclose(out, full[::3], atol=1e-15)

    def test_empty_neighborhood_gives_bias(self):
        filt = random_filter(np.random.default_rng(1), 3, 0.2, 1, 2, bias=True)
        pos = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        cloud = pointcloud.PointCloud(positions=pos, features=np.ones((2, 1)))
        r = conv.default_radius(filt.grid)
        index = spatial.build_index(pos, r)
        table = spatial.radius_neighbors(index, np.array([[25.0, 0.0, 0.0]]), r, 4)
        out = conv.forward_features(cloud.features, table, filt)
        assert np.array_equal(out[0], filt.bias)

    def test_threads_equivalent(self, monkeypatch):
        feats, table, filt, _ = _multi_block_instance(8)
        out, _ = _forward_on_threads(monkeypatch, feats, table, filt)
        assert rel_err(out, conv.oracle_forward_features(feats, table, filt)) <= 1e-12

    def test_feature_dim_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 10, 3, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 2, 2)
        spec = _spec_for(filt)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        with pytest.raises(ValueError):
            conv.forward_features(cloud.features, table, filt)

    def test_radius_below_support_rejected(self):
        g = conv.grid_from_spacing(3, 0.2)
        with pytest.raises(ValueError):
            conv.ConvLayerSpec(grid=g, radius=0.5, cap=16)


class TestEquivariance:
    def test_translation(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            cloud = random_cloud(rng, 32, 2, extent=0.6)
            filt = random_filter(rng, 3, 0.2, 2, 3)
            spec = _spec_for(filt)
            base = conv.forward_features(
                cloud.features, neighbor_table(cloud, spec.radius, spec.cap), filt)
            delta = rng.uniform(-100, 100, 3)
            moved = cloud.translated(delta)
            out = conv.forward_features(
                moved.features, neighbor_table(moved, spec.radius, spec.cap), filt)
            assert rel_err(out, base) <= 1e-9

    def test_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            cloud = random_cloud(rng, 32, 2, extent=0.6)
            filt = random_filter(rng, 3, 0.2, 2, 3)
            spec = _spec_for(filt)
            base = conv.forward_features(
                cloud.features, neighbor_table(cloud, spec.radius, spec.cap), filt)
            perm = rng.permutation(32)
            shuffled = pointcloud.PointCloud(positions=cloud.positions[perm],
                                             features=cloud.features[perm])
            out = conv.forward_features(
                shuffled.features, neighbor_table(shuffled, spec.radius, spec.cap), filt)
            assert rel_err(out, base[perm]) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(12, 40), st.integers(2, 8), st.booleans(),
           st.tuples(*[st.floats(-100, 100)] * 3))
    def test_translation_with_cap_cutting(self, seed, m, cap, separable, shift):
        instance = _untied_capped_instance(seed, m, cap, separable)
        assume(instance is not None)
        cloud, filt, _ = instance
        base = _capped_pass(filt, cloud, cap)
        out = _capped_pass(filt, cloud.translated(np.array(shift)), cap)
        assert rel_err(out, base) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(12, 40), st.integers(2, 8), st.booleans())
    def test_permutation_with_cap_cutting(self, seed, m, cap, separable):
        instance = _untied_capped_instance(seed, m, cap, separable)
        assume(instance is not None)
        cloud, filt, rng = instance
        perm = rng.permutation(m)
        shuffled = pointcloud.PointCloud(positions=cloud.positions[perm],
                                         features=cloud.features[perm])
        base = _capped_pass(filt, cloud, cap)
        assert rel_err(_capped_pass(filt, shuffled, cap), base[perm]) <= 1e-9

    def test_rotation_in_cylindrical_coordinates(self):
        # points expressed as (rho, phi, z) and neighbourhoods computed in
        # that coordinate space: a rotation is a shift of phi, so outputs
        # are unchanged as long as no neighbourhood spans the seam
        rng = np.random.default_rng(12)
        m = 40
        coords = np.stack([rng.uniform(1.0, 1.5, m),
                           rng.uniform(-1.0, 1.0, m),
                           rng.uniform(0.0, 0.5, m)], axis=1)
        feats = rng.normal(size=(m, 2))
        filt = random_filter(rng, 3, 0.2, 2, 2)
        r = conv.default_radius(filt.grid)
        base_cloud = pointcloud.PointCloud(positions=coords, features=feats)
        base = conv.forward_features(
            feats, neighbor_table(base_cloud, r, 16), filt)
        rotated = coords + np.array([0.0, 0.4, 0.0])
        rot_cloud = pointcloud.PointCloud(positions=rotated, features=feats)
        out = conv.forward_features(
            feats, neighbor_table(rot_cloud, r, 16), filt)
        assert rel_err(out, base) <= 1e-9


class TestBackward:
    def _instance(self, seed, m=10, d_in=2, d_out=2, k=3):
        """Writable weight/bias/feature masters plus a builder, so finite
        differences can perturb them (filter construction freezes arrays)."""
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, m, d_in, extent=0.4)
        g = conv.grid_from_spacing(k, 0.2)
        w = rng.normal(size=(g.num_anchors, d_in, d_out))
        b = rng.normal(size=d_out)
        r = conv.default_radius(g)
        table = neighbor_table(cloud, r, 8)
        up = rng.normal(size=(table.num_queries, d_out))
        feats = cloud.features.copy()

        def build():
            return conv.DeformableFilter(grid=g, weights=w.copy(), bias=b.copy())

        return feats, w, b, build, table, up

    def test_gradients_match_finite_differences(self):
        for seed in range(4):
            feats, w, b, build, table, up = self._instance(seed)

            def loss():
                return float(np.sum(conv.forward_features(feats, table, build()) * up))

            gf, gw, gb = conv.backward_features(feats, table, build(), up)
            assert grad_rel(gw, fd_grad(loss, w)) <= 1e-6
            assert grad_rel(gf, fd_grad(loss, feats)) <= 1e-6
            assert grad_rel(gb, fd_grad(loss, b)) <= 1e-6

    def test_zero_upstream_zero_grads(self):
        feats, w, b, build, table, up = self._instance(4)
        gf, gw, gb = conv.backward_features(feats, table, build(), np.zeros_like(up))
        assert not np.any(gf) and not np.any(gw) and not np.any(gb)

    def test_grad_bias_is_upstream_sum(self):
        feats, w, b, build, table, up = self._instance(5)
        _, _, gb = conv.backward_features(feats, table, build(), up)
        assert np.allclose(gb, up.sum(axis=0), atol=1e-15)

    def test_single_point_one_hot_upstream(self):
        # one point sees only itself at offset 0; the whole weight gradient
        # lands on the centre anchor as f outer one-hot
        g = conv.grid_from_spacing(3, 0.2)
        feats = np.array([[2.0, -3.0]])
        filt = conv.DeformableFilter(grid=g, weights=np.zeros((27, 2, 3)))
        pos = np.zeros((1, 3))
        index = spatial.build_index(pos, 0.7)
        table = spatial.radius_neighbors(index, pos, 0.7, 4)
        up = np.array([[0.0, 1.0, 0.0]])
        gf, gw, gb = conv.backward_features(feats, table, filt, up)
        expect = np.zeros((27, 2, 3))
        expect[13] = np.outer(feats[0], up[0])
        assert np.array_equal(gw, expect)

    def test_adjoint_identity_multi_block(self, monkeypatch):
        feats, table, filt, rng = _multi_block_instance(12)
        up = rng.normal(size=(table.num_queries, filt.out_dim))
        out, _ = _forward_on_threads(monkeypatch, feats, table, filt)
        assert rel_err(out, conv.oracle_forward_features(feats, table, filt)) <= 1e-12
        gf, gw, _ = conv.backward_features(feats, table, filt, up)
        lhs = float(np.sum(up * out))
        assert _adjoint_gap(lhs, gf, feats) <= 1e-12
        assert _adjoint_gap(lhs, gw, filt.weights) <= 1e-12

    def test_several_query_blocks(self, monkeypatch):
        # 1,600 queries x 343 anchors exceed the block budget, so each
        # channel runs in the several query blocks the block rule cuts
        rng = np.random.default_rng(21)
        cloud = random_cloud(rng, 1600, 2, extent=1.5)
        filt = random_filter(rng, 7, 0.2, 2, 3, bias=True)
        table = neighbor_table(cloud, conv.default_radius(filt.grid), 8)
        starts = conv._kernel_map(table, filt.grid)[0]
        blocks = spatial._spans(8 * starts, filt.grid.num_anchors)
        assert len(blocks) > 1
        up = rng.normal(size=(table.num_queries, filt.out_dim))
        out, parts = _forward_on_threads(monkeypatch, cloud.features, table, filt)
        assert rel_err(out, conv.oracle_forward_features(cloud.features, table, filt)) <= 1e-12
        parts.clear()
        gf, gw, _ = conv.backward_features(cloud.features, table, filt, up)
        assert sorted({(q0, q1) for _, q0, q1 in parts}) == blocks
        lhs = float(np.sum(up * (out - filt.bias)))
        assert _adjoint_gap(lhs, gf, cloud.features) <= 1e-12
        assert _adjoint_gap(lhs, gw, filt.weights) <= 1e-12
        # the same gradients from a single block, up to rounding
        monkeypatch.setattr(spatial, "_BLOCK_VALUES",
                            max(table.num_queries * filt.grid.num_anchors, 8 * int(starts[-1])))
        parts.clear()
        one_f, one_w, _ = conv.backward_features(cloud.features, table, filt, up)
        assert {(q0, q1) for _, q0, q1 in parts} == {(0, table.num_queries)}
        assert rel_err(gf, one_f) <= 1e-12 and rel_err(gw, one_w) <= 1e-12

    def test_upstream_shape_rejected(self):
        feats, w, b, build, table, up = self._instance(8)
        with pytest.raises(ValueError):
            conv.backward_features(feats, table, build(), up[:, :1])


class TestSeparable:
    def _instance(self, seed, m=24, d_in=3, d_out=2):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, m, d_in, extent=0.5)
        g = conv.grid_from_spacing(3, 0.2)
        sf = conv.SeparableFilter(
            grid=g,
            spatial=rng.normal(size=(27, d_in)),
            pointwise=rng.normal(size=(d_in, d_out)),
            bias=rng.normal(size=d_out))
        spec = conv.ConvLayerSpec(grid=g, radius=conv.default_radius(g), cap=12)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        return cloud, sf, table

    def test_matches_rank_one_full_filter(self):
        for seed in range(6):
            cloud, sf, table = self._instance(seed)
            # rank-1 expansion: W[a, i, o] = spatial[a, i] * pointwise[i, o]
            w = sf.spatial[:, :, None] * sf.pointwise[None, :, :]
            full = conv.DeformableFilter(grid=sf.grid, weights=w, bias=sf.bias)
            a = conv.forward_separable_features(cloud.features, table, sf)
            b = conv.forward_features(cloud.features, table, full)
            assert rel_err(a, b) <= 1e-12

    def test_identity_composition(self):
        # centre-anchor spatial weights + identity pointwise on one point: h = f
        g = conv.grid_from_spacing(3, 0.2)
        spatial_w = np.zeros((27, 2))
        spatial_w[13] = 1.0
        sf = conv.SeparableFilter(grid=g, spatial=spatial_w, pointwise=np.eye(2))
        pos = np.zeros((1, 3))
        feats = np.array([[0.7, -1.9]])
        index = spatial.build_index(pos, 0.7)
        table = spatial.radius_neighbors(index, pos, 0.7, 4)
        out = conv.forward_separable_features(feats, table, sf)
        assert np.array_equal(out, feats)

    def test_zero_pointwise_zero_output(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 12, 2, extent=0.4)
        g = conv.grid_from_spacing(3, 0.2)
        sf = conv.SeparableFilter(grid=g, spatial=rng.normal(size=(27, 2)),
                                  pointwise=np.zeros((2, 3)))
        table = neighbor_table(cloud, conv.default_radius(g), 8)
        out = conv.forward_separable_features(cloud.features, table, sf)
        assert not np.any(out)

    @pytest.mark.parametrize("k", [3, 7])
    def test_gradcheck(self, k):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 14, 3, extent=0.5)
        g = conv.grid_from_spacing(k, 0.2)
        s = rng.normal(size=(g.num_anchors, 3))
        p = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        r = conv.default_radius(g)
        table = neighbor_table(cloud, r, 6)
        # cap cuts some neighbourhoods
        assert neighbor_table(cloud, r, 14).counts.max() > 6
        up = rng.normal(size=(table.num_queries, 2))
        feats = cloud.features.copy()

        def build():
            return conv.SeparableFilter(grid=g, spatial=s.copy(),
                                        pointwise=p.copy(), bias=b.copy())

        def loss():
            return float(np.sum(
                conv.forward_separable_features(feats, table, build()) * up))

        gf, gs, gp, gb = conv.backward_separable_features(feats, table, build(), up)
        assert grad_rel(gs, fd_grad(loss, s)) <= 1e-6
        assert grad_rel(gp, fd_grad(loss, p)) <= 1e-6
        assert grad_rel(gf, fd_grad(loss, feats)) <= 1e-6
        assert grad_rel(gb, fd_grad(loss, b)) <= 1e-6

    def test_adjoint_identity_multi_block(self, monkeypatch):
        feats, table, full, rng = _multi_block_instance(13)
        sf = conv.SeparableFilter(grid=full.grid,
                                  spatial=rng.normal(size=(full.grid.num_anchors, 24)),
                                  pointwise=rng.normal(size=(24, 4)))
        up = rng.normal(size=(table.num_queries, sf.out_dim))
        parts, _ = _record_parts(monkeypatch)
        out = conv.forward_separable_features(feats, table, sf)
        rank_one = conv.DeformableFilter(
            grid=sf.grid, weights=sf.spatial[:, :, None] * sf.pointwise[None, :, :])
        assert rel_err(out, conv.oracle_forward_features(feats, table, rank_one)) <= 1e-12
        gf, gs, gp, _ = conv.backward_separable_features(feats, table, sf, up)
        # the separable passes run on the kernel map, without anchor sums
        assert not parts
        lhs = float(np.sum(up * out))
        assert _adjoint_gap(lhs, gf, feats) <= 1e-12
        assert _adjoint_gap(lhs, gs, sf.spatial) <= 1e-12
        assert _adjoint_gap(lhs, gp, sf.pointwise) <= 1e-12


class TestKernelMap:
    """The corner gather runs once per (table, grid) and keeps only the
    pairs with a nonzero weight."""

    def _instance(self, seed, m=60):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, m, 3, extent=0.5)
        first = random_filter(rng, 3, 0.2, 3, 4, bias=True)
        second = random_filter(rng, 3, 0.2, 4, 2, bias=True)
        table = neighbor_table(cloud, conv.default_radius(first.grid), 16)
        return cloud.features, table, first, second, rng

    def _copy(self, table):
        # a new table object holding the same pairs: its map is built fresh
        return spatial.NeighborTable(table.starts, table.indices, table.offsets,
                                     table.radius, table.cap)

    def test_one_gather_for_two_layers_forward_and_backward(self, monkeypatch):
        feats, table, first, second, rng = self._instance(1)
        calls = []
        real = conv._corner_gather

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(conv, "_corner_gather", counting)
        hidden = conv.forward_features(feats, table, first)
        out = conv.forward_features(hidden, table, second)
        up = rng.normal(size=out.shape)
        g_hidden, _, _ = conv.backward_features(hidden, table, second, up)
        conv.backward_features(feats, table, first, g_hidden)
        assert len(calls) == 1

    def test_alternating_tables_match_fresh_calls(self):
        feats_a, table_a, filt, _, _ = self._instance(2, m=60)
        feats_b, table_b, _, _, _ = self._instance(3, m=45)
        fresh_a = conv.forward_features(feats_a, self._copy(table_a), filt)
        fresh_b = conv.forward_features(feats_b, self._copy(table_b), filt)
        for _ in range(2):
            assert np.array_equal(conv.forward_features(feats_a, table_a, filt), fresh_a)
            assert np.array_equal(conv.forward_features(feats_b, table_b, filt), fresh_b)
        oracle = conv.oracle_forward_features(feats_b, table_b, filt)
        assert rel_err(fresh_b, oracle) <= 1e-12

    @pytest.mark.parametrize("separable", [False, True], ids=["full", "separable"])
    def test_all_zero_weight_pairs_give_exactly_the_bias(self, separable):
        filt = random_filter(np.random.default_rng(4), 3, 0.2, 2, 3, bias=True)
        reach = (filt.grid.half + 1) * 0.2
        # every offset sits on or beyond the support box on some axis
        offsets = np.array([[reach, 0.0, 0.0], [0.0, -reach, 0.1],
                            [0.05, 0.1, 1.5 * reach], [-2 * reach, reach, 0.0]])
        table = spatial.NeighborTable(
            starts=np.array([0, 1, 4]), indices=np.array([0, 1, 2, 0]),
            offsets=offsets, radius=3 * filt.grid.support_radius(), cap=4)
        feats = np.random.default_rng(5).normal(size=(3, 2))
        assert conv._kernel_map(table, filt.grid)[1].shape == (0,)
        if separable:
            filt = _separable(filt.grid, np.random.default_rng(6), 2, 3)
            out = conv.forward_separable_features(feats, table, filt)
            grads = conv.backward_separable_features(feats, table, filt, np.ones((2, 3)))
        else:
            out = conv.forward_features(feats, table, filt)
            grads = conv.backward_features(feats, table, filt, np.ones((2, 3)))
        assert np.array_equal(out, np.tile(filt.bias, (2, 1)))
        assert not any(g.any() for g in grads[:-1])

    def test_map_released_with_its_table(self):
        _, table, filt, _, _ = self._instance(6)
        released = weakref.ref(conv._kernel_map(table, filt.grid)[3])
        _, other, _, _, _ = self._instance(7)
        kept = weakref.ref(conv._kernel_map(other, filt.grid)[3])
        assert released() is None  # replaced by the newer table's map
        del other
        gc.collect()
        assert kept() is None

    def test_older_table_death_keeps_newer_map(self):
        _, table, filt, _, _ = self._instance(8)
        conv._kernel_map(table, filt.grid)
        reader = dict(conv._KERNEL_MAPS)  # still holds the older entry
        _, other, _, _, _ = self._instance(9)
        kept = weakref.ref(conv._kernel_map(other, filt.grid)[3])
        del table
        gc.collect()
        assert kept() is not None
        assert conv._kernel_map(other, filt.grid)[3] is kept()
        del reader


class TestPinnedKernelMaps:
    """The kernel maps of the benchmark's clouds at cap 16 keep the values
    they had when ids and w were stored pair-major, (pairs, 8)."""

    DIGESTS = {
        "toy-seg": ("5ffe6a7813a190bfedd04828501886f9a18c42f626df714da6fe41e2ac287e1d", 3),
        "scene-k3": ("1b5dbb368f646c68d7871967187067cfb3028331b6224660db81dac99b10b6de", 3),
        "scene-k7": ("7b041125b082463d383f44b94191af5dff484679952e5fec40508dfeb99f8b87", 7),
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_map_bytes(self, name):
        digest, k = self.DIGESTS[name]
        pos, r = benchmark_cloud(name)
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        h = hashlib.sha256()
        for arr in conv._kernel_map(table, conv.grid_from_spacing(k, 0.2)):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest


class TestFilterValidation:
    def test_weight_shape_checked(self):
        g = conv.grid_from_spacing(3, 0.2)
        with pytest.raises(ValueError):
            conv.DeformableFilter(grid=g, weights=np.zeros((26, 1, 1)))
        with pytest.raises(ValueError):
            conv.DeformableFilter(grid=g, weights=np.zeros((27, 1, 1)),
                                  bias=np.zeros(2))
        with pytest.raises(ValueError):
            conv.SeparableFilter(grid=g, spatial=np.zeros((27, 2)),
                                 pointwise=np.zeros((3, 2)))
