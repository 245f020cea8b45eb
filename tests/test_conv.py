"""Deformable-filter convolution: interpolation, forward, backward, equivariance."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from deformconv import conv, nn, pointcloud, spatial
from deformconv.rng import DetRng
from conftest import (benchmark_cloud, fd_grad, fresh_table, full_pass, grad_rel,
                      map_entries, map_pairs_per_query, neighbor_table, on_both_passes,
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

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_corner_gather_at_the_support_edge(self, k):
        # offsets on, and a few ulps either side of, the lattice planes and
        # +-(h + 1) * unit: the batched gather keeps exactly the offsets
        # with a nonzero corner of their two floor planes per axis, with
        # those corners' ids and weights. (Within ulps of a plane,
        # enclosing_anchors can also hold a third plane's ~1e-16 weight.)
        g = conv.grid_from_spacing(k, [0.2, 0.3, 0.1])
        rng = np.random.default_rng(k)
        planes = np.arange(-g.half - 2, g.half + 3)[:, None] * g.unit
        values, up, down = [planes], planes, planes
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            values += [up, down]
        values = np.concatenate(values)  # per axis, its candidate coordinates
        offsets = np.stack([rng.choice(values[:, d], 600) for d in range(3)], axis=1)
        kept, ids, w = conv._corner_gather(offsets, g)
        for row, z in enumerate(offsets):
            want = _floor_corners(z, g)
            if row not in kept:
                assert want == []
                continue
            col = int(np.searchsorted(kept, row))
            assert [(int(a), float(v)) for a, v in zip(ids[:, col], w[:, col]) if v] == want

    @pytest.mark.parametrize("k", [3, 7])
    def test_corner_gather_a_few_ulps_below_a_plane(self, k):
        # offsets on, and 1 to 4 ulps below, the lattice planes. At k = 7
        # the planes +-3 * unit are inexact, and an offset there can have
        # o / unit land on the next plane while its hat at the inexact one
        # is ~1e-16: the gather keeps the two planes from the floor and
        # drops that one. The corners it keeps have trilinear_weight's
        # bits, and the ones it drops weigh below 2^-50. At k = 3 every
        # plane (0, +-unit) is exact, rounding is monotone, and none drops
        g = conv.grid_from_spacing(k, [0.2, 0.3, 0.1])
        rng = np.random.default_rng(k)
        below = np.arange(-g.half, g.half + 2)[:, None] * g.unit
        values = [below]
        for _ in range(4):
            below = np.nextafter(below, -np.inf)
            values.append(below)
        values = np.concatenate(values)  # per axis, its candidate coordinates
        offsets = np.stack([rng.choice(values[:, d], 300) for d in range(3)], axis=1)
        kept, ids, w = conv._corner_gather(offsets, g)
        anchors, scan = g.anchor_positions(), conv._hat_all(offsets, g)
        dropped = 0
        for row, z in enumerate(offsets):
            got = {}
            if row in kept:
                col = int(np.searchsorted(kept, row))
                got = {int(a): v for a, v in zip(ids[:, col], w[:, col]) if v}
            assert all(v == conv.trilinear_weight(z, anchors[a], g.unit) for a, v in got.items())
            missed = [v for a, v in enumerate(scan[row]) if v and a not in got]
            assert all(v < 2.0 ** -50 for v in missed)
            dropped += len(missed)
        assert (dropped > 0) == (k == 7)

def _floor_corners(z: np.ndarray, g: conv.AnchorGrid) -> list[tuple[int, float]]:
    """The nonzero corners of offset z on the planes floor(z / unit) and
    one above it per axis, one offset at a time: the gather's rule."""
    axes = []
    for d in range(3):
        u = float(g.unit[d])
        base = float(np.floor(z[d] / u))
        axes.append([(int(p), max(1.0 - abs(z[d] - p * u) / u, 0.0) if abs(p) <= g.half else 0.0)
                     for p in (base, base + 1.0)])
    corners = [(g.anchor_index(i, j, l), (wi * wj) * wl)
               for i, wi in axes[0] for j, wj in axes[1] for l, wl in axes[2]
               if max(abs(i), abs(j), abs(l)) <= g.half]
    return [(a, v) for a, v in corners if v]


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
    runs it as two query blocks of 24 parts, one per channel."""
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
        for i, rows, result in real_parts(*args, **kwargs):
            parts.append((i, rows.start, rows.stop))
            yield i, rows, result

    class Pool(real_pool):
        def map(self, fn, *iterables, **kwargs):
            items = list(iterables[0])
            pooled.append([(i, block[0].start, block[0].stop) for i, block in items])
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
    @on_both_passes
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
    @on_both_passes
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

    @on_both_passes
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

    @on_both_passes
    def test_zero_features_zero_output(self):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, 16, 2, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 2, 2)
        spec = _spec_for(filt)
        table = neighbor_table(cloud, spec.radius, spec.cap)
        out = conv.forward_features(np.zeros((16, 2)), table, filt)
        assert not np.any(out)

    @on_both_passes
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

    @on_both_passes
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

    @on_both_passes
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

    @on_both_passes
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

    @on_both_passes
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

    @on_both_passes
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

    @pytest.mark.parametrize("bad", [-1, 10], ids=["negative", "past-the-rows"])
    def test_neighbour_ids_outside_the_rows_rejected(self, bad):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 10, 2, extent=0.2)
        filt = random_filter(rng, 3, 0.2, 2, 2)
        sf = _separable(filt.grid, rng, 2, 2)
        spec = _spec_for(filt)
        good = neighbor_table(cloud, spec.radius, spec.cap)
        ids = good.indices.copy()
        ids[-1] = bad
        table = dataclasses.replace(good, indices=ids)
        feats, up = cloud.features, np.ones((table.num_queries, 2))
        for call in (lambda: conv.forward_features(feats, table, filt),
                     lambda: conv.oracle_forward_features(feats, table, filt),
                     lambda: conv.backward_features(feats, table, filt, up),
                     lambda: conv.forward_separable_features(feats, table, sf),
                     lambda: conv.backward_separable_features(feats, table, sf, up)):
            with pytest.raises(ValueError, match="outside the feature rows"):
                call()

    def test_radius_below_support_rejected(self):
        g = conv.grid_from_spacing(3, 0.2)
        with pytest.raises(ValueError):
            conv.ConvLayerSpec(grid=g, radius=0.5, cap=16)


class TestEquivariance:
    @on_both_passes
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

    @on_both_passes
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
    @on_both_passes
    def test_translation_with_cap_cutting(self, seed, m, cap, separable, shift):
        instance = _untied_capped_instance(seed, m, cap, separable)
        assume(instance is not None)
        cloud, filt, _ = instance
        base = _capped_pass(filt, cloud, cap)
        out = _capped_pass(filt, cloud.translated(np.array(shift)), cap)
        assert rel_err(out, base) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(12, 40), st.integers(2, 8), st.booleans())
    @on_both_passes
    def test_permutation_with_cap_cutting(self, seed, m, cap, separable):
        instance = _untied_capped_instance(seed, m, cap, separable)
        assume(instance is not None)
        cloud, filt, rng = instance
        perm = rng.permutation(m)
        shuffled = pointcloud.PointCloud(positions=cloud.positions[perm],
                                         features=cloud.features[perm])
        base = _capped_pass(filt, cloud, cap)
        assert rel_err(_capped_pass(filt, shuffled, cap), base[perm]) <= 1e-9

    @on_both_passes
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

    @on_both_passes
    def test_gradients_match_finite_differences(self):
        for seed in range(4):
            feats, w, b, build, table, up = self._instance(seed)

            def loss():
                return float(np.sum(conv.forward_features(feats, table, build()) * up))

            gf, gw, gb = conv.backward_features(feats, table, build(), up)
            assert grad_rel(gw, fd_grad(loss, w)) <= 1e-6
            assert grad_rel(gf, fd_grad(loss, feats)) <= 1e-6
            assert grad_rel(gb, fd_grad(loss, b)) <= 1e-6

    @on_both_passes
    def test_zero_upstream_zero_grads(self):
        feats, w, b, build, table, up = self._instance(4)
        gf, gw, gb = conv.backward_features(feats, table, build(), np.zeros_like(up))
        assert not np.any(gf) and not np.any(gw) and not np.any(gb)

    @on_both_passes
    def test_grad_bias_is_upstream_sum(self):
        feats, w, b, build, table, up = self._instance(5)
        _, _, gb = conv.backward_features(feats, table, build(), up)
        assert np.allclose(gb, up.sum(axis=0), atol=1e-15)

    @on_both_passes
    def test_input_grad_false_builds_none(self):
        # both operators return the feature gradient as a C-contiguous
        # (M, in) array, or None in its place when told nothing reads it,
        # with the other gradients' bits unchanged
        feats, w, b, build, table, up = self._instance(6, d_in=3)
        sf = _separable(build().grid, np.random.default_rng(6), 3, 2)
        for backward, filt in ((conv.backward_features, build()),
                               (conv.backward_separable_features, sf)):
            full = backward(feats, table, filt, up)
            assert full[0].shape == feats.shape and full[0].flags.c_contiguous
            none = backward(feats, table, filt, up, input_grad=False)
            assert none[0] is None
            assert all(np.array_equal(x, y) for x, y in zip(full[1:], none[1:]))

    @on_both_passes
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
        blocks = [(b[0].start, b[0].stop) for b in conv._kernel_map(table, filt.grid)]
        assert blocks == spatial._spans(8 * table.starts, filt.grid.num_anchors)
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
        # the same gradients from a single block, up to rounding: a new
        # table object, so that its map is cut under the larger budget
        monkeypatch.setattr(spatial, "_BLOCK_VALUES",
                            max(table.num_queries * filt.grid.num_anchors, 8 * table.num_pairs))
        parts.clear()
        one_f, one_w, _ = conv.backward_features(cloud.features, fresh_table(table), filt, up)
        assert {(q0, q1) for _, q0, q1 in parts} == {(0, table.num_queries)}
        assert rel_err(gf, one_f) <= 1e-12 and rel_err(gw, one_w) <= 1e-12

    @pytest.mark.parametrize("blocks", ["one", "several", "dense"])
    def test_kept_sums_give_the_same_bits(self, monkeypatch, blocks):
        # on the channel pass, test_several_query_blocks' instance with a
        # budget that holds every query in one block or the default one
        # that cuts several; on the dense pass, a table whose H fits
        rng = np.random.default_rng(21)
        m, k, cap = (300, 3, 16) if blocks == "dense" else (1600, 7, 8)
        cloud = random_cloud(rng, m, 2, extent=0.6 if blocks == "dense" else 1.5)
        filt = random_filter(rng, k, 0.2, 2, 3, bias=True)
        table = neighbor_table(cloud, conv.default_radius(filt.grid), cap)
        if blocks == "one":
            monkeypatch.setattr(spatial, "_BLOCK_VALUES", max(
                table.num_queries * filt.grid.num_anchors, 8 * table.num_pairs))
        dense = conv._dense_map(table, filt.grid, filt.in_dim) is not None
        assert dense == (blocks == "dense")
        assert dense or (len(conv._kernel_map(table, filt.grid)) == 1) == (blocks == "one")
        up = rng.normal(size=(table.num_queries, filt.out_dim))
        sums = []
        conv.forward_features(cloud.features, table, filt, sums=sums)
        # the dense pass keeps one part of all channels, the channel pass none
        assert [s.shape for s in sums] == ([(m, filt.grid.num_anchors, 2)] if dense else [])
        kept = conv.backward_features(cloud.features, table, filt, up, sums=sums)
        rebuilt = conv.backward_features(cloud.features, table, filt, up)
        assert all(np.array_equal(a, b) for a, b in zip(kept, rebuilt))
        if dense:
            # the sums given are the ones read: zero sums zero only grad_weights
            gf, gw, gb = conv.backward_features(cloud.features, table, filt, up,
                                                sums=[np.zeros_like(sums[0])])
            assert np.array_equal(gf, rebuilt[0]) and np.array_equal(gb, rebuilt[2])
            assert not np.any(gw)

    @pytest.mark.parametrize("source", ["other table", "other k", "one part short",
                                        "one part extra", "other pass"])
    @on_both_passes
    def test_mismatched_sums_rejected(self, source):
        # the dense pass takes only the one (queries, k^3, in) array it
        # keeps, the channel pass only an empty list; an empty list, like
        # none, makes either pass rebuild its sums
        rng = np.random.default_rng(22)
        cloud = random_cloud(rng, 30, 2, extent=0.5)
        filt = random_filter(rng, 3, 0.2, 2, 3)
        table = neighbor_table(cloud, conv.default_radius(filt.grid), 8)
        up = rng.normal(size=(table.num_queries, filt.out_dim))
        own = []  # the sums this pass keeps
        conv.forward_features(cloud.features, table, filt, sums=own)
        dense = conv._dense_map(table, filt.grid, 2) is not None
        assert [s.shape for s in own] == ([(30, 27, 2)] if dense else [])
        sums = {
            "other table": [np.zeros((20, 27, 2))],
            "other k": [np.zeros((30, 125, 2))],
            "one part short": [np.zeros((30, 27, 1))],  # one input channel short
            "one part extra": own + [np.zeros((30, 27, 2))],
            # the dense pass's sums, or per-(block, channel) sums, which no
            # pass keeps
            "other pass": [np.zeros((30, 27))] * 2 if dense else [np.zeros((30, 27, 2))],
        }[source]
        with pytest.raises(ValueError, match="kept anchor sums"):
            conv.backward_features(cloud.features, table, filt, up, sums=sums)
        expect = conv.backward_features(cloud.features, table, filt, up)
        for given in (own, []):
            got = conv.backward_features(cloud.features, table, filt, up, sums=given)
            assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    def test_upstream_shape_rejected(self):
        feats, w, b, build, table, up = self._instance(8)
        with pytest.raises(ValueError):
            conv.backward_features(feats, table, build(), up[:, :1])


class TestDensePass:
    """A table whose per-query interpolation matrix H fits the block
    budget takes the dense pass: batched GEMMs over H, all input channels
    at once."""

    def _toy(self, seed: int, d_in: int, d_out: int):
        """(features, table, filter, upstream) on the toy-seg cloud's
        table, which takes the dense pass."""
        pos, r = benchmark_cloud("toy-seg")
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, 3, 0.2, d_in, d_out, bias=True)
        assert conv._dense_map(table, filt.grid, d_in) is not None
        return (rng.normal(size=(pos.shape[0], d_in)), table, filt,
                rng.normal(size=(pos.shape[0], d_out)))

    @pytest.mark.parametrize("k, m", [(1, 200), (3, 256), (5, 60)])
    def test_both_passes_agree(self, k, m):
        rng = np.random.default_rng(40 + k)
        cloud = random_cloud(rng, m, 4, extent=0.6)
        filt = random_filter(rng, k, 0.2, 4, 5, bias=True)
        table = neighbor_table(cloud, conv.default_radius(filt.grid), 16)
        up = rng.normal(size=(m, 5))
        assert conv._dense_map(table, filt.grid, 4) is not None
        dense = (conv.forward_features(cloud.features, table, filt),
                 *conv.backward_features(cloud.features, table, filt, up))
        with pytest.MonkeyPatch.context() as mp:
            full_pass(mp, "channel")
            channel = (conv.forward_features(cloud.features, table, filt),
                       *conv.backward_features(cloud.features, table, filt, up))
        for got, want in zip(dense, channel):
            assert rel_err(got, want) <= 1e-12
        # the dense pass's adjoint identity
        lhs = float(np.sum(up * (dense[0] - filt.bias)))
        assert _adjoint_gap(lhs, dense[1], cloud.features) <= 1e-12
        assert _adjoint_gap(lhs, dense[2], filt.weights) <= 1e-12

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_stays_with_its_pairs(self, bad):
        feats, table, filt, up = self._toy(41, 2, 8)
        clean = conv.forward_features(feats, table, filt)
        qid = np.repeat(np.arange(table.num_queries), table.counts)
        # row 0 is the one the pad slots are gathered from
        for row in (0, 100):
            broken = feats.copy()
            broken[row, 1] = bad
            with np.errstate(invalid="ignore"):
                out = conv.forward_features(broken, table, filt)
            others = np.setdiff1d(np.arange(table.num_queries), qid[table.indices == row])
            assert others.size > table.num_queries // 2
            assert np.array_equal(out[others], clean[others])
        # a non-finite upstream row reaches only its query's neighbours; the
        # query has pad slots, and point 0 is not among its neighbours
        clean = conv.backward_features(feats, table, filt, up)[0]
        h, _, pads = conv._dense_map(table, filt.grid, 2)
        padded = np.unique(pads // h.shape[2])  # queries with a pad slot
        q = next(q for q in padded if 0 not in table.neighbors_of(q)[0])
        broken = up.copy()
        broken[q, 3] = bad
        with np.errstate(invalid="ignore"):
            gf = conv.backward_features(feats, table, filt, broken)[0]
        others = np.setdiff1d(np.arange(feats.shape[0]), table.neighbors_of(q)[0])
        assert 0 in others and np.array_equal(gf[others], clean[others])

    def _is_the_kernel_map(self, table, grid):
        # H, cols and pads, built from the table alone, hold each kernel-map
        # pair's corner weights and neighbour in the slot the pair takes in
        # its table row; every other slot is a pad. Built once per table
        h, cols, pads = conv._dense_map(table, grid, 2)
        assert conv._dense_map(table, grid, 1)[0] is h
        want = _dense_from_kernel_map(table, grid)
        for got, ref in zip((h, cols, pads), want):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
        assert not h.transpose(0, 2, 1).reshape(-1, grid.num_anchors)[pads].any()

    def test_interpolation_matrix_is_the_kernel_map(self):
        self._is_the_kernel_map(*_dense_case("toy-seg", 3))

    @pytest.mark.parametrize("case, k", [("sparse", 1), ("sparse", 3), ("sparse", 5),
                                         ("no queries", 3), ("cap 1", 3)])
    def test_interpolation_matrix_of_uneven_tables(self, case, k):
        table, grid = _dense_case(case, k)
        self._is_the_kernel_map(table, grid)
        if case == "sparse":
            # rows of different lengths, empty rows, and pairs zero at every corner
            counts, held = table.counts, map_pairs_per_query(table, grid)
            assert counts.min() == 0 < held.max() < counts.max() and held.sum() < counts.sum()

    def test_dense_pass_builds_no_kernel_map(self, monkeypatch):
        # forward, backward and a training epoch on dense-pass tables
        def gather(*args):
            raise AssertionError("the dense pass built a kernel map")

        monkeypatch.setattr(conv, "_corner_gather", gather)
        feats, table, filt, up = self._toy(43, 2, 8)
        out = conv.forward_features(feats, table, filt)
        conv.backward_features(feats, table, filt, up)
        rng = np.random.default_rng(44)
        clouds = tuple(pointcloud.PointCloud(c.positions, c.features, rng.integers(0, 2, 30))
                       for c in (random_cloud(rng, 30, 2, extent=0.5) for _ in range(3)))
        ds = pointcloud.Dataset(clouds=clouds, num_classes=2, task="segmentation")
        specs = [{"type": "deformable", "k": 3, "a": [0.2] * 3, "r": None, "cap": 16,
                  "in": 2, "out": 4, "skip": 0}, {"type": "relu"},
                 {"type": "linear", "in": 4, "out": 2}]
        stack = nn.build_stack(specs, "segmentation", rng=DetRng(5))
        nn.train_stack(stack, ds, lr=1e-3, weight_decay=0.0, epochs=1, batch_size=2,
                       rng=DetRng(6))
        assert rel_err(out, conv.oracle_forward_features(feats, table, filt)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_on_a_zero_weight_pair(self, bad):
        # a pair whose weight is zero at all eight corners is a pad: its
        # neighbour's features never reach its query
        feats, table, filt, _ = self._toy(45, 2, 8)
        clean = conv.forward_features(feats, table, filt)
        qid = np.repeat(np.arange(table.num_queries), table.counts)
        weighs = conv._hat_all(table.offsets, filt.grid).any(axis=1)
        assert not weighs.all()
        row = table.indices[np.flatnonzero(~weighs)[0]]
        # the queries that hold row only in zero-weight pairs
        zero_only = np.setdiff1d(qid[table.indices == row], qid[(table.indices == row) & weighs])
        assert zero_only.size
        broken = feats.copy()
        broken[row] = bad
        with np.errstate(invalid="ignore"):
            out = conv.forward_features(broken, table, filt)
        assert np.array_equal(out[zero_only], clean[zero_only])
        assert not np.isfinite(out[row]).all()  # row weighs itself


def _dense_case(case: str, k: int):
    """(table, grid) of one dense-pass case: the toy-seg table; a sparse
    search whose rows differ in length, some empty, some holding pairs
    zero at every corner; a table with no queries; and cap 1."""
    grid = conv.grid_from_spacing(k, 0.2)
    r = conv.default_radius(grid)
    if case == "toy-seg":
        pos, r = benchmark_cloud("toy-seg")
        return spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16), grid
    rng = np.random.default_rng(46 + k)
    pos = rng.uniform(-0.3 * k, 0.3 * k, (40, 3))
    queries = {"sparse": np.concatenate([pos[:20], rng.uniform(5, 6, (3, 3))]),
               "no queries": np.empty((0, 3)), "cap 1": pos}[case]
    cap = 1 if case == "cap 1" else 16
    return spatial.radius_neighbors(spatial.build_index(pos, r), queries, r, cap), grid


def _dense_from_kernel_map(table: spatial.NeighborTable, grid: conv.AnchorGrid):
    """(H, cols, pads) assembled entry by entry from the kernel map, with
    the table's largest row count as slots."""
    q, a = table.num_queries, grid.num_anchors
    slots = int(table.counts.max(initial=0))
    h, cols = np.zeros((q, a, slots)), np.zeros(q * slots, dtype=np.int64)
    held = set()
    for i, anchor, nbr, w in zip(*map_entries(conv._kernel_map(table, grid), a)):
        j = list(table.neighbors_of(i)[0]).index(nbr)
        h[i, anchor, j] += w
        cols[i * slots + j] = nbr
        held.add(i * slots + j)
    return h, cols, np.setdiff1d(np.arange(q * slots), sorted(held))


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


def _reordered(cloud: pointcloud.PointCloud, order: str, r: float, seed: int = 0):
    """The cloud in cell order (the order an nn.LayerContext runs in, at
    radius r) or in a random order."""
    if order == "cell":
        perm = spatial.cell_order(cloud.positions, r)[0]
    else:
        perm = np.random.default_rng(seed).permutation(cloud.num_points)
    return pointcloud.PointCloud(cloud.positions[perm], cloud.features[perm])


class TestPermutedClouds:
    """Oracle, adjoint and gradient checks for both operators on clouds
    whose points come in cell order and in a random order, on both passes
    of the full operator, at the usual tolerances."""

    @pytest.mark.parametrize("order", ["cell", "random"])
    @pytest.mark.parametrize("k", [3, 7])
    @on_both_passes
    def test_oracle_and_adjoint(self, k, order):
        rng = np.random.default_rng(40 + k)
        filt = random_filter(rng, k, 0.2, 3, 4, bias=True)
        r = conv.default_radius(filt.grid)
        cloud = _reordered(random_cloud(rng, 300, 3, extent=1.0), order, r, k)
        table = neighbor_table(cloud, r, 12)
        feats = cloud.features
        up = rng.normal(size=(table.num_queries, 4))
        out = conv.forward_features(feats, table, filt)
        assert rel_err(out, conv.oracle_forward_features(feats, table, filt)) <= 1e-12
        gf, gw, _ = conv.backward_features(feats, table, filt, up)
        lhs = float(np.sum(up * (out - filt.bias)))
        assert _adjoint_gap(lhs, gf, feats) <= 1e-12
        assert _adjoint_gap(lhs, gw, filt.weights) <= 1e-12

        sf = _separable(filt.grid, rng, 3, 4)
        out = conv.forward_separable_features(feats, table, sf)
        rank_one = conv.DeformableFilter(filt.grid, sf.spatial[:, :, None] * sf.pointwise[None],
                                         sf.bias)
        assert rel_err(out, conv.oracle_forward_features(feats, table, rank_one)) <= 1e-12
        gf, gs, gp, _ = conv.backward_separable_features(feats, table, sf, up)
        lhs = float(np.sum(up * (out - sf.bias)))
        assert _adjoint_gap(lhs, gf, feats) <= 1e-12
        assert _adjoint_gap(lhs, gs, sf.spatial) <= 1e-12
        assert _adjoint_gap(lhs, gp, sf.pointwise) <= 1e-12

    @pytest.mark.parametrize("order", ["cell", "random"])
    @on_both_passes
    def test_gradients_match_finite_differences(self, order):
        rng = np.random.default_rng(44)
        g = conv.grid_from_spacing(3, 0.2)
        r = conv.default_radius(g)
        cloud = _reordered(random_cloud(rng, 14, 2, extent=0.4), order, r)
        table = neighbor_table(cloud, r, 6)
        assert neighbor_table(cloud, r, 14).counts.max() > 6  # cap cuts some
        feats = cloud.features.copy()
        up = rng.normal(size=(14, 2))
        w, s, p = (rng.normal(size=shape) for shape in ((27, 2, 2), (27, 2), (2, 2)))

        def full_loss():
            return float(np.sum(conv.forward_features(
                feats, table, conv.DeformableFilter(g, w.copy())) * up))

        def separable_loss():
            return float(np.sum(conv.forward_separable_features(
                feats, table, conv.SeparableFilter(g, s.copy(), p.copy())) * up))

        gf, gw, _ = conv.backward_features(feats, table, conv.DeformableFilter(g, w), up)
        assert grad_rel(gw, fd_grad(full_loss, w)) <= 1e-6
        assert grad_rel(gf, fd_grad(full_loss, feats)) <= 1e-6
        gf, gs, gp, _ = conv.backward_separable_features(
            feats, table, conv.SeparableFilter(g, s, p), up)
        assert grad_rel(gs, fd_grad(separable_loss, s)) <= 1e-6
        assert grad_rel(gp, fd_grad(separable_loss, p)) <= 1e-6
        assert grad_rel(gf, fd_grad(separable_loss, feats)) <= 1e-6


class TestBlockLocalScatters:
    """Each kernel-map block stores its neighbour ids less their smallest,
    and the feature-gradient bincounts of the channel pass and of the
    separable backward span only the block's id range, which cell order
    keeps short."""

    def _instance(self, monkeypatch):
        # 3,000 points of a long box, in cell order, so that one slab of
        # cells across the long axis holds a small share of them; a budget
        # of 64 queries' k = 3 sums cuts the table into many blocks
        rng = np.random.default_rng(50)
        g = conv.grid_from_spacing(3, 0.2)
        r = conv.default_radius(g)
        box = pointcloud.PointCloud(rng.uniform(0.0, [12.0, 1.2, 1.2], (3000, 3)),
                                    rng.normal(size=(3000, 3)))
        cloud = _reordered(box, "cell", r)
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", 64 * 27)
        table = neighbor_table(cloud, r, 16)
        full_pass(monkeypatch, "channel")
        up = rng.normal(size=(3000, 4))
        return cloud.features, table, g, up, rng

    def test_bincounts_stay_in_each_blocks_id_range(self, monkeypatch):
        feats, table, g, up, rng = self._instance(monkeypatch)
        kmap = conv._kernel_map(table, g)
        assert len(kmap) > 20
        spans = [int(nbr.max()) + 1 for _, _, nbr, _, _ in kmap]
        # in cell order a block's neighbours lie in a small share of the ids
        assert max(spans) < table.num_queries / 4
        calls, real = [], np.bincount

        def bincount(x, *args, **kwargs):
            out = real(x, *args, **kwargs)
            calls.append((x, out.shape[0]))
            return out

        monkeypatch.setattr(np, "bincount", bincount)
        for backward, filt in ((conv.backward_features,
                                conv.DeformableFilter(g, rng.normal(size=(27, 3, 4)))),
                               (conv.backward_separable_features, _separable(g, rng, 3, 4))):
            calls.clear()
            backward(feats, table, filt, up)
            # no bincount is as long as the cloud, and each block's
            # neighbour bincount, one per channel, spans exactly its range
            assert all(n < table.num_queries for _, n in calls)
            by_block = [[n for x, n in calls if x is block[2]] for block in kmap]
            assert by_block == [[span] * 3 for span in spans]

    def test_gradients_equal_whole_cloud_scatters(self, monkeypatch):
        # the channel pass's feature gradient, bit for bit, as a bincount
        # over all M ids per (block, channel) part added it
        feats, table, g, up, rng = self._instance(monkeypatch)
        filt = conv.DeformableFilter(g, rng.normal(size=(27, 3, 4)))
        gf = conv.backward_features(feats, table, filt, up)[0]
        want = np.zeros((3, feats.shape[0]))
        for rows, keys, nbr, w, base in conv._kernel_map(table, g):
            for i in range(3):
                dsum = (up[rows] @ filt.weights[:, i].T).ravel()
                want[i] += np.bincount(base + nbr, w * dsum.take(keys), minlength=feats.shape[0])
        assert gf.tobytes() == np.ascontiguousarray(want.T).tobytes()


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

    def test_one_gather_for_two_layers_forward_and_backward(self, monkeypatch):
        # on the channel pass: the dense pass gathers no map at all
        # (TestDensePass::test_dense_pass_builds_no_kernel_map)
        full_pass(monkeypatch, "channel")
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
        fresh_a = conv.forward_features(feats_a, fresh_table(table_a), filt)
        fresh_b = conv.forward_features(feats_b, fresh_table(table_b), filt)
        for _ in range(2):
            assert np.array_equal(conv.forward_features(feats_a, table_a, filt), fresh_a)
            assert np.array_equal(conv.forward_features(feats_b, table_b, filt), fresh_b)
        oracle = conv.oracle_forward_features(feats_b, table_b, filt)
        assert rel_err(fresh_b, oracle) <= 1e-12

    @pytest.mark.parametrize("separable", [False, True], ids=["full", "separable"])
    @on_both_passes
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
        assert map_entries(conv._kernel_map(table, filt.grid), 27)[0].shape == (0,)
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
        # the weights of each map's one block stand for the map
        released = weakref.ref(conv._kernel_map(table, filt.grid)[0][3])
        _, other, _, _, _ = self._instance(7)
        kept = weakref.ref(conv._kernel_map(other, filt.grid)[0][3])
        assert released() is None  # replaced by the newer table's map
        del other
        gc.collect()
        assert kept() is None

    def test_older_table_death_keeps_newer_map(self):
        _, table, filt, _, _ = self._instance(8)
        conv._kernel_map(table, filt.grid)
        reader = dict(conv._KERNEL_MAPS)  # still holds the older entry
        _, other, _, _, _ = self._instance(9)
        kept = weakref.ref(conv._kernel_map(other, filt.grid)[0][3])
        del table
        gc.collect()
        assert kept() is not None
        assert conv._kernel_map(other, filt.grid)[0][3] is kept()
        del reader


class TestPinnedKernelMaps:
    """The kernel maps of the benchmark's clouds at cap 16. DIGESTS pins
    the pair map (starts, nbr, ids, w) that the corner gather gives, as it
    was when ids and w were stored pair-major, (pairs, 8), reassembled
    from one gather over the whole table. BLOCK_DIGESTS pins the stored
    map: each block's query bounds, keys, neighbour ids (its base plus
    the stored local ids) and weights."""

    DIGESTS = {
        "toy-seg": ("5ffe6a7813a190bfedd04828501886f9a18c42f626df714da6fe41e2ac287e1d", 3),
        "scene-k3": ("1b5dbb368f646c68d7871967187067cfb3028331b6224660db81dac99b10b6de", 3),
        "scene-k7": ("7b041125b082463d383f44b94191af5dff484679952e5fec40508dfeb99f8b87", 7),
    }
    BLOCK_DIGESTS = {
        "toy-seg": "51e6cc1efd806e40a17067c823998a8e0a334c7401270f54934c7cbc7d732636",
        "scene-k3": "2199486608ebb7a49c396d378b8489a892103ca44cf330c9fb3dad72b4ab952d",
        "scene-k7": "e70d7e486b269c2293d356b7478d6b631d4a6fc19895b58545258e17f93654de",
    }

    def _table(self, name):
        pos, r = benchmark_cloud(name)
        grid = conv.grid_from_spacing(self.DIGESTS[name][1], 0.2)
        return spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16), grid

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_map_bytes(self, name):
        table, grid = self._table(name)
        kept, ids, w = conv._corner_gather(table.offsets, grid)
        h = hashlib.sha256()
        for arr in (np.searchsorted(kept, table.starts), table.indices[kept], ids, w):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == self.DIGESTS[name][0]

    @pytest.mark.parametrize("name", list(BLOCK_DIGESTS))
    def test_block_bytes(self, name):
        table, grid = self._table(name)
        h = hashlib.sha256()
        for rows, keys, nbr, w, base in conv._kernel_map(table, grid):
            for arr in (np.array([rows.start, rows.stop], dtype=np.int64), keys, base + nbr, w):
                h.update(arr.tobytes())
        assert h.hexdigest() == self.BLOCK_DIGESTS[name]


class TestPinnedInterpolation:
    """The dense pass's (H, cols, pads) at k = 3, cap 16, which no kernel
    map pins: H as C-contiguous (queries, k^3, slots). "toy-seg" is the
    benchmark's toy cloud, whose rows are all full; "short-rows" searches
    it at a third of the radius, so most rows end before the last slot
    and their pads are past a row's end."""

    DIGESTS = {
        "toy-seg": ("9f4e105609702e88c595d12e8eff0fda7b4a40ce9a860c09652ec5aa2ea292d7", 1),
        "short-rows": ("1e405591c3a2246b6282c19853e8b034ab4543269fb486b8eeb7fdbdcfebb0ca", 3),
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_bytes(self, name):
        digest, shrink = self.DIGESTS[name]
        pos, r = benchmark_cloud("toy-seg")
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r / shrink, 16)
        assert (table.counts < 16).any() == (shrink > 1)
        h = hashlib.sha256()
        for arr in conv._interpolation(table, conv.grid_from_spacing(3, 0.2)):
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
