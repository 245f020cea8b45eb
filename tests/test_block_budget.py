"""The block budget: search, kernel-map build and both operators run in
blocks of at most ``spatial._BLOCK_VALUES`` values, and the cut never
shows in a result."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformconv import conv, spatial
from conftest import benchmark_cloud, random_cloud, random_filter, rel_err

# a budget no test input reaches: everything runs as one block
ONE_BLOCK = 1 << 40


def _table_bytes(table: spatial.NeighborTable) -> list[bytes]:
    return [a.dtype.str.encode() + a.tobytes() for a in (table.starts, table.indices,
                                                          table.offsets)]


def _map_bytes(kmap) -> list[bytes]:
    return [a.dtype.str.encode() + np.ascontiguousarray(a).tobytes() for a in kmap]


def _fresh(table: spatial.NeighborTable) -> spatial.NeighborTable:
    # a new table object with the same pairs, so its kernel map is rebuilt
    return spatial.NeighborTable(table.starts, table.indices, table.offsets,
                                 table.radius, table.cap)


def _search_instance(seed: int):
    """(positions, queries, r, cap): queries are half the points, a few
    far-away points that see nothing, and points off the cloud; cap cuts
    most neighbourhoods."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, (400, 3))
    queries = np.concatenate([pos[::2], rng.uniform(-1.2, 1.2, (40, 3)),
                              [[9.0, 9.0, 9.0], [-7.0, 0.0, 0.0]]])
    return pos, rng.permutation(queries), 0.35, 6


class TestSpans:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=40), st.integers(1, 30),
           st.integers(1, 120))
    def test_rule(self, sizes, width, budget):
        counts = np.array(sizes, dtype=np.int64)
        ends = np.concatenate(([0], np.cumsum(counts)))
        real = spatial._BLOCK_VALUES  # set by hand: hypothesis reruns the body
        spatial._BLOCK_VALUES = budget
        try:
            spans = spatial._spans(ends, width)
        finally:
            spatial._BLOCK_VALUES = real
        # contiguous, covering every item once
        bounds = [0] + [b for _, b in spans]
        assert [a for a, _ in spans] == bounds[:-1] and bounds[-1] == counts.shape[0]

        def fits(a, b):
            return ends[b] - ends[a] <= budget and (b - a) * width <= budget

        for a, b in spans:
            # within the budget, or one item alone; and not one item short
            assert fits(a, b) or b == a + 1
            assert b == counts.shape[0] or not fits(a, b + 1)


class TestSearchInBlocks:
    @pytest.mark.parametrize("budget", [1, 97, 500])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tables_identical(self, monkeypatch, seed, budget):
        pos, queries, r, cap = _search_instance(seed)
        index = spatial.build_index(pos, r)
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", ONE_BLOCK)
        one = _table_bytes(spatial.radius_neighbors(index, queries, r, cap))
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", budget)
        spans = []
        real = spatial._rank

        def rank(qcols, *rest):
            spans.append(qcols.shape[1])
            return real(qcols, *rest)

        monkeypatch.setattr(spatial, "_rank", rank)
        chunked = spatial.radius_neighbors(index, queries, r, cap)
        assert len(spans) > 10 and sum(spans) == queries.shape[0]
        assert _table_bytes(chunked) == one
        # the reference search, in query spans too
        assert _table_bytes(spatial.brute_force_neighbors(pos, queries, r, cap)) == one

    def test_no_live_queries(self, monkeypatch):
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", 4)
        pos = np.zeros((3, 3))
        table = spatial.radius_neighbors(spatial.build_index(pos, 0.5),
                                         np.full((5, 3), 10.0), 0.5, 2)
        assert table.starts.tolist() == [0] * 6 and table.num_pairs == 0


class TestKernelMapInBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("k", [3, 5])
    def test_maps_identical(self, monkeypatch, k, rows):
        pos, _ = benchmark_cloud("toy-seg")
        grid = conv.grid_from_spacing(k, 0.2)
        r = conv.default_radius(grid)
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", ONE_BLOCK)
        one = _map_bytes(conv._kernel_map(_fresh(table), grid))
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", 8 * rows)
        calls = []
        real = conv._corner_gather

        def gather(offsets, grid):
            calls.append(offsets.shape[0])
            return real(offsets, grid)

        monkeypatch.setattr(conv, "_corner_gather", gather)
        assert _map_bytes(conv._kernel_map(_fresh(table), grid)) == one
        assert max(calls) == rows and len(calls) == -(-table.num_pairs // rows)


class TestOperatorsInBlocks:
    """Both operators in many query blocks: the forwards give the same
    bits as in one block, the backwards agree to rounding. Every block
    holds two or more queries: numpy multiplies a one-row matrix as a
    vector, which can round the full operator's contraction differently.
    """

    def _instance(self, seed, k):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 300, 3, extent=0.6)
        filt = random_filter(rng, k, 0.2, 3, 4, bias=True)
        sf = conv.SeparableFilter(filt.grid, rng.normal(size=(filt.grid.num_anchors, 3)),
                                  rng.normal(size=(3, 4)), rng.normal(size=4))
        table = spatial.radius_neighbors(
            spatial.build_index(cloud.positions, conv.default_radius(filt.grid)),
            cloud.positions, conv.default_radius(filt.grid), 12)
        up = rng.normal(size=(table.num_queries, 4))
        return cloud.features, table, filt, sf, up

    def _passes(self, feats, table, filt, sf, up):
        return (conv.forward_features(feats, table, filt),
                conv.forward_features(feats, table, filt, threads=2),
                conv.forward_separable_features(feats, table, sf),
                conv.backward_features(feats, table, filt, up),
                conv.backward_separable_features(feats, table, sf, up))

    @pytest.mark.parametrize("budget", [300, 1500, 6000])
    @pytest.mark.parametrize("k", [3, 5])
    def test_forward_bits_and_backward(self, monkeypatch, k, budget):
        feats, table, filt, sf, up = self._instance(k, k)
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", ONE_BLOCK)
        full, threaded, sep, grads, sep_grads = self._passes(feats, table, filt, sf, up)
        assert np.array_equal(threaded, full)
        assert rel_err(full, conv.oracle_forward_features(feats, table, filt)) <= 1e-12

        monkeypatch.setattr(spatial, "_BLOCK_VALUES", budget)
        starts = conv._kernel_map(table, filt.grid)[0]
        for width in (filt.grid.num_anchors, 4):
            blocks = spatial._spans(8 * starts, width)
            assert len(blocks) > 2 and min(b - a for a, b in blocks) >= 2
        b_full, b_threaded, b_sep, b_grads, b_sep_grads = self._passes(
            feats, table, filt, sf, up)
        assert b_full.tobytes() == full.tobytes()
        assert b_threaded.tobytes() == full.tobytes()
        assert b_sep.tobytes() == sep.tobytes()
        for got, want in zip(b_grads + b_sep_grads, grads + sep_grads):
            assert rel_err(got, want) <= 1e-12


def _peak(fn):
    """(result, tracemalloc peak in bytes above the memory in use before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """At M = 2*10^4 (the scene-k3 bench cloud, k = 3, cap 16), the
    search and the kernel-map build peak at no more than twice their
    output plus BUDGETS blocks of the budget, and the full forward at no
    more than its output plus BUDGETS blocks. numpy reports its buffers
    to tracemalloc, so the peaks are exact."""

    BUDGETS = 8

    def test_search_map_and_forward_peaks(self):
        pos, r = benchmark_cloud("scene-k3")
        index = spatial.build_index(pos, r)
        block = 8 * spatial._BLOCK_VALUES
        table, peak = _peak(lambda: spatial.radius_neighbors(index, pos, r, 16))
        table_bytes = table.starts.nbytes + table.indices.nbytes + table.offsets.nbytes
        assert peak <= 2 * table_bytes + self.BUDGETS * block

        grid = conv.grid_from_spacing(3, 0.2)
        kmap, peak = _peak(lambda: conv._kernel_map(table, grid))
        assert peak <= 2 * sum(a.nbytes for a in kmap) + self.BUDGETS * block

        rng = np.random.default_rng(0)
        filt = conv.DeformableFilter(grid, rng.normal(size=(27, 8, 16)))
        feats = rng.normal(size=(pos.shape[0], 8))
        out, peak = _peak(lambda: conv.forward_features(feats, table, filt))
        assert peak <= out.nbytes + self.BUDGETS * block
