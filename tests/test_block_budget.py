"""The block budget: search, kernel-map build and both operators run in
blocks of at most ``spatial._BLOCK_VALUES`` values, and the cut never
shows in a result. It also decides which pass the full operator takes:
the dense pass only where its whole-table arrays fit one block."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformconv import conv, spatial
from conftest import (benchmark_cloud, fresh_table, full_pass, lift_budget, map_entries,
                      map_pairs_per_query, random_cloud, random_filter, rel_err, search_path)

# a budget no test input reaches: everything runs as one block (set with
# lift_budget, so no search forms a distance matrix past the real budget)
ONE_BLOCK = 1 << 40


def _table_bytes(table: spatial.NeighborTable) -> list[bytes]:
    return [a.dtype.str.encode() + a.tobytes() for a in (table.starts, table.indices,
                                                          table.offsets)]


def _entries_by_query(kmap, num_anchors: int) -> list[bytes]:
    """A map's entries, query after query, each query's in stored order:
    the same for any cut into blocks."""
    entries = map_entries(kmap, num_anchors)
    order = np.argsort(entries[0], kind="stable")
    return [a.dtype.str.encode() + a[order].tobytes() for a in entries]


def _map_bytes(kmap) -> int:
    return sum(a.nbytes for block in kmap for a in block[1:4])


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
        # its 242 x 400 distances fit one block: the one-block path
        one_block = _table_bytes(spatial.radius_neighbors(index, queries, r, cap))
        search_path(monkeypatch, "grid")
        lift_budget(monkeypatch, ONE_BLOCK)
        one = _table_bytes(spatial.radius_neighbors(index, queries, r, cap))
        assert one == one_block
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


class TestLiftedBudget:
    """The helpers that lift the block budget lift it for everything but
    the search's choice of its one-block path: a cloud whose distances do
    not fit the real budget keeps to the grid path."""

    @pytest.mark.parametrize("lift", ["full_pass dense", "lift_budget"])
    def test_large_cloud_keeps_to_the_grid_path(self, monkeypatch, lift):
        budget = spatial._BLOCK_VALUES
        big, r = benchmark_cloud("scene-k7")
        toy, toy_r = benchmark_cloud("toy-seg")
        want = _table_bytes(spatial.radius_neighbors(spatial.build_index(big, r), big, r, 16))
        sizes, one_block = [], spatial._all_pairs

        def all_pairs(index, q, r, cap):
            # fails before it forms a matrix past the real budget
            sizes.append(q.shape[0] * index.positions.shape[0])
            assert sizes[-1] <= budget
            return one_block(index, q, r, cap)

        monkeypatch.setattr(spatial, "_all_pairs", all_pairs)
        if lift == "lift_budget":
            lift_budget(monkeypatch, ONE_BLOCK)
        else:
            full_pass(monkeypatch, "dense")
        assert spatial._BLOCK_VALUES > big.shape[0] ** 2
        got = spatial.radius_neighbors(spatial.build_index(big, r), big, r, 16)
        assert _table_bytes(got) == want
        spatial.radius_neighbors(spatial.build_index(toy, toy_r), toy, toy_r, 16)
        assert sizes == [toy.shape[0] ** 2]


class TestKernelMapInBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("k", [3, 5])
    def test_maps_identical(self, monkeypatch, k, rows):
        pos, _ = benchmark_cloud("toy-seg")
        grid = conv.grid_from_spacing(k, 0.2)
        r = conv.default_radius(grid)
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        lift_budget(monkeypatch, ONE_BLOCK)
        one = conv._kernel_map(fresh_table(table), grid)
        assert len(one) == 1
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", 8 * rows)
        calls = []
        real = conv._corner_gather

        def gather(offsets, grid):
            calls.append(offsets.shape[0])
            return real(offsets, grid)

        monkeypatch.setattr(conv, "_corner_gather", gather)
        blocks = conv._kernel_map(fresh_table(table), grid)
        # one gather per block, of the block's pairs
        spans = spatial._spans(8 * table.starts, grid.num_anchors)
        assert [(b[0].start, b[0].stop) for b in blocks] == spans
        assert calls == [int(table.starts[b] - table.starts[a]) for a, b in spans]
        assert len(blocks) > 10
        a = grid.num_anchors
        assert _entries_by_query(blocks, a) == _entries_by_query(one, a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 5]),
           st.sampled_from([1, 2, 10 ** 6]))
    def test_entries_are_the_nonzero_corners(self, seed, k, per_block):
        # a random table; the budget holds per_block queries' sums, so the
        # blocks hold one query, two (or one, where its pairs fill the
        # budget) or all of them
        rng = np.random.default_rng(seed)
        grid = conv.grid_from_spacing(k, 0.2)
        a = grid.num_anchors
        counts = rng.integers(0, 9, rng.integers(0, 12))
        starts = np.concatenate(([0], np.cumsum(counts)))
        reach = (grid.half + 1) * 0.2
        offsets = rng.uniform(-1.5 * reach, 1.5 * reach, (starts[-1], 3))
        # offsets on lattice planes and on the faces of the support box
        offsets[::4] = np.round(offsets[::4] / 0.2) * 0.2
        offsets[1::5, 1] = reach
        table = spatial.NeighborTable(starts, rng.integers(0, 50, starts[-1]), offsets, 9.0, 8)
        budget = per_block * a
        real = spatial._BLOCK_VALUES  # set by hand: hypothesis reruns the body
        spatial._BLOCK_VALUES = budget
        try:
            kmap = conv._kernel_map(table, grid)
            spans = spatial._spans(8 * starts, a)
        finally:
            spatial._BLOCK_VALUES = real
        bounds = [(b[0].start, b[0].stop) for b in kmap]
        assert bounds == spans and sum(q1 - q0 for q0, q1 in bounds) == len(counts)
        for q0, q1 in bounds:
            assert (8 * (starts[q1] - starts[q0]) <= budget and (q1 - q0) * a <= budget
                    or q1 == q0 + 1)
            assert per_block != 1 or q1 == q0 + 1
        assert per_block < 10 ** 6 or len(kmap) <= 1
        # each block's entries are the gather's nonzero (pair, corner)s, each
        # once, in (corner, pair) order, and no weight is zero
        kept, ids, w = conv._corner_gather(table.offsets, grid)
        qid = np.repeat(np.arange(len(counts)), counts)
        for rows, keys, nbr, wv, base in kmap:
            mine = (kept >= starts[rows.start]) & (kept < starts[rows.stop])
            corner, pair = np.nonzero(w[:, mine] > 0)
            pairs = kept[mine][pair]
            assert keys.dtype == nbr.dtype == np.int64
            assert np.array_equal(keys, (qid[pairs] - rows.start) * a + ids[:, mine][corner, pair])
            # neighbour ids are stored less the block's smallest one
            assert base == (table.indices[pairs].min() if pairs.shape[0] else 0)
            assert np.array_equal(base + nbr, table.indices[pairs])
            assert wv.tobytes() == w[:, mine][corner, pair].tobytes() and np.all(wv > 0)
        assert sum(b[1].shape[0] for b in kmap) == np.count_nonzero(w)


class TestOperatorsInBlocks:
    """Both operators in many query blocks: the forwards give the same
    bits as in one block, the backwards agree to rounding. Every block
    holds two or more queries: numpy multiplies a one-row matrix as a
    vector, which can round the full operator's contraction differently.
    The full operator runs its channel pass throughout: the one-block
    reference budget holds that pass's blocks but not the dense pass's H.
    """

    ONE_CHANNEL_BLOCK = 50_000

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
        # both operators run on the map's blocks
        return (conv.forward_features(feats, table, filt),
                conv.forward_features(feats, table, filt, threads=2),
                conv.forward_separable_features(feats, table, sf),
                conv.backward_features(feats, table, filt, up),
                conv.backward_separable_features(feats, table, sf, up))

    @pytest.mark.parametrize("budget", [300, 1500, 6000])
    @pytest.mark.parametrize("k", [3, 5])
    def test_forward_bits_and_backward(self, monkeypatch, k, budget):
        feats, table, filt, sf, up = self._instance(k, k)
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", self.ONE_CHANNEL_BLOCK)
        assert len(conv._kernel_map(table, filt.grid)) == 1
        assert conv._dense_map(table, filt.grid, filt.in_dim) is None
        full, threaded, sep, grads, sep_grads = self._passes(feats, table, filt, sf, up)
        assert np.array_equal(threaded, full)
        assert rel_err(full, conv.oracle_forward_features(feats, table, filt)) <= 1e-12

        # a new table object, so that its map is cut under the smaller budget
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", budget)
        table = fresh_table(table)
        blocks = [b[0].stop - b[0].start for b in conv._kernel_map(table, filt.grid)]
        assert len(blocks) > 2 and min(blocks) >= 2
        b_full, b_threaded, b_sep, b_grads, b_sep_grads = self._passes(
            feats, table, filt, sf, up)
        assert b_full.tobytes() == full.tobytes()
        assert b_threaded.tobytes() == full.tobytes()
        assert b_sep.tobytes() == sep.tobytes()
        for got, want in zip(b_grads + b_sep_grads, grads + sep_grads):
            assert rel_err(got, want) <= 1e-12


class TestPassChoice:
    """At cap 16 the benchmark's clouds keep to the pass measured for
    them: the toy-seg table takes the dense pass at both of its layers'
    input widths, the scene tables the channel pass."""

    @pytest.mark.parametrize("name, k, dense", [("toy-seg", 3, True), ("scene-k3", 3, False),
                                                ("scene-k7", 7, False)])
    def test_benchmark_tables(self, name, k, dense):
        pos, r = benchmark_cloud(name)
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        grid = conv.grid_from_spacing(k, 0.2)
        for in_dim in (2, 8):
            assert (conv._dense_map(table, grid, in_dim) is not None) == dense


class TestDensePassBudget:
    """H holds queries x k^3 x slots values, slots being the table's
    largest row count, zero-weight pairs included."""

    @pytest.mark.parametrize("over, dense", [(0, True), (1, False)])
    def test_largest_table_row_decides(self, monkeypatch, over, dense):
        # one value above the budget sends the table to the channel pass,
        # though its kernel map's rows are shorter
        grid = conv.grid_from_spacing(3, 0.2)
        offsets = np.array([[0.05, 0.0, 0.0], [0.1, -0.1, 0.02], [0.45, 0.0, 0.0],
                            [0.0, 0.0, 0.0], [0.1, 0.1, 0.1]])
        table = spatial.NeighborTable(np.array([0, 3, 5]), np.array([0, 1, 2, 1, 2]),
                                      offsets, grid.support_radius(), 3)
        assert map_pairs_per_query(table, grid).tolist() == [2, 2]
        monkeypatch.setattr(spatial, "_BLOCK_VALUES", 2 * 27 * 3 - over)
        assert (conv._dense_map(table, grid, 2) is not None) == dense
        rng = np.random.default_rng(3)
        filt = conv.DeformableFilter(grid, rng.normal(size=(27, 2, 3)))
        feats = rng.normal(size=(3, 2))
        got = conv.forward_features(feats, table, filt)
        assert rel_err(got, conv.oracle_forward_features(feats, table, filt)) <= 1e-12


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
    search peaks at no more than twice its table plus BUDGETS blocks of
    the budget, the kernel-map build at no more than 1.5 times its map
    plus BUDGETS blocks, the full forward (its channel pass) at no more
    than its output plus BUDGETS blocks, and the separable backward at no
    more than its gradients plus 4 blocks. So do the dense pass's forward
    and backward on a toy-seg table. A search on the one-block path peaks
    at no more than its table plus 3 blocks. numpy reports its buffers to
    tracemalloc, so the peaks are exact."""

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
        assert peak <= 1.5 * _map_bytes(kmap) + self.BUDGETS * block

        rng = np.random.default_rng(0)
        filt = conv.DeformableFilter(grid, rng.normal(size=(27, 8, 16)))
        feats = rng.normal(size=(pos.shape[0], 8))
        out, peak = _peak(lambda: conv.forward_features(feats, table, filt))
        assert peak <= out.nbytes + self.BUDGETS * block

    def test_separable_backward_peak(self):
        pos, r = benchmark_cloud("scene-k3")
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        grid = conv.grid_from_spacing(3, 0.2)
        rng = np.random.default_rng(3)
        sf = conv.SeparableFilter(grid, rng.normal(size=(27, 8)), rng.normal(size=(8, 16)))
        feats = rng.normal(size=(pos.shape[0], 8))
        up = rng.normal(size=(pos.shape[0], 16))
        conv._kernel_map(table, grid)  # built and kept before the backward
        grads, peak = _peak(lambda: conv.backward_separable_features(feats, table, sf, up))
        # it runs one kernel-map block at a time
        assert peak <= sum(g.nbytes for g in grads) + 4 * 8 * spatial._BLOCK_VALUES

    def test_one_block_search_peak(self):
        # 256 queries x 512 points: a distance matrix of exactly one block
        rng = np.random.default_rng(2)
        pos = rng.uniform(-1, 1, (512, 3))
        index = spatial.build_index(pos, 0.5)
        assert 256 * 512 == spatial._BLOCK_VALUES
        table, peak = _peak(lambda: spatial.radius_neighbors(index, pos[:256], 0.5, 16))
        table_bytes = table.starts.nbytes + table.indices.nbytes + table.offsets.nbytes
        assert peak <= table_bytes + 3 * 8 * spatial._BLOCK_VALUES

    def test_dense_forward_and_backward_peaks(self):
        # the toy-seg table at 16 input channels, near the budget: its
        # (256, 27, 16) sums hold 110,592 values, as does its H
        pos, r = benchmark_cloud("toy-seg")
        table = spatial.radius_neighbors(spatial.build_index(pos, r), pos, r, 16)
        grid = conv.grid_from_spacing(3, 0.2)
        rng = np.random.default_rng(1)
        filt = conv.DeformableFilter(grid, rng.normal(size=(27, 16, 16)))
        feats = rng.normal(size=(pos.shape[0], 16))
        up = rng.normal(size=(pos.shape[0], 16))
        block = 8 * spatial._BLOCK_VALUES
        # the first forward builds H from the table and caches it
        out, peak = _peak(lambda: conv.forward_features(feats, table, filt))
        assert conv._dense_map(table, grid, 16) is not None
        assert peak <= out.nbytes + self.BUDGETS * block
        grads, peak = _peak(lambda: conv.backward_features(feats, table, filt, up))
        assert peak <= sum(g.nbytes for g in grads) + self.BUDGETS * block
