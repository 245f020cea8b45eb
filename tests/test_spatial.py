"""Radius search: grid-hash vs brute force, ordering, caps, and the grid
search's limits on cell size and extent."""
from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformconv import conv, spatial
from conftest import benchmark_cloud, on_both_passes, on_both_searches


def _tables_equal(a: spatial.NeighborTable, b: spatial.NeighborTable) -> bool:
    # bit for bit: np.array_equal would let -0.0 equal 0.0
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.starts, b.starts), (a.indices, b.indices),
                            (a.offsets, b.offsets)))


def _grid_table(positions, queries, r, cap, cell_size=None):
    index = spatial.build_index(positions, cell_size if cell_size else r)
    return spatial.radius_neighbors(index, queries, r, cap)


class TestWorkedExamples:
    def test_same_cell_membership(self):
        pos = np.array([[0.2, 0.2, 0.2], [0.9, 0.9, 0.9], [1.1, 0.0, 0.0]])
        index = spatial.build_index(pos, 1.0)
        bounds = zip(index.ustarts[:-1], index.ustarts[1:])
        members = sorted(sorted(index.order[lo:hi].tolist()) for lo, hi in bounds)
        assert index.ukeys.shape == (2,)
        assert members == [[0, 1], [2]]

    def test_line_of_points(self):
        # points every 0.25 along x (exactly representable, so the left/right
        # pairs tie exactly); radius 0.55 reaches two on each side
        pos = np.stack([np.arange(9) * 0.25, np.zeros(9), np.zeros(9)], axis=1)
        table = _grid_table(pos, pos, 0.55, 10)
        mid, _ = table.neighbors_of(4)
        assert list(mid) == [4, 3, 5, 2, 6]  # self, then by distance, low index on ties
        assert table.counts[0] == 3  # endpoint sees self + two to the right

    def test_cap_one_keeps_self(self):
        pos = np.random.default_rng(0).uniform(-1, 1, (20, 3))
        table = _grid_table(pos, pos, 2.0, 1)
        assert np.all(table.counts == 1)
        assert np.array_equal(table.indices, np.arange(20))
        assert np.allclose(table.offsets, 0.0)

    def test_coincident_points_tie_break(self):
        pos = np.zeros((3, 3))
        table = _grid_table(pos, pos, 0.5, 2)
        # all distances zero: lower index wins
        for q in range(3):
            got = list(table.neighbors_of(q)[0])
            assert got == [0, 1]

    def test_boundary_distance_included(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        table = _grid_table(pos, pos, 0.5, 4)
        assert table.counts[0] == 2

    def test_offsets_are_query_minus_neighbor(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, -0.3]])
        table = _grid_table(pos, pos, 1.0, 4)
        nbrs, _ = table.neighbors_of(0)
        offs = table.offsets[table.starts[0]:table.starts[1]]
        for j, off in zip(nbrs, offs):
            assert np.array_equal(off, pos[0] - pos[j])


class TestGridEqualsBrute:
    @pytest.mark.parametrize("seed", range(8))
    @on_both_searches
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 80))
        pos = rng.uniform(-1.5, 1.5, (m, 3))
        r = float(rng.uniform(0.2, 1.2))
        cap = int(rng.integers(1, 24))
        grid = _grid_table(pos, pos, r, cap)
        brute = spatial.brute_force_neighbors(pos, pos, r, cap)
        assert _tables_equal(grid, brute)

    @pytest.mark.parametrize("scale", [1.0, 1.8])
    @on_both_searches
    def test_cell_size_independent(self, scale):
        rng = np.random.default_rng(99)
        pos = rng.uniform(-1, 1, (60, 3))
        r = 0.5
        grid = _grid_table(pos, pos, r, 8, cell_size=r * scale)
        brute = spatial.brute_force_neighbors(pos, pos, r, 8)
        assert _tables_equal(grid, brute)

    @on_both_searches
    def test_queries_not_inputs(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(-1, 1, (50, 3))
        q = rng.uniform(-1.2, 1.2, (17, 3))
        grid = _grid_table(pos, q, 0.6, 5)
        brute = spatial.brute_force_neighbors(pos, q, 0.6, 5)
        assert _tables_equal(grid, brute)
        assert grid.num_queries == 17

    @on_both_searches
    def test_empty_neighborhoods(self):
        pos = np.zeros((3, 3))
        q = np.array([[10.0, 0.0, 0.0]])
        table = _grid_table(pos, q, 0.5, 4)
        assert table.counts[0] == 0
        assert table.num_pairs == 0

    @on_both_searches
    def test_duplicates_heavy(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-0.5, 0.5, (10, 3))
        pos = base[rng.integers(0, 10, 64)]  # many exact duplicates
        grid = _grid_table(pos, pos, 0.4, 6)
        brute = spatial.brute_force_neighbors(pos, pos, 0.4, 6)
        assert _tables_equal(grid, brute)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40),
           st.floats(0.1, 1.0), st.integers(1, 12))
    @on_both_searches
    def test_property_equality(self, seed, m, r, cap):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1, 1, (m, 3))
        grid = _grid_table(pos, pos, r, cap)
        brute = spatial.brute_force_neighbors(pos, pos, r, cap)
        assert _tables_equal(grid, brute)


def _reference_table(pos, queries, r, cap) -> spatial.NeighborTable:
    """The table by definition, one query at a time: every point within r,
    ordered by (d2, point id) with a lexsort, the first cap kept."""
    off = queries[:, None, :] - pos[None, :, :]
    d2 = off[..., 0] ** 2 + off[..., 1] ** 2 + off[..., 2] ** 2
    starts, indices = [0], []
    for row in d2:
        inside = np.flatnonzero(row <= r * r)
        indices.extend(inside[np.lexsort((inside, row[inside]))][:cap].tolist())
        starts.append(len(indices))
    starts, indices = np.array(starts, dtype=np.int64), np.array(indices, dtype=np.int64)
    qid = np.repeat(np.arange(queries.shape[0]), np.diff(starts))
    return spatial.NeighborTable(starts, indices, queries[qid] - pos[indices], r, cap)


def _assert_grid_equals_brute(pos, queries, r, cap, cell_size=None):
    # the searches share their ordering step, so each is also held to the
    # reference
    grid = _grid_table(pos, queries, r, cap, cell_size)
    assert _tables_equal(grid, spatial.brute_force_neighbors(pos, queries, r, cap))
    assert _tables_equal(grid, _reference_table(pos, queries, r, cap))


class TestGridEqualsBruteProperties:
    """The regimes where the grid search's window grouping, the one-block
    path's partition or the sort key could part from the brute-force
    order: exact distance ties, windows clipped to the occupied cells,
    several windows per cell, squared distances the sort key cannot tell
    apart, and packed keys near the int64 limit. Like the other tests of
    the search's results, each runs on both of its paths."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 60),
           st.floats(0.05, 1.0), st.integers(1, 20))
    @on_both_searches
    def test_duplicate_points(self, seed, distinct, m, r, cap):
        # many points at d2 = 0 from each other: order is by point id alone
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1, 1, (distinct, 3))[rng.integers(0, distinct, m)]
        _assert_grid_equals_brute(pos, pos, r, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0.1, 0.25, 0.3, 1.0]), st.integers(2, 6), st.integers(-4, 4),
           st.sampled_from([1.0, 2 ** 0.5, 3 ** 0.5, 1.5, 2.0]), st.integers(1, 30))
    @on_both_searches
    def test_lattice_clouds(self, spacing, n, shift, reach, cap):
        # exact distance ties, and neighbours exactly on the ball's surface
        i, j, l = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
        pos = (np.stack([i.ravel(), j.ravel(), l.ravel()], axis=1) + shift) * spacing
        _assert_grid_equals_brute(pos, pos, reach * spacing, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50), st.floats(0.1, 1.0),
           st.integers(1, 12), st.sampled_from([2.0, 10.0, 1e3, 1e6]))
    @on_both_searches
    def test_queries_outside_occupied_cells(self, seed, m, r, cap, far):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.5, 2.0, (m, 3))
        near = rng.uniform(-1.0, 3.5, (20, 3))  # around and beyond the cloud
        # far on some axes only, so some windows are clipped on one axis
        sign = rng.choice([-1.0, 0.0, 1.0], size=(20, 3))
        queries = np.concatenate([near, near + sign * far, -near])
        _assert_grid_equals_brute(pos, queries, r, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.floats(0.05, 1.0),
           st.floats(1.0, 4.0), st.integers(1, 16))
    @on_both_searches
    def test_radius_below_cell_size(self, seed, m, r, ratio, cap):
        pos = np.random.default_rng(seed).uniform(-1, 1, (m, 3))
        _assert_grid_equals_brute(pos, pos, r, cap, cell_size=r * ratio)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.floats(0.2, 1.0),
           st.sampled_from(["one", "below", "above"]))
    @on_both_searches
    def test_cap_against_ball_count(self, seed, m, r, which):
        pos = np.random.default_rng(seed).uniform(-1, 1, (m, 3))
        in_ball = spatial.brute_force_neighbors(pos, pos, r, m).counts
        cap = {"one": 1, "below": max(1, int(in_ball.max()) - 1),
               "above": int(in_ball.max()) + 3}[which]
        _assert_grid_equals_brute(pos, pos, r, cap)

    @on_both_searches
    def test_cell_with_three_and_four_cell_windows(self):
        # with cell_size == r, x = -0.2 lies in cell -2 and rounding gives it
        # a 4-cell window along x; x = -0.15 in the same cell has 3 cells
        r = 0.1
        xs = np.array([-0.2, -0.15, -0.12])
        span = np.floor((xs + r) / r) - np.floor((xs - r) / r) + 1
        assert set(np.floor(xs / r).tolist()) == {-2.0} and set(span.tolist()) == {3.0, 4.0}
        i, j, l = np.meshgrid(np.arange(-6, 3), np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
        pos = np.stack([i.ravel() * r, j.ravel() * r, l.ravel() * r], axis=1)
        queries = np.stack([xs, np.zeros(3), np.zeros(3)], axis=1)
        for cap in (1, 4, 40):
            _assert_grid_equals_brute(pos, queries, r, cap)
            _assert_grid_equals_brute(pos, np.concatenate([queries, pos]), r, cap)

    @on_both_searches
    def test_distances_equal_in_the_sort_key(self):
        # 1024 queries leave the key 53 bits of d2, so two squared
        # distances that differ only in their 10 lowest bits share a key.
        # The farther point gets the lower id, so ordering the run by id
        # instead of by exact d2 would put it first.
        xs = [0.3]
        for _ in range(8):
            xs.append(float(np.nextafter(xs[-1], 1.0)))
        bits = [int(np.float64(x * x).view(np.int64)) for x in xs]
        far, near = next((a, b) for a in range(1, 9) for b in range(a)
                         if bits[a] != bits[b] and bits[a] >> 10 == bits[b] >> 10)
        pos = np.array([[xs[far], 0.0, 0.0], [xs[near], 0.0, 0.0], [5.0, 5.0, 5.0]])
        queries = np.zeros((1024, 3))
        queries[1:] = 9.0  # empty neighbourhoods
        table = _grid_table(pos, queries, 0.5, 4)
        assert table.neighbors_of(0)[0].tolist() == [1, 0]
        _assert_grid_equals_brute(pos, queries, 0.5, 4)
        _assert_grid_equals_brute(pos, queries, 0.5, 1)

    @on_both_searches
    def test_extent_at_packing_limit(self):
        # occupied cells span exactly 2^62 keys: window keys and their
        # grouping stay inside int64
        rng = np.random.default_rng(5)
        top = np.array([2.0 ** 21, 2.0 ** 21, 2.0 ** 20])
        pos = np.concatenate([rng.uniform(0.0, 2.5, (30, 3)), top - rng.uniform(0.0, 2.5, (30, 3))])
        index = spatial.build_index(pos, 1.0)
        assert int(index.dims[0]) * int(index.dims[1]) * int(index.dims[2]) == 1 << 62
        queries = np.concatenate([pos, top + rng.uniform(-1.5, 1.5, (10, 3)),
                                  rng.uniform(-1.5, 1.5, (10, 3))])
        for cap in (1, 5, 60):
            _assert_grid_equals_brute(pos, queries, 1.0, cap)


def _table_digest(table: spatial.NeighborTable) -> str:
    h = hashlib.sha256()
    for arr in (table.starts, table.indices, table.offsets):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestPinnedTables:
    """Seeded tables of the benchmark's clouds at cap 16 keep the bytes
    they had before the window-grouped search and the key sort, on both
    search paths."""

    DIGESTS = {
        "toy-seg": "40d32c7aaf77db6847395257ddfe937992512e73b0a12571d1c045efe8d7a967",
        "scene-k3": "afda16cc330ea6dd893210f04fed708db44a641e24a290470bebe2ba64d6f162",
        "scene-k7": "a72f06a9f0293a11002c1c7168ab81b4f560314f0c27bb1d42f73861e13a1a3a",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    @on_both_searches
    def test_table_bytes(self, name):
        pos, r = benchmark_cloud(name)
        table = _grid_table(pos, pos, r, 16)
        assert _table_digest(table) == self.DIGESTS[name]


class TestInvariants:
    def _table(self, seed=0, m=70, r=0.7, cap=9):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1, 1, (m, 3))
        return pos, _grid_table(pos, pos, r, cap)

    @on_both_searches
    def test_counts_capped_and_radius_respected(self):
        pos, table = self._table()
        assert np.all(table.counts <= 9)
        d = np.linalg.norm(table.offsets, axis=1)
        assert np.all(d <= 0.7 + 1e-12)

    @on_both_searches
    def test_sorted_by_distance_then_index(self):
        pos, table = self._table()
        d2 = np.einsum("ij,ij->i", table.offsets, table.offsets)
        for q in range(table.num_queries):
            s, e = table.starts[q], table.starts[q + 1]
            keys = list(zip(d2[s:e], table.indices[s:e]))
            assert keys == sorted(keys)

    @on_both_searches
    def test_self_first_for_distinct_points(self):
        pos, table = self._table(seed=5)
        for q in range(table.num_queries):
            assert table.indices[table.starts[q]] == q

    @on_both_searches
    def test_translation_stable_offsets(self):
        pos, table = self._table(seed=8)
        shifted = _grid_table(pos + np.array([3.0, -7.0, 11.0]),
                              pos + np.array([3.0, -7.0, 11.0]), 0.7, 9)
        assert np.array_equal(table.starts, shifted.starts)
        assert np.array_equal(table.indices, shifted.indices)
        assert np.allclose(table.offsets, shifted.offsets, atol=1e-12)


class TestSearchLimits:
    @on_both_searches
    def test_unpackable_extent_rejected(self):
        # coordinate extent far beyond the packed 2^62 budget
        pos = np.array([[0.0, 0.0, 0.0],
                        [2.1e6, 2.1e6, 2.1e6],
                        [0.0005, 0.0, 0.0]])
        with pytest.raises(ValueError, match="2\\^62"):
            spatial.build_index(pos, 0.001)
        # cells as wide as a larger radius pack, and the search is exact
        grid = _grid_table(pos, pos, 1000.0, 4)
        assert _tables_equal(grid, spatial.brute_force_neighbors(pos, pos, 1000.0, 4))

    @on_both_searches
    def test_far_queries_get_empty_rows_without_warnings(self):
        # window bounds past int64 (|x| / cell_size >= 2^63), and squared
        # distances past the float range
        pos = np.random.default_rng(3).uniform(-1.0, 1.0, (20, 3))
        queries = np.concatenate([pos[:5], [[1e300, 0.0, 0.0], [-1e300, 0.5, 0.0],
                                            [1.7e308, -1.7e308, 0.0]]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            grid = _grid_table(pos, queries, 0.5, 4)
            brute = spatial.brute_force_neighbors(pos, queries, 0.5, 4)
        assert _tables_equal(grid, brute)
        assert np.all(grid.counts[:5] > 0) and not grid.counts[5:].any()

    @pytest.mark.parametrize("x", [1e18, 1e19, 1e300])
    @on_both_searches
    def test_far_point_rejected(self, x):
        # 1e18 spans too many cells; 1e19 and 1e300 lie too far from the origin
        pos = np.random.default_rng(4).uniform(-1.0, 1.0, (20, 3))
        pos = np.concatenate([pos, [[x, 0.0, 0.0]]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2\\^62"):
                spatial.build_index(pos, 0.3)

    @pytest.mark.parametrize("x,cell_size", [(1e300, 0.3), (2.1e6, 0.001)],
                             ids=["from-origin", "extent"])
    @pytest.mark.parametrize("sort", [spatial.build_index, spatial.cell_order],
                             ids=["build_index", "cell_order"])
    def test_grid_range_error_is_typed(self, sort, x, cell_size):
        # a point too far from the origin, or cells spanning too far: the one
        # input fault of a search, typed so callers can tell it from a bug
        pos = np.array([[0.0, 0.0, 0.0], [x, x, x], [0.0005, 0.0, 0.0]])
        with pytest.raises(spatial.GridRangeError, match="2\\^62"):
            sort(pos, cell_size)
        assert issubclass(spatial.GridRangeError, ValueError)

    @on_both_searches
    def test_cloud_far_from_the_origin(self):
        # cells near 3.3e18 (below 2^62) are indexed, as the span is small
        pos = np.array([[1e18, 0.0, 0.0], [1e18 + 512.0, 0.0, 0.0], [1e18, 0.2, 0.0]])
        for cap in (1, 3):
            _assert_grid_equals_brute(pos, pos, 0.3, cap)

    @pytest.mark.parametrize("seed,m,half,r,cell,cap", [
        (12, 40, 0.05, 0.04, 0.001, 6),
        (99, 60, 1.0, 0.5, 0.5 * 0.45, 8),
    ], ids=["cell-0.001-r-0.04", "cell-0.45r"])
    @on_both_searches
    def test_cell_smaller_than_radius_rejected(self, seed, m, half, r, cell, cap):
        pos = np.random.default_rng(seed).uniform(-half, half, (m, 3))
        index = spatial.build_index(pos, cell)
        with pytest.raises(ValueError, match="exceeds the index cell_size"):
            spatial.radius_neighbors(index, pos, r, cap)
        # the same search on cells as wide as the radius is exact
        grid = _grid_table(pos, pos, r, cap)
        assert _tables_equal(grid, spatial.brute_force_neighbors(pos, pos, r, cap))

    @on_both_searches
    def test_grid_aligned_four_cell_windows(self):
        # with cell_size == r, rounding in floor((q +- r) / cell_size) widens
        # some windows from 3 to 4 cells; the sweep must visit all of them
        # (x = -0.2 finds its neighbour x = -0.1 only in the fourth cell)
        r = 0.1
        i, j, l = np.meshgrid(np.arange(-20, 20), np.arange(3), np.arange(3), indexing="ij")
        pos = np.stack([i.ravel() * r, j.ravel() * r, l.ravel() * r], axis=1)
        span = np.floor((pos + r) / r) - np.floor((pos - r) / r) + 1
        assert span.max() == 4
        grid = _grid_table(pos, pos, r, 30)
        assert _tables_equal(grid, spatial.brute_force_neighbors(pos, pos, r, 30))


def _paths_taken(monkeypatch) -> list[str]:
    """Record the path each later search takes. Every table is then built
    by the grid sweep, so a search sent to the wrong path never forms its
    distance matrix."""
    taken, grid = [], spatial._grid_search

    def path(name):
        def run(*args):
            taken.append(name)
            return grid(*args)
        return run

    monkeypatch.setattr(spatial, "_all_pairs", path("one-block"))
    monkeypatch.setattr(spatial, "_grid_search", path("grid"))
    return taken


class TestOneBlockPath:
    """A search whose (queries, points) distances fit one block of the
    budget ranks them as one matrix: each row is partitioned at its cap-th
    smallest d2, and the pairs at most that far and within r are ordered.
    Its tables are the grid path's and the reference's, bit for bit."""

    @pytest.mark.parametrize("name, path", [("toy-seg", "one-block"), ("scene-k3", "grid"),
                                            ("scene-k7", "grid")])
    def test_benchmark_tables(self, monkeypatch, name, path):
        pos, r = benchmark_cloud(name)
        taken = _paths_taken(monkeypatch)
        _grid_table(pos, pos, r, 16)
        assert taken == [path]

    @pytest.mark.parametrize("q, m, path", [(256, 512, "one-block"), (3, 43_691, "grid"),
                                            (1, 131_072, "one-block"), (131_073, 1, "grid")])
    def test_budget_boundary(self, monkeypatch, q, m, path):
        # queries x points at the budget, or one above it
        assert q * m - spatial._BLOCK_VALUES == (0 if path == "one-block" else 1)
        rng = np.random.default_rng(q)
        pos, queries = rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, (q, 3))
        table = _grid_table(pos, queries, 0.1, 8)
        assert _tables_equal(table, spatial.brute_force_neighbors(pos, queries, 0.1, 8))
        taken = _paths_taken(monkeypatch)
        _grid_table(pos, queries, 0.1, 8)
        assert taken == [path]

    @pytest.mark.parametrize("r, nearest", [(0.15, [4]), (0.2, [4, 0, 2, 3]),
                                            (0.3, [4, 0, 2, 3, 1])])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6])
    @on_both_searches
    def test_tie_at_the_cap_th_distance(self, cap, r, nearest):
        # from the origin: point 4 at 0.1, points 0, 2 and 3 at exactly
        # d2 = 0.2^2 (one per axis, so the sums are the same bits), point 1
        # at 0.25; the cap-th d2 falls inside the tie at caps 2 to 4
        pos = np.array([[0.0, 0.2, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, -0.2],
                        [-0.2, 0.0, 0.0], [0.1, 0.0, 0.0]])
        queries = np.zeros((2, 3))
        queries[1] = 5.0  # sees nothing
        table = _grid_table(pos, queries, r, cap)
        assert table.neighbors_of(0)[0].tolist() == nearest[:cap]
        assert table.counts[1] == 0
        _assert_grid_equals_brute(pos, queries, r, cap)

    @pytest.mark.parametrize("cap", range(1, 30))
    @on_both_searches
    def test_lattice_shells(self, cap):
        # around each inner point, shells of 6, 12 and 8 points at exactly
        # equal d2, the last on the ball's surface: every cap from 1 to 29
        # puts the cap-th d2 inside a shell or at its edge
        i, j, l = np.meshgrid(*[np.arange(5)] * 3, indexing="ij")
        pos = np.stack([i.ravel(), j.ravel(), l.ravel()], axis=1) * 0.25
        _assert_grid_equals_brute(pos, pos, 0.25 * 3 ** 0.5, cap)

    @pytest.mark.parametrize("cap", [1, 3, 7, 8, 9, 20])
    @on_both_searches
    def test_duplicate_groups(self, cap):
        # groups of 4 points at one place: the cap-th d2 ties inside a group
        rng = np.random.default_rng(8)
        pos = np.repeat(rng.uniform(-0.3, 0.3, (6, 3)), 4, axis=0)[rng.permutation(24)]
        _assert_grid_equals_brute(pos, np.concatenate([pos, rng.uniform(-0.5, 0.5, (10, 3))]),
                                  0.4, cap)

    @pytest.mark.parametrize("cap", [1, 29, 30, 31, 500])
    @on_both_searches
    def test_caps_up_to_and_past_the_cloud(self, cap):
        # cap 1, cap below, at and above the 30 points, and far past them
        rng = np.random.default_rng(9)
        pos = rng.uniform(-1, 1, (30, 3))
        _assert_grid_equals_brute(pos, np.concatenate([pos, rng.uniform(-2, 2, (9, 3))]),
                                  1.5, cap)


def _cell_keys(pos: np.ndarray, r: float) -> np.ndarray:
    cells = np.floor(pos / r).astype(np.int64)
    rel = cells - cells.min(axis=0)
    dims = rel.max(axis=0) + 1
    return (rel[:, 0] * dims[1] + rel[:, 1]) * dims[2] + rel[:, 2]


class TestCellOrder:
    """spatial.cell_order: the point ids by (cell, x, y, z, id), and the
    index of the points in that order, equal to build_index's of them."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.sampled_from([0.0, 0.1, 0.5]))
    def test_order_and_index(self, seed, m, grain):
        # grain > 0 rounds the coordinates, so that many points tie in x,
        # in (x, y) or in all three
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1.0, 1.0, (m, 3))
        if grain:
            pos = np.round(pos / grain) * grain
        r = 0.3
        order, index = spatial.cell_order(pos, r)
        want = np.lexsort((np.arange(m), pos[:, 2], pos[:, 1], pos[:, 0], _cell_keys(pos, r)))
        assert np.array_equal(order, want)
        ref = spatial.build_index(pos[want], r)
        assert np.array_equal(index.order, np.arange(m))
        for name in ("positions", "cmin", "dims", "order", "ukeys", "ustarts"):
            assert np.array_equal(getattr(index, name), getattr(ref, name)), name
        assert index.cell_size == r

    def test_order_depends_on_positions_alone(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(-1.0, 1.0, (500, 3))
        pos[::7, 0] = 0.25  # ties in x, broken by y and z
        first = spatial.cell_order(pos, 0.3)[1].positions
        for _ in range(3):
            perm = rng.permutation(500)
            assert spatial.cell_order(pos[perm], 0.3)[1].positions.tobytes() == first.tobytes()

    def test_tables_on_the_ordered_cloud(self):
        # the search on the index cell_order builds is the search of the
        # points in that order
        pos, r = benchmark_cloud("scene-k7")
        order, index = spatial.cell_order(pos, r)
        assert _tables_equal(spatial.radius_neighbors(index, pos[order], r, 16),
                             _grid_table(pos[order], pos[order], r, 16))

    def test_rejects_what_build_index_rejects(self):
        for pos, r in ((np.empty((0, 3)), 1.0), (np.zeros((2, 3)), 0.0),
                       (np.array([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]]), 1.0),
                       (np.array([[np.nan, 0.0, 0.0]]), 1.0)):
            with pytest.raises(ValueError):
                spatial.build_index(pos, r)
            with pytest.raises(ValueError):
                spatial.cell_order(pos, r)


class TestFirstInOrder:
    """The one ordering step of every search, on its own: each query's
    pairs in (d2, point id) order, the first cap kept, whatever the input
    order. Exact ties and d2 values that differ only in the low bits the
    sort key drops make equal keys, which are re-sorted; with neither,
    the key order alone is used."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 300),
           st.integers(1, 20), st.integers(0, 30), st.integers(0, 30))
    def test_matches_lexsort(self, seed, n, pairs, cap, exact, near):
        rng = np.random.default_rng(seed)
        qid = rng.integers(0, n, pairs)
        pid = rng.integers(0, 2 * pairs + 1, pairs)
        _, first = np.unique(qid * (2 * pairs + 1) + pid, return_index=True)
        qid, pid = qid[first], pid[first]  # no (query, point) pair twice
        d2 = rng.uniform(0.0, 1.0, qid.shape[0]) ** 2
        d2[rng.integers(0, d2.shape[0], min(exact, d2.shape[0]) // 3)] = 0.0
        if d2.shape[0]:
            to, frm = rng.integers(0, d2.shape[0], (2, exact))
            d2[to] = d2[frm]  # exact ties, within a query or across queries
            to, frm = rng.integers(0, d2.shape[0], (2, near))
            # the same top bits as another pair: a low-bit near-tie
            low = 2 ** max(n - 1, 0).bit_length()
            d2[to] = (d2[frm].view(np.int64) // low * low
                      + rng.integers(0, low, near)).view(np.float64)
        perm = rng.permutation(qid.shape[0])
        qid, pid, d2 = qid[perm], pid[perm], d2[perm]

        rows, indices = spatial._first_in_order(qid, pid, d2, n, cap)
        order = np.lexsort((pid, d2, qid))
        rank = np.arange(order.shape[0]) - np.searchsorted(qid[order], qid[order])
        assert rows.tolist() == np.minimum(np.bincount(qid, minlength=n), cap).tolist()
        assert indices.tolist() == pid[order][rank < cap].tolist()


class TestEmptyQueries:
    @pytest.mark.parametrize("search", ["grid", "brute"])
    @on_both_passes
    @on_both_searches
    def test_empty_query_array_gives_empty_table(self, search):
        pos = np.random.default_rng(0).uniform(-1.0, 1.0, size=(30, 3))
        q = np.empty((0, 3))
        if search == "grid":
            table = _grid_table(pos, q, 0.6928, 16)
        else:
            table = spatial.brute_force_neighbors(pos, q, 0.6928, 16)
        assert np.array_equal(table.starts, [0])
        assert table.num_queries == 0 and table.num_pairs == 0
        assert table.offsets.shape == (0, 3)
        filt = conv.DeformableFilter(conv.grid_from_spacing(3, 0.2),
                                     np.ones((27, 2, 5)), np.ones(5))
        out = conv.forward_features(np.ones((30, 2)), table, filt)
        assert out.shape == (0, 5)
        gf, gw, gb = conv.backward_features(np.ones((30, 2)), table, filt, np.ones((0, 5)))
        assert gf.shape == (30, 2) and gw.shape == (27, 2, 5) and gb.shape == (5,)
        assert not (gf.any() or gw.any() or gb.any())


class TestReadOnlyTables:
    @pytest.mark.parametrize("search", ["grid", "brute"])
    def test_search_tables_are_read_only(self, search):
        pos = np.random.default_rng(1).uniform(-1.0, 1.0, size=(40, 3))
        if search == "grid":
            table = _grid_table(pos, pos, 0.5, 8)
        else:
            table = spatial.brute_force_neighbors(pos, pos, 0.5, 8)
        for arr in (table.starts, table.indices, table.offsets):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_caller_arrays_stay_writable(self):
        starts, indices = np.array([0, 1]), np.array([0])
        offsets = np.zeros((1, 3))
        spatial.NeighborTable(starts, indices, offsets, radius=1.0, cap=1)
        for arr in (starts, indices, offsets):
            assert arr.flags.writeable


class TestValidation:
    def test_bad_radius(self):
        pos = np.zeros((2, 3))
        index = spatial.build_index(pos, 1.0)
        with pytest.raises(ValueError):
            spatial.radius_neighbors(index, pos, 0.0, 4)
        with pytest.raises(ValueError):
            spatial.radius_neighbors(index, pos, -1.0, 4)

    def test_bad_cap(self):
        pos = np.zeros((2, 3))
        index = spatial.build_index(pos, 1.0)
        with pytest.raises(ValueError):
            spatial.radius_neighbors(index, pos, 1.0, 0)

    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            spatial.build_index(np.zeros((2, 3)), 0.0)

    def test_bad_positions_shape(self):
        with pytest.raises(ValueError):
            spatial.build_index(np.zeros((2, 2)), 1.0)
