"""Radius search: grid-hash vs brute force, ordering, caps, and the grid
search's limits on cell size and extent."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformconv import conv, spatial


def _tables_equal(a: spatial.NeighborTable, b: spatial.NeighborTable) -> bool:
    return (np.array_equal(a.starts, b.starts)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.offsets, b.offsets))


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
    def test_cell_size_independent(self, scale):
        rng = np.random.default_rng(99)
        pos = rng.uniform(-1, 1, (60, 3))
        r = 0.5
        grid = _grid_table(pos, pos, r, 8, cell_size=r * scale)
        brute = spatial.brute_force_neighbors(pos, pos, r, 8)
        assert _tables_equal(grid, brute)

    def test_queries_not_inputs(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(-1, 1, (50, 3))
        q = rng.uniform(-1.2, 1.2, (17, 3))
        grid = _grid_table(pos, q, 0.6, 5)
        brute = spatial.brute_force_neighbors(pos, q, 0.6, 5)
        assert _tables_equal(grid, brute)
        assert grid.num_queries == 17

    def test_empty_neighborhoods(self):
        pos = np.zeros((3, 3))
        q = np.array([[10.0, 0.0, 0.0]])
        table = _grid_table(pos, q, 0.5, 4)
        assert table.counts[0] == 0
        assert table.num_pairs == 0

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
    def test_property_equality(self, seed, m, r, cap):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1, 1, (m, 3))
        grid = _grid_table(pos, pos, r, cap)
        brute = spatial.brute_force_neighbors(pos, pos, r, cap)
        assert _tables_equal(grid, brute)


class TestInvariants:
    def _table(self, seed=0, m=70, r=0.7, cap=9):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1, 1, (m, 3))
        return pos, _grid_table(pos, pos, r, cap)

    def test_counts_capped_and_radius_respected(self):
        pos, table = self._table()
        assert np.all(table.counts <= 9)
        d = np.linalg.norm(table.offsets, axis=1)
        assert np.all(d <= 0.7 + 1e-12)

    def test_sorted_by_distance_then_index(self):
        pos, table = self._table()
        d2 = np.einsum("ij,ij->i", table.offsets, table.offsets)
        for q in range(table.num_queries):
            s, e = table.starts[q], table.starts[q + 1]
            keys = list(zip(d2[s:e], table.indices[s:e]))
            assert keys == sorted(keys)

    def test_self_first_for_distinct_points(self):
        pos, table = self._table(seed=5)
        for q in range(table.num_queries):
            assert table.indices[table.starts[q]] == q

    def test_translation_stable_offsets(self):
        pos, table = self._table(seed=8)
        shifted = _grid_table(pos + np.array([3.0, -7.0, 11.0]),
                              pos + np.array([3.0, -7.0, 11.0]), 0.7, 9)
        assert np.array_equal(table.starts, shifted.starts)
        assert np.array_equal(table.indices, shifted.indices)
        assert np.allclose(table.offsets, shifted.offsets, atol=1e-12)


class TestSearchLimits:
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

    @pytest.mark.parametrize("seed,m,half,r,cell,cap", [
        (12, 40, 0.05, 0.04, 0.001, 6),
        (99, 60, 1.0, 0.5, 0.5 * 0.45, 8),
    ], ids=["cell-0.001-r-0.04", "cell-0.45r"])
    def test_cell_smaller_than_radius_rejected(self, seed, m, half, r, cell, cap):
        pos = np.random.default_rng(seed).uniform(-half, half, (m, 3))
        index = spatial.build_index(pos, cell)
        with pytest.raises(ValueError, match="exceeds the index cell_size"):
            spatial.radius_neighbors(index, pos, r, cap)
        # the same search on cells as wide as the radius is exact
        grid = _grid_table(pos, pos, r, cap)
        assert _tables_equal(grid, spatial.brute_force_neighbors(pos, pos, r, cap))

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


class TestEmptyQueries:
    @pytest.mark.parametrize("search", ["grid", "brute"])
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
