"""Geometry counters on hand-built neighbour tables."""

import numpy as np

from deformconv import conv
from deformconv.spatial import NeighborTable

from perfbench import geometry


def _table(offsets, starts, cap):
    offsets = np.asarray(offsets, dtype=np.float64)
    return NeighborTable(
        starts=np.asarray(starts, dtype=np.int64),
        indices=np.arange(offsets.shape[0], dtype=np.int64),
        offsets=offsets,
        radius=1.0,
        cap=cap,
    )


def test_counts_on_hand_built_table():
    grid = conv.grid_from_spacing(3, 0.2)  # support box reaches 0.4 per axis
    table = _table(
        [[0.1, 0.0, 0.0],      # inside
         [0.4, 0.0, 0.0],      # on the box face: weight exactly 0
         [0.39, 0.39, -0.39],  # inside, near a corner
         [0.0, -0.5, 0.0]],    # outside
        starts=[0, 2, 3, 3, 4], cap=2)
    g = geometry.table_counts(table)
    assert (g.queries, g.pairs, g.full_queries) == (4, 4, 1)
    assert g.mean_neighbors == 1.0
    assert g.full_share == 0.25
    assert geometry.zero_weight_pairs(table, grid) == 2


def test_zero_weight_pairs_agree_with_the_filter():
    rng = np.random.default_rng(3)
    for k, unit in ((3, [0.2, 0.2, 0.2]), (7, [0.1, 0.15, 0.2])):
        grid = conv.grid_from_spacing(k, unit)
        reach = (grid.half + 1) * grid.unit
        offsets = rng.uniform(-1.3, 1.3, size=(400, 3)) * reach
        table = _table(offsets, [0, 400], cap=400)
        zero = sum(not conv.enclosing_anchors(z, grid) for z in offsets)
        assert 0 < zero < 400
        assert geometry.zero_weight_pairs(table, grid) == zero
