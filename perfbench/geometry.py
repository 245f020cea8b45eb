"""Exact geometry counters of a neighbour table against an anchor grid.

The counts are integers, so equal inputs give equal counts on every
machine; they double as a fingerprint that a workload's inputs did not
change between two commits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TableCounts:
    queries: int
    pairs: int
    full_queries: int  # queries whose list was cut at ``cap``

    @property
    def mean_neighbors(self) -> float:
        return self.pairs / self.queries if self.queries else 0.0

    @property
    def full_share(self) -> float:
        return self.full_queries / self.queries if self.queries else 0.0


def table_counts(table) -> TableCounts:
    counts = np.diff(table.starts)
    return TableCounts(
        queries=int(counts.shape[0]),
        pairs=int(table.indices.shape[0]),
        full_queries=int(np.count_nonzero(counts == table.cap)),
    )


def zero_weight_pairs(table, grid) -> int:
    """Pairs whose offset lies outside the filter's support box.

    The hat of the outermost anchor (half * unit per axis) is exactly 0
    at (half + 1) * unit, so such a pair gets weight 0 from every anchor;
    a pair strictly inside the box gets a positive weight from at least
    one anchor.
    """
    reach = (grid.half + 1) * np.asarray(grid.unit)
    outside = np.abs(table.offsets) >= reach
    return int(np.count_nonzero(outside.any(axis=1)))
