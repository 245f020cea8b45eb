"""Shared test fixtures and numeric helpers."""
from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from deformconv import cli, conv, pointcloud, spatial
from deformconv.rng import DetRng

# the full operator's two passes (conv.forward_features)
PASSES = ("dense", "channel")
# the two paths of spatial.radius_neighbors
SEARCHES = ("grid", "one-block")


def run_python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """``python *args`` in a subprocess that imports deformconv from this
    tree; past ``timeout`` seconds it is killed and the test fails
    (subprocess.TimeoutExpired), so a hang cannot stall the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=timeout)


def random_cloud(rng: np.random.Generator, m: int, dim: int, extent: float = 1.0):
    positions = rng.uniform(-extent, extent, size=(m, 3))
    features = rng.normal(size=(m, dim))
    return pointcloud.PointCloud(positions=positions, features=features)


def random_filter(rng: np.random.Generator, k: int, spacing: float, d_in: int, d_out: int,
                  bias: bool = False) -> conv.DeformableFilter:
    grid = conv.grid_from_spacing(k, spacing)
    weights = rng.normal(size=(grid.num_anchors, d_in, d_out))
    b = rng.normal(size=d_out) if bias else None
    return conv.DeformableFilter(grid=grid, weights=weights, bias=b)


def neighbor_table(cloud: pointcloud.PointCloud, radius: float, cap: int) -> spatial.NeighborTable:
    index = spatial.build_index(cloud.positions, radius)
    return spatial.radius_neighbors(index, cloud.positions, radius, cap)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-30)
    return float(np.max(np.abs(a - b))) / denom if a.size else 0.0


def fd_grad(fun, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + step
        hi = fun()
        x[idx] = old - step
        lo = fun()
        x[idx] = old
        g[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return g


def grad_rel(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def det_rng(seed: int) -> DetRng:
    return DetRng(seed)


def benchmark_cloud(name: str):
    """Positions and search radius of one of the benchmark's clouds: a
    toy-seg cloud, and the bench clouds of scene-k3 and scene-k7."""
    r3 = conv.default_radius(conv.grid_from_spacing(3, 0.2))
    if name == "toy-seg":
        return pointcloud.synth_dataset("two-surfaces-seg", 1, 256, 0.01, 11).clouds[0].positions, r3
    if name == "scene-k3":
        return cli._bench_cloud(20_000, 16, r3, DetRng(11).spawn(10), 2).positions, r3
    r7 = conv.default_radius(conv.grid_from_spacing(7, 0.2))
    return cli._bench_cloud(5_000, 16, r7, DetRng(11).spawn(10), 2).positions, r7


def fresh_table(table: spatial.NeighborTable) -> spatial.NeighborTable:
    """A new table object with the same pairs, so its kernel map is built
    again, in the blocks that the block budget then in force cuts."""
    return spatial.NeighborTable(table.starts, table.indices, table.offsets,
                                 table.radius, table.cap)


def map_entries(kmap: list, num_anchors: int):
    """(query, anchor, nbr, w) of every entry of a kernel map, block after
    block, with each block's keys turned back into table query ids and its
    neighbour ids back into the table's (base + local id)."""
    keys = [b[0].start * num_anchors + b[1] for b in kmap]
    query, anchor = np.divmod(np.concatenate([np.empty(0, np.int64)] + keys), num_anchors)
    nbr = np.concatenate([np.empty(0, np.int64)] + [b[4] + b[2] for b in kmap])
    return query, anchor, nbr, np.concatenate([np.empty(0)] + [b[3] for b in kmap])


def map_pairs_per_query(table: spatial.NeighborTable, grid: conv.AnchorGrid) -> np.ndarray:
    """How many of each query's pairs hold an entry of its kernel map."""
    query, _, nbr, _ = map_entries(conv._kernel_map(table, grid), grid.num_anchors)
    pairs = np.unique(np.stack([query, nbr]), axis=1)[0]
    return np.bincount(pairs, minlength=table.num_queries)


def lift_budget(mp: pytest.MonkeyPatch, values: int) -> None:
    """Set the block budget to ``values``, except in the search's choice
    of its one-block path, which keeps the budget it had: under a lifted
    budget a large cloud would otherwise form its whole (queries, points)
    distance matrix, 3.2 GB for 20,000 points."""
    budget, one_block = spatial._BLOCK_VALUES, spatial._all_pairs

    def within_budget(index, q, r, cap):
        if q.shape[0] * index.positions.shape[0] <= budget:
            return one_block(index, q, r, cap)
        return spatial._grid_search(index, q, r, cap)

    mp.setattr(spatial, "_BLOCK_VALUES", values)
    mp.setattr(spatial, "_all_pairs", within_budget)


def full_pass(mp: pytest.MonkeyPatch, name: str) -> None:
    """Send every table to one pass of the full operator: "dense" lifts
    the block budget (lift_budget) so that every table takes the dense
    pass, "channel" lets none take it."""
    if name == "dense":
        lift_budget(mp, 1 << 40)
    else:
        mp.setattr(conv, "_dense_map", lambda *args: None)


def _join_tables(tables: list[spatial.NeighborTable]) -> spatial.NeighborTable:
    """One read-only table holding the queries of ``tables`` in turn."""
    if len(tables) == 1:
        return tables[0]
    pairs = np.cumsum([0] + [t.num_pairs for t in tables])
    starts = np.concatenate([[0]] + [t.starts[1:] + p for t, p in zip(tables, pairs)])
    indices = np.concatenate([t.indices for t in tables])
    offsets = np.concatenate([t.offsets for t in tables])
    for arr in (starts, indices, offsets):
        arr.setflags(write=False)
    return spatial.NeighborTable(starts, indices, offsets, tables[0].radius, tables[0].cap)


def search_path(mp: pytest.MonkeyPatch, name: str) -> None:
    """Send every ``radius_neighbors`` search to one of its paths: "grid"
    to the grid sweep; "one-block" to the all-pairs matrix, in runs of
    queries whose matrices each fit the block budget and whose tables are
    joined, so a large cloud never forms one matrix."""
    if name == "grid":
        mp.setattr(spatial, "_all_pairs", spatial._grid_search)
        return
    one_block = spatial._all_pairs

    def in_runs(index, q, r, cap):
        run = max(1, spatial._BLOCK_VALUES // index.positions.shape[0])
        return _join_tables([one_block(index, q[a:a + run], r, cap)
                            for a in range(0, q.shape[0], run)])

    mp.setattr(spatial, "_grid_search", in_runs)


def _on_each(names, setup, test):
    """test, run once per name under its own setup(mp, name)."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for name in names:
            with pytest.MonkeyPatch.context() as mp:
                setup(mp, name)
                if "monkeypatch" in kwargs:
                    kwargs["monkeypatch"] = mp
                test(*args, **kwargs)
    return run


def on_both_passes(test):
    """Run a test once on each pass of the full operator (full_pass). A
    test that takes ``monkeypatch`` is handed the pass's own, so its
    patches end with the pass."""
    return _on_each(PASSES, full_pass, test)


def on_both_searches(test):
    """Run a test once on each path of ``radius_neighbors``
    (search_path), with the same handling of ``monkeypatch`` as
    on_both_passes."""
    return _on_each(SEARCHES, search_path, test)
