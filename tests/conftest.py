"""Shared test fixtures and numeric helpers."""
from __future__ import annotations

import functools

import numpy as np
import pytest

from deformconv import cli, conv, pointcloud, spatial
from deformconv.rng import DetRng

# the full operator's two passes (conv.forward_features)
PASSES = ("dense", "channel")


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


def full_pass(mp: pytest.MonkeyPatch, name: str) -> None:
    """Send every table to one pass of the full operator: "dense" lifts
    the block budget so that every table takes the dense pass, "channel"
    lets none take it."""
    if name == "dense":
        mp.setattr(spatial, "_BLOCK_VALUES", 1 << 40)
    else:
        mp.setattr(conv, "_dense_map", lambda *args: None)


def on_both_passes(test):
    """Run a test once on each pass of the full operator (full_pass). A
    test that takes ``monkeypatch`` is handed the pass's own, so its
    patches end with the pass."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for name in PASSES:
            with pytest.MonkeyPatch.context() as mp:
                full_pass(mp, name)
                if "monkeypatch" in kwargs:
                    kwargs["monkeypatch"] = mp
                test(*args, **kwargs)
    return run
