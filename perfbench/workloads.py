"""The benchmark's workloads and the phases each one runs.

Every workload goes through the library's public API the way the
``gen-data``, ``train`` and ``eval`` commands do:

  setup  generate the inputs from the seed (toy-seg also writes them as
         dfc-xyz files and reads them back) and build the stack;
  train  ``nn.train_stack`` with its per-epoch eval, then
         ``save_checkpoint``;
  infer  ``load_checkpoint``, ``build_stack`` and ``nn.evaluate`` on
         fresh contexts, so neighbour search is paid per cloud.

Library functions are looked up as module attributes at call time, so
the traced run sees the calls made from here as well.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from deformconv import checkpoint, cli, conv, nn, pointcloud
from deformconv.pointcloud import SEGMENTATION, Dataset, PointCloud
from deformconv.rng import DetRng

# the gate-6 optimiser settings
LR = 1e-4
WEIGHT_DECAY = 5e-4
BATCH = 4
NOISE = 0.01
SPACING = 0.2
CAP = 16


def _conv(kind: str, d_in: int, d_out: int, k: int) -> dict:
    return {"type": kind, "in": d_in, "out": d_out, "k": k,
            "a": [SPACING] * 3, "r": None, "cap": CAP, "skip": 0}


def _stack(k: int, second: str) -> tuple[dict, ...]:
    return (
        _conv("deformable", 2, 8, k),
        {"type": "relu"},
        _conv(second, 8, 16, k),
        {"type": "relu"},
        {"type": "linear", "in": 16, "out": 2, "skip": 0},
    )


@dataclass(frozen=True)
class Workload:
    """One set of inputs. ``scene`` selects the uniform-cube generator of
    the ``bench`` command over the two-surfaces-seg dataset."""

    name: str
    scene: bool
    threads: int
    epochs: int
    specs: tuple[dict, ...]
    points: int  # per cloud
    n_train: int
    n_test: int  # per-epoch eval clouds; 0 scores the training set
    n_unseen: int
    k: int = 3


# Sizes keep one round (train, then infer) at a few seconds, so a 30-s
# run holds several rounds and 70 runs stay near 45 minutes on a 2-core
# host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-seg", scene=False, threads=1, epochs=2, specs=_stack(3, "deformable"),
                 points=256, n_train=32, n_test=8, n_unseen=16),
        Workload("scene-k3", scene=True, threads=2, epochs=2, specs=_stack(3, "deformable"),
                 points=20_000, n_train=1, n_test=0, n_unseen=1, k=3),
        Workload("scene-k7", scene=True, threads=1, epochs=2, specs=_stack(7, "separable"),
                 points=5_000, n_train=1, n_test=0, n_unseen=2, k=7),
    )
}


@dataclass
class Inputs:
    train: Dataset
    test: Dataset | None
    unseen: Dataset
    stack: nn.LayerStack
    written: list[PointCloud] | None  # toy-seg: clouds before the file round trip


def scene_cloud(rng: DetRng, m: int, radius: float) -> PointCloud:
    """The ``bench`` command's cloud (m uniform points in a cube sized so
    a radius ball holds about ``cap`` points, two feature channels) with
    labels from a fixed rule: 1 above the cube's mid-plane."""
    cloud = cli._bench_cloud(m, CAP, radius, rng, 2)
    side = (m / (CAP / (4.0 / 3.0 * np.pi * radius**3))) ** (1.0 / 3.0)
    labels = (cloud.positions[:, 2] > 0.5 * side).astype(np.int64)
    return PointCloud(cloud.positions, cloud.features, labels)


def setup(w: Workload, seed: int, workdir: str) -> Inputs:
    root = DetRng(seed)
    if w.scene:
        radius = conv.default_radius(conv.grid_from_spacing(w.k, SPACING))
        clouds = [scene_cloud(root.spawn(10 + i), w.points, radius)
                  for i in range(w.n_train + w.n_unseen)]
        written = None
    else:
        full = pointcloud.synth_dataset(
            "two-surfaces-seg", w.n_train + w.n_test + w.n_unseen, w.points, NOISE, seed)
        written = full.clouds
        clouds = []
        for i, cloud in enumerate(written):
            path = os.path.join(workdir, f"cloud_{i:04d}.xyz")
            pointcloud.save_xyz(cloud, path)
            clouds.append(pointcloud.load_xyz(path))
    a, b = w.n_train, w.n_train + w.n_test
    return Inputs(
        train=Dataset(clouds[:a], 2, SEGMENTATION),
        test=Dataset(clouds[a:b], 2, SEGMENTATION) if w.n_test else None,
        unseen=Dataset(clouds[b:], 2, SEGMENTATION),
        stack=nn.build_stack(list(w.specs), SEGMENTATION, rng=root.spawn(1)),
        written=written,
    )


def train(w: Workload, stack: nn.LayerStack, inputs: Inputs, seed: int,
          ckpt_path: str) -> list[nn.EpochLog]:
    logs = nn.train_stack(
        stack, inputs.train, lr=LR, weight_decay=WEIGHT_DECAY, epochs=w.epochs,
        batch_size=BATCH, rng=DetRng(seed).spawn(2), threads=w.threads,
        eval_set=inputs.test)
    ckpt = checkpoint.Checkpoint(
        task=SEGMENTATION, seed=seed, num_classes=2, layer_specs=list(w.specs),
        params=nn.flatten_params(stack))
    checkpoint.save_checkpoint(ckpt, ckpt_path)
    return logs


def infer(w: Workload, inputs: Inputs, ckpt_path: str):
    ckpt = checkpoint.load_checkpoint(ckpt_path)
    stack = ckpt.build_stack()
    report = nn.evaluate(stack, inputs.unseen, threads=w.threads)
    return ckpt, stack, report


def num_points(ds: Dataset) -> int:
    return sum(c.num_points for c in ds.clouds)
