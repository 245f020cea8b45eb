"""Every reader either loads a damaged file or raises its documented
error class; whatever loads saves back to the same contents."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deformconv import cli, nn
from deformconv.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                                   save_checkpoint)
from deformconv.config import ConfigError, load_config
from deformconv.pointcloud import PointCloud, XyzFormatError, load_xyz, save_xyz
from deformconv.rng import DetRng

_SPECS = [
    {"type": "deformable", "in": 2, "out": 3, "k": 3,
     "a": [0.2, 0.2, 0.2], "r": None, "cap": 4, "skip": 1},
    {"type": "relu"},
    {"type": "linear", "in": 5, "out": 2, "skip": 0},
]

_CONFIG = b"""# a small run
task = segmentation
seed = 11
out = runs/demo
data.kind = two-surfaces-seg
data.train = 4
data.test = 2
data.points = 32
layer.count = 3
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 8
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 16
layer.1.type = relu
layer.2.type = linear
layer.2.in = 8
layer.2.out = 2
opt.lr = 0.0001
opt.epochs = 2
"""


def _xyz_load(path):
    c = load_xyz(path)
    return c.positions, c.features, c.labels


def _xyz_save(path, loaded):
    save_xyz(PointCloud(*loaded), path)


def _ckpt_load(path):
    c = load_checkpoint(path)
    return c.task, c.seed, c.num_classes, c.layer_specs, c.params


def _ckpt_save(path, loaded):
    task, seed, classes, specs, params = loaded
    save_checkpoint(Checkpoint(task, seed, classes, specs, params), path)


def _config_load(path):
    cfg = load_config(path)
    cfg.layer_specs()  # the layer keys are read by the same reader's rules
    return cfg.values


def _manifest_save(path, loaded):
    task, classes, rows = loaded
    cli._write_manifest(path, rows, task, classes)


def _seed_files(root):
    rng = np.random.default_rng(3)
    save_xyz(PointCloud(rng.uniform(-1, 1, (4, 3)), rng.normal(size=(4, 2)),
                        np.array([0, 1, 1, 0])), root / "cloud.xyz")
    stack = nn.build_stack(_SPECS, "segmentation", rng=DetRng(5))
    save_checkpoint(Checkpoint("segmentation", 5, 2, _SPECS, nn.flatten_params(stack)),
                    root / "ckpt.dfc")
    (root / "run.cfg").write_bytes(_CONFIG)
    cli._write_manifest(root / "manifest.csv",
                        [("cloud_0000.xyz", -1, "train"), ("cloud_0001.xyz", -1, "test")],
                        "segmentation", 2)


# name: (seed file, load, documented error class, save or None)
_READERS = {
    "xyz": ("cloud.xyz", _xyz_load, XyzFormatError, _xyz_save),
    "checkpoint": ("ckpt.dfc", _ckpt_load, CheckpointError, _ckpt_save),
    "config": ("run.cfg", _config_load, ConfigError, None),
    "manifest": ("manifest.csv", cli._read_manifest, XyzFormatError, _manifest_save),
}


def _equal(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
    st.tuples(st.just("delete"), st.floats(0, 1, exclude_max=True), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
    st.tuples(st.just("insert"), st.floats(0, 1),
              st.sampled_from([b"nan", b"1e999", b"\xff"])),
)


def _mutate(blob: bytes, mutations) -> bytes:
    for kind, where, arg in mutations:
        at = int(where * (len(blob) + (kind == "insert")))
        if kind == "flip" and blob:
            blob = blob[:at] + bytes([blob[at] ^ arg]) + blob[at + 1:]
        elif kind == "delete":
            blob = blob[:at] + blob[at + arg:]
        elif kind == "truncate":
            blob = blob[:at]
        elif kind == "insert":
            blob = blob[:at] + arg + blob[at:]
    return blob


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeds")
    _seed_files(root)
    return root


@pytest.mark.parametrize("reader", list(_READERS))
def test_seed_files_round_trip(seeds, tmp_path, reader):
    name, load, _, save = _READERS[reader]
    loaded = load(seeds / name)
    if save is not None:
        save(tmp_path / name, loaded)
        assert (tmp_path / name).read_bytes() == (seeds / name).read_bytes()


@pytest.mark.parametrize("reader", list(_READERS))
@settings(max_examples=120, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_file_loads_or_raises_its_error(seeds, tmp_path_factory, reader, mutations):
    name, load, error, save = _READERS[reader]
    work = tmp_path_factory.mktemp(reader)
    path = work / name
    path.write_bytes(_mutate((seeds / name).read_bytes(), mutations))
    try:
        loaded = load(path)
    except error:
        return
    if save is not None:
        save(work / ("again-" + name), loaded)
        assert _equal(load(work / ("again-" + name)), loaded)
