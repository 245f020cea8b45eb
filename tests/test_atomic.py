"""Output files are written whole or not at all: a writer that fails
midway leaves neither a partial target nor a temporary file, and an
older file at the target keeps its bytes."""
from __future__ import annotations

import os

import numpy as np
import pytest

from deformconv import atomic, cli, pointcloud
from deformconv.atomic import atomic_open
from deformconv.checkpoint import Checkpoint, save_checkpoint


class _FailingFile:
    """A file whose ``fail_at``-th write raises, after the earlier writes
    reached the disk."""

    def __init__(self, fh, fail_at):
        self._fh, self._left = fh, fail_at

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            self._fh.flush()
            raise OSError("disk full")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.fixture
def fail_third_write(monkeypatch):
    def failing_open(*args, **kwargs):
        return _FailingFile(open(*args, **kwargs), 3)

    monkeypatch.setattr(atomic, "open", failing_open, raising=False)


def _cloud():
    rng = np.random.default_rng(0)
    return pointcloud.PointCloud(rng.uniform(-1, 1, (6, 3)), rng.normal(size=(6, 2)),
                                 np.zeros(6, dtype=np.int64))


def _checkpoint():
    specs = [{"type": "linear", "in": 2, "out": 2, "skip": 0}]
    return Checkpoint(task="segmentation", seed=1, num_classes=2, layer_specs=specs,
                      params=np.arange(6, dtype=np.float64))


WRITERS = {
    "xyz": lambda path: pointcloud.save_xyz(_cloud(), path),
    "checkpoint": lambda path: save_checkpoint(_checkpoint(), path),
    "manifest": lambda path: cli._write_manifest(
        path, [("a.xyz", 0, "train"), ("b.xyz", 1, "test")], "segmentation", 2),
}


@pytest.mark.parametrize("writer", list(WRITERS))
@pytest.mark.parametrize("previous", [None, b"older bytes\n"], ids=["new", "replace"])
def test_failed_write_leaves_no_trace(tmp_path, fail_third_write, writer, previous):
    target = tmp_path / "out.file"
    if previous is not None:
        target.write_bytes(previous)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](str(target))
    assert os.listdir(tmp_path) == ([] if previous is None else ["out.file"])
    if previous is not None:
        assert target.read_bytes() == previous


@pytest.mark.parametrize("writer", list(WRITERS))
def test_completed_write_replaces_target(tmp_path, writer):
    fresh, replaced = tmp_path / "fresh", tmp_path / "replaced"
    WRITERS[writer](str(fresh))
    replaced.write_bytes(b"x" * 100_000)
    WRITERS[writer](str(replaced))
    assert replaced.read_bytes() == fresh.read_bytes()
    plain = tmp_path / "plain"
    open(plain, "w").close()
    assert os.stat(fresh).st_mode == os.stat(plain).st_mode  # umask applies as for open
    assert sorted(os.listdir(tmp_path)) == ["fresh", "plain", "replaced"]


def test_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        with atomic_open(tmp_path / "no" / "such.csv") as fh:
            fh.write("never\n")
    assert os.listdir(tmp_path) == []


def test_text_mode_is_ascii_with_newlines(tmp_path):
    with atomic_open(tmp_path / "t.csv") as fh:
        fh.write("a,b\n")
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"
    with pytest.raises(UnicodeEncodeError):
        with atomic_open(tmp_path / "t.csv") as fh:
            fh.write("é\n")
    assert os.listdir(tmp_path) == ["t.csv"]
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"
