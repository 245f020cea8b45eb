"""Tiny-size runs of every workload through every output check, plus
checks that a broken program is caught."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from deformconv import conv, nn
from deformconv.pointcloud import SEGMENTATION
from deformconv.rng import DetRng

from perfbench import checks, runner, workloads

TINY = {
    "toy-seg": dict(points=32, n_train=3, n_test=1, n_unseen=2),
    "scene-k3": dict(points=400),
    "scene-k7": dict(points=300, n_train=1, n_unseen=2),
}
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_passes_every_check(name, tmp_path):
    w = replace(workloads.WORKLOADS[name], **TINY[name])
    res = runner.run(w, seed=5, seconds=0.0, traced=True, workdir=str(tmp_path))
    assert res.failures == []
    # per epoch loss, per round count/determinism, 2 parameter checks, and
    # per checked cloud: search + (oracle + adjoint) per conv layer +
    # reloaded prediction + full-cloud forward
    adjoint = 3 if w.specs[2]["type"] == "separable" else 2
    per_cloud = 1 + (1 + 2) + (1 + adjoint) + 1 + 1
    clouds = min(runner.CHECK_CLOUDS, w.n_unseen)
    expected = 2 * (w.epochs + 2) + 2 + clouds * per_cloud + (0 if w.scene else 1)
    assert res.attempted == expected
    assert res.end_to_end["fail_share"][0] == 0.0
    cfg = _config()
    assert {m["name"]: m["unit"] for m in cfg["per_layer"]} == {
        k: unit for k, (_, unit) in res.per_layer.items()}
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == {
        k: res.end_to_end[k][1] for k in runner.RESULT_METRICS}
    for phase, parts in res.phases.items():
        assert sum(parts.values()) == pytest.approx(res.per_layer[f"{phase}.wall_s"][0],
                                                    rel=1e-9)
    assert res.per_layer["conv.calls"][0] > 0 and res.per_layer["spatial.calls"][0] > 0
    assert (res.per_layer["pointcloud.bytes"][0] > 0) == (not w.scene)


def test_broken_forward_and_checkpoint_are_caught(monkeypatch, tmp_path):
    w = replace(workloads.WORKLOADS["toy-seg"], **TINY["toy-seg"])
    inputs = workloads.setup(w, 3, str(tmp_path))
    cloud = inputs.unseen.clouds[0]
    sample = checks.sample_rows(DetRng(1), cloud.num_points, 4)

    good = checks.CheckLog()
    checks.cloud_checks(good, inputs.stack, inputs.stack, cloud, sample, DetRng(2))
    assert good.failed == 0

    real = conv.forward_features
    monkeypatch.setattr(conv, "forward_features",
                        lambda *a, **k: real(*a, **k) * (1.0 + 1e-6))
    log = checks.CheckLog()
    checks.cloud_checks(log, inputs.stack, inputs.stack, cloud, sample, DetRng(2))
    assert log.attempted == good.attempted
    assert sum("oracle" in f for f in log.failures) == 2
    assert sum("adjoint" in f for f in log.failures) == 4
    monkeypatch.undo()

    path = str(tmp_path / "ck.dfc")
    workloads.train(replace(w, epochs=1), inputs.stack, inputs, 3, path)
    ckpt, reloaded, _ = workloads.infer(w, inputs, path)
    reloaded.layers[-1].bias[0] += 1e-12
    log = checks.CheckLog()
    checks.params_roundtrip(log, inputs.stack, ckpt, reloaded)
    checks.cloud_checks(log, inputs.stack, reloaded, cloud, sample, DetRng(2))
    assert log.failures == ["reloaded stack's parameters differ from the trained ones",
                            "reloaded stack predicts differently"]

    log = checks.CheckLog()
    checks.losses_finite(log, [nn.EpochLog(1, float("nan"), 0.5, 0.5)])
    assert log.failed == 1


class _DropFirstBlock:
    """Stands in for the thread pool of ``conv.forward_features`` and
    leaves the first query block unprocessed."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        return [fn(b) for b in list(blocks)[1:]]


def test_broken_threaded_forward_is_caught(monkeypatch):
    # big enough that the second conv layer's full-cloud forward runs in
    # several query blocks, which the sampled checks never do
    w = workloads.WORKLOADS["scene-k3"]
    radius = conv.default_radius(conv.grid_from_spacing(w.k, workloads.SPACING))
    cloud = workloads.scene_cloud(DetRng(4), 3000, radius)
    stack = nn.build_stack(list(w.specs), SEGMENTATION, rng=DetRng(5))
    sample = checks.sample_rows(DetRng(1), cloud.num_points, 8)

    good = checks.CheckLog()
    checks.cloud_checks(good, stack, stack, cloud, sample, DetRng(2), w.threads)
    assert good.failed == 0

    monkeypatch.setattr(conv, "ThreadPoolExecutor", _DropFirstBlock)
    log = checks.CheckLog()
    checks.cloud_checks(log, stack, stack, cloud, sample, DetRng(2), w.threads)
    assert log.attempted == good.attempted
    assert len(log.failures) == 1 and log.failures[0].startswith("full-cloud forward")


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cfg = _config()
    proc = subprocess.run(
        [sys.executable, *cfg["command"][1:], "--workload", "toy-seg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    cfg = _config()
    assert sorted(w["name"] for w in cfg["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in cfg["end_to_end"]] == list(runner.RESULT_METRICS)
    assert all(np.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in cfg["end_to_end"])
