"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output) and asserts the criterion at its stated tolerance and
time budget. Calibrated constants (toy-training seed and threshold,
performance margins) are frozen here on purpose; loosening them to make
a red test green defeats the gate.
"""
from __future__ import annotations

import time

import numpy as np

from deformconv import baselines, cli, conv, nn, pointcloud
from deformconv.checkpoint import load_checkpoint
from deformconv.rng import DetRng
from deformconv.spatial import build_index, radius_neighbors

from conftest import fd_grad, grad_rel, neighbor_table, on_both_passes, random_cloud, rel_err


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _instance(rng, *, max_m=64, max_dim=8, k_choices=(1, 3, 7), bias=True):
    m = int(rng.integers(2, max_m + 1))
    d_in = int(rng.integers(1, max_dim + 1))
    d_out = int(rng.integers(1, max_dim + 1))
    k = int(rng.choice(k_choices))
    spacing = float(rng.uniform(0.15, 0.3))
    grid = conv.grid_from_spacing(k, spacing)
    cloud = random_cloud(rng, m, d_in, extent=1.0)
    radius = conv.default_radius(grid)
    cap = int(rng.integers(4, 17))
    table = neighbor_table(cloud, radius, cap)
    w = rng.normal(size=(grid.num_anchors, d_in, d_out))
    b = rng.normal(size=d_out) if (bias and rng.random() < 0.5) else None
    filt = conv.DeformableFilter(grid, w, b)
    return cloud, table, filt


@on_both_passes
def test_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        cloud, table, filt = _instance(rng)
        fast = conv.forward_features(cloud.features, table, filt)
        slow = conv.oracle_forward_features(cloud.features, table, filt)
        worst = max(worst, rel_err(fast, slow))
    elapsed = time.perf_counter() - t0
    _report(1, "oracle equivalence", worst <= 1e-12 and elapsed < 10.0,
            f"100 instances, max rel err {worst:.3e}, {elapsed:.2f}s")


@on_both_passes
def test_2_gradient_checks():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        m = int(rng.integers(2, 17))
        d_in = int(rng.integers(1, 4))
        d_out = int(rng.integers(1, 4))
        k = 7 if i % 10 == 9 else int(rng.choice([1, 3]))
        grid = conv.grid_from_spacing(k, float(rng.uniform(0.15, 0.3)))
        cloud = random_cloud(rng, m, d_in, extent=0.6)
        table = neighbor_table(cloud, conv.default_radius(grid), 8)
        feats = cloud.features.copy()
        w = rng.normal(size=(grid.num_anchors, d_in, d_out))
        b = rng.normal(size=d_out)
        upstream = rng.normal(size=(m, d_out))

        def loss(f=feats, wt=w, bs=b):
            filt = conv.DeformableFilter(grid, wt.copy(), bs.copy())
            out = conv.forward_features(f, table, filt)
            return float(np.sum(out * upstream))

        filt = conv.DeformableFilter(grid, w.copy(), b.copy())
        gf, gw, gb = conv.backward_features(feats, table, filt, upstream)
        worst = max(
            worst,
            grad_rel(gf, fd_grad(loss, feats)),
            grad_rel(gw, fd_grad(loss, w)),
            grad_rel(gb, fd_grad(loss, b)),
        )
    elapsed = time.perf_counter() - t0
    _report(2, "finite-difference gradients", worst <= 1e-6 and elapsed < 60.0,
            f"20 instances, max rel err {worst:.3e}, {elapsed:.2f}s")


def test_3_translation_and_permutation_equivariance():
    worst_t = 0.0
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        cloud, _, filt = _instance(rng, max_m=32, max_dim=4, k_choices=(1, 3))
        radius = conv.default_radius(filt.grid)
        table = neighbor_table(cloud, radius, cloud.num_points)
        base = conv.forward_features(cloud.features, table, filt)
        for _ in range(5):
            shift = rng.normal(size=3)
            norm = np.linalg.norm(shift)
            shift = shift / norm * rng.uniform(0.0, 100.0)
            moved = pointcloud.PointCloud(
                cloud.positions + shift, cloud.features)
            out = conv.forward_features(
                moved.features, neighbor_table(moved, radius, cloud.num_points), filt)
            worst_t = max(worst_t, rel_err(out, base))

    worst_p = 0.0
    for i in range(50):
        rng = np.random.default_rng(3500 + i)
        cloud, _, filt = _instance(rng, max_m=32, max_dim=4, k_choices=(1, 3))
        radius = conv.default_radius(filt.grid)
        table = neighbor_table(cloud, radius, cloud.num_points)
        base = conv.forward_features(cloud.features, table, filt)
        for _ in range(5):
            perm = rng.permutation(cloud.num_points)
            shuffled = pointcloud.PointCloud(
                cloud.positions[perm], cloud.features[perm])
            out = conv.forward_features(
                shuffled.features, neighbor_table(shuffled, radius, cloud.num_points),
                filt)
            worst_p = max(worst_p, rel_err(out, base[perm]))

    _report(3, "translation and permutation equivariance",
            worst_t <= 1e-9 and worst_p <= 1e-9,
            f"50x5 shifts rel {worst_t:.3e}, 50x5 perms rel {worst_p:.3e}")


def test_4_partition_of_unity_and_support():
    rng = np.random.default_rng(4000)
    worst_sum = 0.0
    for _ in range(1000):
        k = int(rng.choice([3, 7]))
        spacing = rng.uniform(0.1, 0.4, size=3)
        grid = conv.grid_from_spacing(k, spacing)
        z = rng.uniform(-1.0, 1.0, size=3) * grid.half * spacing
        weights = [w for _, w in conv.enclosing_anchors(z, grid)]
        worst_sum = max(worst_sum, abs(sum(weights) - 1.0))

    all_zero = True
    for _ in range(1000):
        k = int(rng.choice([1, 3, 7]))
        spacing = rng.uniform(0.1, 0.4, size=3)
        grid = conv.grid_from_spacing(k, spacing)
        support = (grid.half + 1) * spacing
        z = rng.uniform(-1.0, 1.0, size=3) * support
        axis = int(rng.integers(3))
        z[axis] = np.sign(z[axis] or 1.0) * support[axis] * rng.uniform(1.0, 3.0)
        filt = conv.DeformableFilter(
            grid, rng.normal(size=(grid.num_anchors, 2, 2)))
        deformed = conv.interpolate_filter(z, filt)
        all_zero = all_zero and np.all(deformed == 0.0) \
            and conv.enclosing_anchors(z, grid) == []

    _report(4, "partition of unity and compact support",
            worst_sum <= 1e-12 and all_zero,
            f"1000 in-hull sums off by <= {worst_sum:.3e}, "
            f"1000 outside-support filters exactly zero: {all_zero}")


def test_5_subvoxel_discrimination():
    worst_voxel = 0.0
    least_deform = np.inf
    for seed in range(10):
        rep = baselines.subvoxel_discrimination(0.2, 0.05, seed)
        worst_voxel = max(worst_voxel, rep.voxel_path_diff)
        least_deform = min(least_deform, rep.deform_path_diff)

    # Constructive non-equivariance: two points share a voxel, a +0.1 m
    # shift pushes one across the 0.2 m cell boundary, so the voxel
    # path's features jump while the deformable output just translates.
    rng = np.random.default_rng(5000)
    pos = np.array([[0.04, 0.05, 0.05], [0.16, 0.05, 0.05]])
    feats = rng.normal(size=(2, 3))
    cloud = pointcloud.PointCloud(pos, feats)
    moved = pointcloud.PointCloud(pos + np.array([0.1, 0.0, 0.0]), feats)
    vox_before = baselines.cell_mean(cloud.positions, cloud.features, 0.2)
    vox_after = baselines.cell_mean(moved.positions, moved.features, 0.2)
    vox_jump = float(np.max(np.abs(vox_after - vox_before)))

    grid = conv.grid_from_spacing(3, 0.2)
    filt = conv.DeformableFilter(
        grid, rng.normal(size=(grid.num_anchors, 3, 3)))
    radius = conv.default_radius(grid)
    d_before = conv.forward_features(cloud.features, neighbor_table(cloud, radius, 4), filt)
    d_after = conv.forward_features(moved.features, neighbor_table(moved, radius, 4), filt)
    deform_drift = rel_err(d_after, d_before)

    _report(5, "sub-voxel discrimination",
            worst_voxel < 1e-12 and least_deform > 1e-6
            and vox_jump > 1e-2 and deform_drift <= 1e-9,
            f"10 seeds voxel diff <= {worst_voxel:.1e}, deformable diff >= "
            f"{least_deform:.3e}; boundary shift: voxel jump {vox_jump:.3f}, "
            f"deformable drift {deform_drift:.1e}")


def test_6_toy_segmentation_learning():
    # Frozen calibration: seed 11 reaches 0.958 test accuracy at epoch 2
    # with these exact settings; the gate asserts a margin below that.
    t0 = time.perf_counter()
    full = pointcloud.synth_dataset("two-surfaces-seg", 500, 256, 0.01, 11)
    train = pointcloud.Dataset(full.clouds[:400], 2, "segmentation")
    test = pointcloud.Dataset(full.clouds[400:], 2, "segmentation")
    specs = [
        {"type": "deformable", "in": 2, "out": 8, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 16, "skip": 0},
        {"type": "relu"},
        {"type": "deformable", "in": 8, "out": 16, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 16, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 16, "out": 2, "skip": 0},
    ]
    rng = DetRng(11)
    stack = nn.build_stack(specs, "segmentation", rng=rng)
    logs = nn.train_stack(
        stack, train, lr=1e-4, weight_decay=5e-4, epochs=30, batch_size=4,
        rng=rng, eval_set=test, stop_accuracy=0.93)
    elapsed = time.perf_counter() - t0
    final = nn.evaluate(stack, test)
    _report(6, "toy segmentation learning",
            final.accuracy >= 0.90 and len(logs) <= 30 and elapsed < 900.0,
            f"test accuracy {final.accuracy:.3f} (miou {final.miou:.3f}) "
            f"after {len(logs)} epochs in {elapsed:.0f}s")


def test_7_separable_consistency():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        m = int(rng.integers(2, 33))
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 7]))
        grid = conv.grid_from_spacing(k, float(rng.uniform(0.15, 0.3)))
        cloud = random_cloud(rng, m, d_in, extent=1.0)
        table = neighbor_table(cloud, conv.default_radius(grid), 12)
        spatial = rng.normal(size=(grid.num_anchors, d_in))
        pointwise = rng.normal(size=(d_in, d_out))
        bias = rng.normal(size=d_out)
        full = conv.DeformableFilter(
            grid, spatial[:, :, None] * pointwise[None, :, :], bias)
        sep = conv.SeparableFilter(grid, spatial, pointwise, bias)
        a = conv.forward_features(cloud.features, table, full)
        b = conv.forward_separable_features(cloud.features, table, sep)
        worst = max(worst, rel_err(a, b))
    _report(7, "separable filters match rank-1 full filters", worst <= 1e-12,
            f"50 instances, max rel err {worst:.3e}")


def test_8_performance(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        f"seed = 2\nout = {tmp_path / 'bench'}\n"
        "bench.sizes = 10000:16:7\nbench.reps = 5\n", encoding="ascii")
    code = cli.main(["bench", "--config", str(cfg)])
    assert code == 0
    rows = {}
    lines = (tmp_path / "bench" / "bench.csv").read_text().splitlines()[1:]
    for line in lines:
        op, _m, _cap, _k, ns = line.split(",")
        rows[op] = float(ns)
    speedup = rows["oracle_forward"] / rows["forward"]

    rng = DetRng(7)
    grid = conv.grid_from_spacing(3, 0.2)
    radius = conv.default_radius(grid)
    m = 100_000
    cloud = cli._bench_cloud(m, 16, radius, rng, 4)
    table = radius_neighbors(
        build_index(cloud.positions, radius), cloud.positions, radius, 16)
    filt = conv.DeformableFilter(
        grid, 0.5 * rng.normals(grid.num_anchors * 16).reshape(
            grid.num_anchors, 4, 4))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        conv.forward_features(cloud.features, table, filt, threads=1)
        times.append(time.perf_counter() - t0)
    big_forward = sorted(times)[2]

    _report(8, "performance", speedup >= 2.0 and big_forward < 2.0,
            f"M=10^4 k=7 fast is {speedup:.1f}x oracle; "
            f"M=10^5 k=3 forward {big_forward:.2f}s single-threaded")


def test_9_byte_identical_reruns(tmp_path):
    def run(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        data = root / "data"
        cfg = root / "run.cfg"
        root.mkdir()
        cfg.write_text(f"""
task = segmentation
seed = 9
out = {root / 'out'}
data.kind = two-surfaces-seg
data.dir = {data}
data.train = 8
data.test = 3
data.points = 64
data.noise = 0.01
layer.count = 3
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 4
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 8
layer.1.type = relu
layer.2.type = linear
layer.2.in = 4
layer.2.out = 2
opt.lr = 0.001
opt.weight_decay = 0.0005
opt.epochs = 2
opt.batch = 4
eval.checkpoint = {root / 'out' / 'checkpoint.dfc'}
eval.split = test
export.checkpoint = {root / 'out' / 'checkpoint.dfc'}
export.layer = 0
""", encoding="ascii")
        arg = ["--config", str(cfg)]
        assert cli.main(["gen-data"] + arg) == 0
        assert cli.main(["train"] + arg) == 0
        assert cli.main(["eval"] + arg) == 0
        assert cli.main(["export-filters"] + arg) == 0
        blobs = {}
        for f in sorted(data.iterdir()):
            blobs["data/" + f.name] = f.read_bytes()
        for name in ("train_log.csv", "checkpoint.dfc", "metrics.csv",
                     "filters.csv"):
            blobs[name] = (root / "out" / name).read_bytes()
        return blobs

    first = run("a")
    second = run("b")
    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    ckpt = load_checkpoint(tmp_path / "a" / "out" / "checkpoint.dfc")
    _report(9, "byte-identical reruns", same,
            f"{len(first)} files compared (clouds, log, checkpoint, metrics, "
            f"filters); params finite: {bool(np.all(np.isfinite(ckpt.params)))}")
