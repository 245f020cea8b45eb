"""Command line interface.

    deformconv gen-data          --config run.cfg
    deformconv train             --config run.cfg [--seed N] [--out DIR] [--threads N]
    deformconv eval              --config run.cfg ...
    deformconv bench             --config run.cfg ...
    deformconv export-filters    --config run.cfg ...
    deformconv compare-baselines --config run.cfg ...

Exit codes: 0 success, 1 usage or configuration error (``data.*``
values included), 2 data error (unreadable or malformed dataset or
checkpoint files, points past the search grid), 3 internal check failed
(``bench``'s fast forward disagrees with the oracle: a fault in the
library, not in any input). ``_EXITS`` maps each error class to its
code; any other exception is a fault of the program, and propagates.

Every run is a pure function of config + seed: outputs (logs, reports,
checkpoints, generated data) are byte-identical across repeated runs.
Benchmark timings are the one deliberate exception.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from statistics import median

import numpy as np

from . import baselines, conv, nn
from .atomic import atomic_open
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config
from .pointcloud import (
    CLASSIFICATION,
    Dataset,
    PointCloud,
    TASKS,
    XyzFormatError,
    label_fault,
    load_xyz,
    save_xyz,
    synth_dataset,
)
from .rng import DetRng
from .spatial import GridRangeError, NeighborTable


class UsageError(Exception):
    pass


class InternalCheckError(Exception):
    """The library failed one of its own cross-checks (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_csv(out_dir: str, name: str, header: str, rows) -> str:
    """Write out_dir/name whole (atomic_open): the header line(s), then
    one comma-separated line per row, floats at full precision (%.17g).
    Returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


# ---------------------------------------------------------------- data


def _write_manifest(path, rows, task: str, num_classes: int) -> None:
    data_dir, name = os.path.split(os.path.abspath(path))
    _write_csv(data_dir, name, f"# dfc-manifest task={task} classes={num_classes}\n"
               "file,label,split", rows)


def _read_manifest(path):
    """(task, classes, rows) of a manifest, each row (line number, file,
    label, split)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [l.rstrip("\n") for l in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise XyzFormatError(f"cannot read manifest {path}: {exc}") from None
    if len(lines) < 3:
        raise XyzFormatError(f"{path}: manifest too short")
    # four whitespace-separated tokens
    head = re.fullmatch(r"# dfc-manifest task=(\S*) classes=(\S*)", " ".join(lines[0].split()))
    if head is None:
        raise XyzFormatError(f"{path}:1: bad manifest header")
    task = head[1]
    if task not in TASKS:
        raise XyzFormatError(f"{path}:1: unknown task {task!r}")
    try:
        num_classes = int(head[2])
        if num_classes < 1:
            raise ValueError
    except ValueError:
        raise XyzFormatError(f"{path}:1: bad class count") from None
    if lines[1] != "file,label,split":
        raise XyzFormatError(f"{path}:2: expected 'file,label,split'")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise XyzFormatError(f"{path}:{lineno}: expected 3 fields")
        if parts[2] not in ("train", "test"):
            raise XyzFormatError(f"{path}:{lineno}: unknown split {parts[2]!r} (train or test)")
        rows.append((lineno, *parts))
    if not rows:
        raise XyzFormatError(f"{path}: manifest lists no clouds")
    return task, num_classes, rows


def _load_dir_datasets(data_dir) -> dict[str, Dataset]:
    manifest = os.path.join(data_dir, "manifest.csv")
    task, num_classes, rows = _read_manifest(manifest)
    by_split: dict[str, list[PointCloud]] = {}
    first = None  # (path, feature channels) of the first cloud
    for lineno, name, label, split in rows:
        path = os.path.join(data_dir, name)
        cloud = load_xyz(path)
        first = first or (path, cloud.feature_dim)
        if cloud.feature_dim != first[1]:
            raise XyzFormatError(
                f"{path}: {cloud.feature_dim} feature channels, but {first[0]} has {first[1]}")
        fault = label_fault(cloud, num_classes, task)
        if fault is not None:
            raise XyzFormatError(f"{path}: {fault} (manifest: task={task} classes={num_classes})")
        # a segmentation row's label is not read (gen-data writes -1)
        if task == CLASSIFICATION and not (label.isdigit() and int(label) == cloud.labels[0]):
            raise XyzFormatError(
                f"{manifest}:{lineno}: label {label!r}, but {name} holds class {cloud.labels[0]}")
        by_split.setdefault(split, []).append(cloud)
    return {
        split: Dataset(clouds, num_classes=num_classes, task=task)
        for split, clouds in by_split.items()
    }


def _synth_split(cfg: RunConfig, seed: int) -> tuple[Dataset, Dataset]:
    """(train, test) synthesised from the data.* keys; values that
    synth_dataset rejects are configuration errors."""
    kind = cfg.get_str("data.kind")
    n_train = cfg.get_int("data.train")
    n_test = cfg.get_int("data.test")
    points = cfg.get_int("data.points")
    noise = cfg.get_float("data.noise", 0.0)
    if n_train < 0 or n_test < 0:
        raise ConfigError(f"need data.train >= 0 and data.test >= 0, got {n_train} and {n_test}")
    try:
        full = synth_dataset(kind, n_train + n_test, points, noise, seed)
    except ValueError as exc:
        raise ConfigError(
            f"data.kind = {kind}, data.train + data.test = {n_train + n_test}, "
            f"data.points = {points}, data.noise = {noise:g}: {exc}"
        ) from None
    train = Dataset(full.clouds[:n_train], full.num_classes, full.task)
    test = Dataset(full.clouds[n_train:], full.num_classes, full.task)
    return train, test


def _datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """(train, test) from data.dir if set, else synthesised in memory
    from the config seed, which only this case reads."""
    if cfg.has("data.dir"):
        splits = _load_dir_datasets(cfg.get_str("data.dir"))
        if "train" not in splits or "test" not in splits:
            raise XyzFormatError("manifest must provide train and test splits")
        return splits["train"], splits["test"]
    return _synth_split(cfg, cfg.get_int("seed"))


def _task_datasets(cfg: RunConfig) -> tuple[str, Dataset, Dataset]:
    """(task, train, test) of a training run: the config task, and
    _datasets checked to be of that task, with no empty split (only a
    synthesised one can be)."""
    task = cfg.get_str("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    train, test = _datasets(cfg)
    if len(train) == 0 or len(test) == 0:
        raise ConfigError(f"need data.train, data.test >= 1, got {len(train)} and {len(test)}")
    if train.task != task:
        raise ConfigError(f"config task {task!r} does not match dataset task {train.task!r}")
    return task, train, test


# ------------------------------------------------------------ commands


def cmd_gen_data(cfg: RunConfig, args) -> int:
    data_dir = cfg.get_str("data.dir")
    train, test = _synth_split(cfg, cfg.get_int("seed"))
    os.makedirs(data_dir, exist_ok=True)
    rows = []
    for split, ds in (("train", train), ("test", test)):
        for cloud in ds.clouds:
            name = f"cloud_{len(rows):04d}.xyz"
            save_xyz(cloud, os.path.join(data_dir, name))
            label = int(cloud.labels[0]) if ds.task == CLASSIFICATION else -1
            rows.append((name, label, split))
    _write_manifest(os.path.join(data_dir, "manifest.csv"), rows, train.task, train.num_classes)
    print(f"wrote {len(rows)} clouds ({len(train)} train, {len(test)} test) to {data_dir}")
    return 0


def _check_width(stack: nn.LayerStack, dataset: Dataset) -> None:
    """A stack that does not take the dataset's feature channels, or
    whose output width is not its class count, is a configuration error.
    An empty dataset is left to the library, which rejects it."""
    if len(dataset) == 0:
        return
    try:
        width = stack.check_channels(dataset.clouds[0].feature_dim)
    except ValueError as exc:
        raise ConfigError(f"bad layer configuration: {exc}") from None
    if width != dataset.num_classes:
        raise ConfigError(
            f"bad layer configuration: stack emits {width} channels "
            f"but dataset has {dataset.num_classes} classes"
        )


def _opt_settings(cfg: RunConfig) -> dict:
    """The opt.* keys as nn.train_stack keyword arguments; out-of-range
    values are config errors."""
    lr = cfg.get_float("opt.lr")
    weight_decay = cfg.get_float("opt.weight_decay", 0.0)
    try:
        nn.init_adam([], lr=lr, weight_decay=weight_decay)
    except ValueError as exc:
        raise ConfigError(f"opt.lr = {lr:g}, opt.weight_decay = {weight_decay:g}: {exc}") from None
    epochs, batch_size = cfg.get_int("opt.epochs"), cfg.get_int("opt.batch", 1)
    if epochs < 0 or batch_size < 1:
        raise ConfigError(f"need opt.epochs >= 0 and opt.batch >= 1, got {epochs} and {batch_size}")
    return dict(lr=lr, weight_decay=weight_decay, epochs=epochs, batch_size=batch_size)


def _fit(cfg: RunConfig, specs: list[dict], task: str, train_set: Dataset,
         test_set: Dataset, runs, threads: int):
    """Build a stack of ``specs`` for each (layer types, init rng, training
    rng) of runs and check each one's widths, then train each in turn and
    score it on test_set: a (stack, epoch logs, test report) per run.
    Stacks that cannot be built are configuration errors."""
    try:
        stacks = [nn.build_stack(specs, task, rng=init, types=types) for types, init, _ in runs]
    except ValueError as exc:
        raise ConfigError(f"bad layer configuration: {exc}") from None
    for stack in stacks:
        _check_width(stack, train_set)
    opt = _opt_settings(cfg)
    fits = []
    for stack, (_, _, rng) in zip(stacks, runs):
        logs = nn.train_stack(stack, train_set, **opt, rng=rng, threads=threads)
        fits.append((stack, logs, nn.evaluate(stack, test_set, threads=threads)))
    return fits


def cmd_train(cfg: RunConfig, args) -> int:
    seed, out_dir = cfg.get_int("seed"), cfg.get_str("out")
    task, train_set, test_set = _task_datasets(cfg)
    specs = cfg.layer_specs()
    rng = DetRng(seed)  # one stream: the init, then training
    [(stack, logs, report)] = _fit(cfg, specs, task, train_set, test_set,
                                   [(nn.LAYER_TYPES, rng, rng)], args.threads)
    _write_csv(out_dir, "train_log.csv", "epoch,loss,accuracy,miou",
               [(row.epoch, row.loss, row.accuracy, row.miou) for row in logs])
    ckpt_path = os.path.join(out_dir, "checkpoint.dfc")
    save_checkpoint(Checkpoint(task=task, seed=seed, num_classes=train_set.num_classes,
                               layer_specs=specs, params=nn.flatten_params(stack)), ckpt_path)
    for row in logs:
        print(
            f"epoch {row.epoch} loss {row.loss:.6f} "
            f"accuracy {row.accuracy:.6f} miou {row.miou:.6f}"
        )
    print(f"test accuracy {report.accuracy:.6f} miou {report.miou:.6f}")
    print(f"saved {ckpt_path}")
    return 0


def _metric_rows(report: nn.MetricsReport) -> list[tuple[str, float]]:
    rows = [("accuracy", report.accuracy), ("miou", report.miou)]
    for c in sorted(report.per_class_iou):
        rows.append((f"iou_{c}", report.per_class_iou[c]))
    return rows


def cmd_eval(cfg: RunConfig, args) -> int:
    out_dir = cfg.get_str("out")
    ckpt = load_checkpoint(cfg.get_str("eval.checkpoint"))
    stack = ckpt.build_stack()
    train_set, test_set = _datasets(cfg)
    split = cfg.get_str("eval.split", "test")
    if split == "train":
        dataset = train_set
    elif split == "test":
        dataset = test_set
    elif split == "all":
        dataset = Dataset(
            train_set.clouds + test_set.clouds, train_set.num_classes, train_set.task
        )
    else:
        raise ConfigError(f"eval.split must be train, test, or all, got {split!r}")
    if len(dataset) == 0:
        raise ConfigError(
            f"eval.split = {split} holds no clouds "
            f"(data.train = {len(train_set)}, data.test = {len(test_set)})"
        )
    if dataset.task != ckpt.task:
        raise CheckpointError(
            f"checkpoint task {ckpt.task!r} does not match dataset task {dataset.task!r}"
        )
    if dataset.num_classes != ckpt.num_classes:
        raise CheckpointError(
            f"checkpoint expects {ckpt.num_classes} classes, dataset has {dataset.num_classes}"
        )
    _check_width(stack, dataset)
    report = nn.evaluate(stack, dataset, threads=args.threads)
    path = _write_csv(out_dir, "metrics.csv", "metric,value", _metric_rows(report))
    for name, value in _metric_rows(report):
        print(f"{name} {value:.6f}")
    print(f"saved {path}")
    return 0


def _parse_bench_sizes(raw: str) -> list[tuple[int, int, int]]:
    sizes = []
    for tok in raw.replace(",", " ").split():
        parts = tok.replace("x", ":").split(":")
        if len(parts) != 3:
            raise ConfigError(f"bench.sizes entry {tok!r} must be M:K:k")
        try:
            m, cap, k = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bench.sizes entry {tok!r} must be integers") from None
        if m < 1 or cap < 1 or k < 1 or k % 2 == 0:
            raise ConfigError(f"bench.sizes entry {tok!r} out of range")
        sizes.append((m, cap, k))
    if not sizes:
        raise ConfigError("bench.sizes lists no entries")
    return sizes


def _bench_cloud(m: int, cap: int, radius: float, rng: DetRng, dim: int) -> PointCloud:
    # cube sized so a radius ball holds about `cap` points on average
    density = cap / (4.0 / 3.0 * np.pi * radius**3)
    side = (m / density) ** (1.0 / 3.0)
    pos = rng.uniforms(3 * m, 0.0, side).reshape(m, 3)
    feats = rng.uniforms(m * dim, -1.0, 1.0).reshape(m, dim)
    return PointCloud(pos, feats)


def _timed(fn, reps: int):
    """(fn's last result, the median of reps timed calls in seconds)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, median(times)


def cmd_bench(cfg: RunConfig, args) -> int:
    seed, out_dir = cfg.get_int("seed"), cfg.get_str("out")
    sizes = _parse_bench_sizes(cfg.get_str("bench.sizes", "10000:16:7 100000:16:3"))
    reps = cfg.get_int("bench.reps", 5)
    if reps < 5:
        raise ConfigError("bench.reps must be >= 5 (medians need repetitions)")
    spacing = 0.2
    dim = 4
    rows = []
    for si, (m, cap, k) in enumerate(sizes):
        rng = DetRng(seed).spawn(si)
        grid = conv.grid_from_spacing(k, spacing)
        radius = conv.default_radius(grid)
        cloud = _bench_cloud(m, cap, radius, rng, dim)
        times = {}

        # each stage as a layer context runs it, in its cell order: the
        # search of its first table includes the sort and the index it builds
        def search():
            ctx = nn.LayerContext(cloud)
            ctx.arrange(radius)
            return ctx, ctx.table_for(radius, cap)

        (ctx, table), times["search"] = _timed(search, reps)
        feats = ctx.rows(cloud.features)
        weights = 0.5 * rng.normals(grid.num_anchors * dim * dim).reshape(
            grid.num_anchors, dim, dim
        )
        filt = conv.DeformableFilter(grid, weights)

        def first_forward():  # on a new table object, so its map or H is built
            fresh = NeighborTable(table.starts, table.indices, table.offsets, radius, cap)
            return conv.forward_features(feats, fresh, filt, threads=args.threads)

        _, times["first_forward"] = _timed(first_forward, reps)
        fast = conv.forward_features(feats, table, filt, threads=args.threads)
        slow = conv.oracle_forward_features(feats, table, filt)
        scale = max(float(np.max(np.abs(slow))), 1e-300)
        rel = float(np.max(np.abs(fast - slow))) / scale
        if rel > 1e-12:
            raise InternalCheckError(
                f"fast path disagrees with reference (rel {rel:.3e}) at M={m} K={cap} k={k}"
            )
        _, times["forward"] = _timed(
            lambda: conv.forward_features(feats, table, filt, threads=args.threads), reps)
        _, times["oracle_forward"] = _timed(
            lambda: conv.oracle_forward_features(feats, table, filt), reps)
        up = rng.normals(m * dim).reshape(m, dim)
        _, times["backward"] = _timed(
            lambda: conv.backward_features(feats, table, filt, up), reps)
        (_, grad_w, _), times["weight_backward"] = _timed(
            lambda: conv.backward_features(feats, table, filt, up, input_grad=False), reps)
        params = [filt.weights.copy()]
        state = nn.init_adam(params, lr=1e-3)
        _, times["adam"] = _timed(lambda: nn.adam_step(state, params, [grad_w]), reps)
        rows += [(op, m, cap, k, t / m * 1e9) for op, t in times.items()]
    path = _write_csv(out_dir, "bench.csv", "op,M,K,k,ns_per_point",
                      [(op, m, cap, k, f"{ns:.3f}") for op, m, cap, k, ns in rows])
    for op, m, cap, k, ns in rows:
        print(f"{op:>15s} M={m:<7d} K={cap:<3d} k={k}: {ns:14.3f} ns/point")
    print(f"saved {path}")
    return 0


def cmd_export_filters(cfg: RunConfig, args) -> int:
    out_dir = cfg.get_str("out")
    ckpt = load_checkpoint(cfg.get_str("export.checkpoint"))
    idx = cfg.get_int("export.layer")
    if idx < 0 or idx >= len(ckpt.layer_specs):
        raise ConfigError(
            f"export.layer {idx} out of range (checkpoint has {len(ckpt.layer_specs)} layers)"
        )
    spec = ckpt.layer_specs[idx]
    if spec["type"] not in ("deformable", "separable"):
        raise ConfigError(
            f"layer {idx} has type {spec['type']!r}; only conv filters can be exported"
        )
    layer = ckpt.build_stack().layers[idx]
    weights = getattr(layer, "inner", layer).params()[0]  # full weights or spatial part

    grid = conv.grid_from_spacing(spec["k"], spec["a"])
    # lattice index (i, j, l) of each anchor, in linear-index order
    lattice = np.indices((grid.k,) * 3).reshape(3, -1).T - grid.half
    if spec["type"] == "deformable":
        cols = [f"w_{c}_{d}" for c in range(spec["in"]) for d in range(spec["out"])]
        flat = weights.reshape(grid.num_anchors, -1)
    else:
        cols = [f"w_{c}" for c in range(spec["in"])]
        flat = weights
    path = _write_csv(out_dir, "filters.csv", ",".join(["i,j,l,x,y,z", *cols]),
                      [(*ijl, *pos, *row) for ijl, pos, row
                       in zip(lattice.tolist(), grid.anchor_positions(), flat)])
    print(f"exported layer {idx} ({spec['type']}, k={spec['k']}) to {path}")
    return 0


def cmd_compare_baselines(cfg: RunConfig, args) -> int:
    seed, out_dir = cfg.get_int("seed"), cfg.get_str("out")
    task, train_set, test_set = _task_datasets(cfg)
    specs = cfg.layer_specs()
    hidden = cfg.int_list("pcc.hidden", [8, 8])
    pitch = cfg.get_float("voxel.pitch", 0.2)
    sub_pitch = cfg.get_float("subvoxel.pitch", 0.2)
    sub_disp = cfg.get_float("subvoxel.displacement", 0.05)
    try:
        sub = baselines.subvoxel_discrimination(sub_pitch, sub_disp, seed)
    except ValueError as exc:
        raise ConfigError(
            f"subvoxel.pitch = {sub_pitch:g}, subvoxel.displacement = {sub_disp:g}: {exc}"
        ) from None

    try:
        pcc = baselines.pcc_types(hidden)
    except ValueError as exc:
        raise ConfigError(f"pcc.hidden: {exc}") from None

    variants = {
        "deformable": nn.LAYER_TYPES,
        "pcc": pcc,
        "voxel": baselines.voxel_types(pitch),
    }
    runs = [(types, DetRng(seed).spawn(1 + i), DetRng(seed).spawn(10 + i))
            for i, types in enumerate(variants.values())]
    fits = _fit(cfg, specs, task, train_set, test_set, runs, args.threads)
    results = [(name, report.accuracy, report.miou)
               for name, (_, _, report) in zip(variants, fits)]
    path = _write_csv(out_dir, "compare.csv",
                      "method,accuracy,miou,voxel_path_diff,deform_path_diff",
                      [(*row, sub.voxel_path_diff, sub.deform_path_diff) for row in results])
    for name, acc, miou in results:
        print(f"{name:>10s}: accuracy {acc:.6f} miou {miou:.6f}")
    print(
        f"sub-voxel displacement {sub_disp:g} m at pitch {sub_pitch:g} m: "
        f"voxel diff {sub.voxel_path_diff:.3e}, deformable diff {sub.deform_path_diff:.3e}"
    )
    print(f"saved {path}")
    return 0


# ---------------------------------------------------------------- main


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "export-filters": cmd_export_filters,
    "compare-baselines": cmd_compare_baselines,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="deformconv", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--threads", type=int, default=1, help="worker threads for forward passes"
        )
    return parser


# each error class main reports: its message prefix and exit code
_EXITS = {
    UsageError: ("error", 1),
    ConfigError: ("config error", 1),
    FloatingPointError: ("training error", 1),
    InternalCheckError: ("internal check failed", 3),
    XyzFormatError: ("data error", 2),
    CheckpointError: ("data error", 2),
    GridRangeError: ("data error", 2),
    OSError: ("data error", 2),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing command")
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        cfg = load_config(args.config)
        # --seed and --out stand in for the config's seed and out keys
        if args.seed is not None:
            cfg.values["seed"] = str(args.seed)
        if args.out:
            cfg.values["out"] = args.out
        return _COMMANDS[args.command](cfg, args)
    except tuple(_EXITS) as exc:
        prefix, code = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
