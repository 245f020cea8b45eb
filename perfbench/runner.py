"""One benchmark run: set-up, timed rounds, output checks, metrics.

The load is a closed loop: one process and one caller, each phase
starting when the previous one has finished. After the set-up, rounds
of (train, infer) run back to back until the measuring time is used up;
each round starts from the same initial parameters, so every round does
identical work. End-to-end figures are medians over set-ups and rounds,
each first divided by the host's speed factor over it (reference.py).

A traced run alternates untraced and traced units (one set-up each,
then pairs of rounds), so the tracing overhead is measured in the same
process. End-to-end numbers come from untraced units only.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median

from deformconv import nn
from deformconv.pointcloud import SEGMENTATION
from deformconv.rng import DetRng

from perfbench import checks, reference, trace, workloads

# an untraced run sets up at least MIN_SETUPS times and for SETUP_SECONDS
MIN_SETUPS = 5
SETUP_SECONDS = 4.0
CHECK_CLOUDS = 2
SAMPLE_POINTS = 8
PHASES = ("setup", "train", "infer")
# the end-to-end metrics of the result line, as BENCHMARK.json lists them.
# fail_share travels as failed / attempted, and unseen_accuracy is only
# printed: a result metric may not be 0 and must be steady across seeds.
RESULT_METRICS = ("setup_s", "train_points_per_s", "infer_points_per_s", "peak_rss_mb")


@dataclass
class Round:
    logs: list
    report: nn.MetricsReport
    train_s: float
    infer_s: float
    # how much slower than undisturbed the host ran over each phase
    train_factor: float
    infer_factor: float


@dataclass
class Models:
    """What the checks need from one round: the trained stack, its
    checkpoint and the stack rebuilt from it."""

    trained: nn.LayerStack
    ckpt: object
    reloaded: nn.LayerStack


@dataclass
class Result:
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tracer: trace.Tracer | None = None
    round_times: dict[str, list[float]] = field(default_factory=dict)


def _timed(fn, tracer: trace.Tracer | None, phase: str):
    """Run ``fn``; return (result, wall seconds). Traced, the wall time is
    that of the phase's root span."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    idx = len(tracer.spans)
    with trace.installed(tracer), tracer.span("phase." + phase):
        out = fn()
    s = tracer.spans[idx]
    return out, s.end - s.start


def _round(w, inputs, init, seed, ckpt_path, tracer, probe) -> tuple[Round, Models]:
    stack = nn.build_stack(list(w.specs), SEGMENTATION, flat=init.copy())
    logs, train_s = _timed(
        lambda: workloads.train(w, stack, inputs, seed, ckpt_path), tracer, "train")
    train_factor = probe.host_factor()
    (ckpt, reloaded, report), infer_s = _timed(
        lambda: workloads.infer(w, inputs, ckpt_path), tracer, "infer")
    infer_factor = probe.host_factor()
    return (Round(logs, report, train_s, infer_s, train_factor, infer_factor),
            Models(stack, ckpt, reloaded))


def run(w: workloads.Workload, seed: int, seconds: float, traced: bool,
        workdir: str) -> Result:
    # helper processes of their own, so nothing the workload leaves in
    # this process can slow the reference kernel
    probe = reference.Probe(w.threads)
    try:
        return _run(w, seed, seconds, traced, workdir, probe)
    finally:
        probe.close()


def _run(w, seed, seconds, traced, workdir, probe: reference.Probe) -> Result:
    tracer = trace.Tracer() if traced else None
    modes = [None, tracer] if traced else [None]

    setups: list[tuple[float, float]] = []  # untraced (seconds, host factor)
    t0 = time.perf_counter()
    while not setups or not traced and (
            len(setups) < MIN_SETUPS or time.perf_counter() - t0 < SETUP_SECONDS):
        for tr in modes:
            inputs = None  # let the previous set-up's data go first
            if tr is not None:
                tr.run += 1
            inputs, dt = _timed(lambda: workloads.setup(w, seed, workdir), tr, "setup")
            factor = probe.host_factor()
            if tr is None:
                setups.append((dt, factor))
            else:
                traced_setup = (tr.run, factor)
    init = nn.flatten_params(inputs.stack)
    ckpt_path = os.path.join(workdir, "checkpoint.dfc")

    plain: list[Round] = []
    marked: list[tuple[int, Round]] = []
    models = None  # only the first round's, so memory does not grow with rounds
    peak_rss_mb = None
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        for tr in modes:
            if tr is not None:
                tr.run += 1
            r, m = _round(w, inputs, init, seed, ckpt_path, tr, probe)
            models = models or m
            if tr is None:
                plain.append(r)
            else:
                marked.append((tr.run, r))
        # The peak over the set-ups and the first round. Later rounds
        # repeat the same work; what they add is allocator drift that
        # grows with the run's length.
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    log = _check(w, seed, inputs, plain + [r for _, r in marked], models)
    train_points = workloads.num_points(inputs.train) * w.epochs
    unseen_points = workloads.num_points(inputs.unseen)
    # Each set-up and phase time is divided by the host's speed factor
    # over it, measured by the reference kernel on either side (see
    # reference.py and METRICS.md); the raw figures are printed too.
    scaled = {
        "setup": median(dt / f for dt, f in setups),
        "train": median(r.train_s / r.train_factor for r in plain),
        "infer": median(r.infer_s / r.infer_factor for r in plain),
    }
    raw = {
        "setup": median(dt for dt, _ in setups),
        "train": median(r.train_s for r in plain),
        "infer": median(r.infer_s for r in plain),
    }
    result = Result(
        end_to_end={
            "setup_s": (scaled["setup"], "s"),
            "train_points_per_s": (train_points / scaled["train"], "points/s"),
            "infer_points_per_s": (unseen_points / scaled["infer"], "points/s"),
            **_raw(raw, train_points, unseen_points, plain),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "unseen_accuracy": (plain[-1].report.accuracy, "share"),
            "fail_share": (log.failed / log.attempted, "share"),
        },
        attempted=log.attempted,
        failures=log.failures,
        round_times={"train": [r.train_s for r in plain], "infer": [r.infer_s for r in plain],
                     "train factor": [r.train_factor for r in plain],
                     "infer factor": [r.infer_factor for r in plain]},
    )
    if traced:
        # the fastest traced round, whole, so that its module self times
        # and remainder add up to its phase walls
        run, r = min(marked, key=lambda m: m[1].train_s / m[1].train_factor
                     + m[1].infer_s / m[1].infer_factor)
        setup_run, setup_factor = traced_setup
        factors = {"setup": setup_factor, "train": r.train_factor, "infer": r.infer_factor}
        result.per_layer, result.phases = _per_layer(
            tracer, (setup_run, run), scaled, factors)
        # the untraced units' unscaled figures, so a gain in the scaled
        # end-to-end metrics can be checked against plain wall time
        result.per_layer.update(_raw(raw, train_points, unseen_points, plain))
        result.tracer = tracer
    return result


def _raw(raw, train_points, unseen_points, plain) -> dict[str, tuple[float, str]]:
    return {
        "raw.setup_s": (raw["setup"], "s"),
        "raw.train_points_per_s": (train_points / raw["train"], "points/s"),
        "raw.infer_points_per_s": (unseen_points / raw["infer"], "points/s"),
        "host_factor": (median(r.train_factor for r in plain), "x"),
    }


def _check(w, seed, inputs, rounds: list[Round], models: Models) -> checks.CheckLog:
    log = checks.CheckLog()
    if inputs.written is not None:
        checks.xyz_roundtrip(log, inputs.written, inputs.train.clouds
                             + (inputs.test.clouds if inputs.test else [])
                             + inputs.unseen.clouds)
    first = rounds[0]
    for r in rounds:
        checks.losses_finite(log, r.logs)
        log.check(r.report.count == workloads.num_points(inputs.unseen),
                  "evaluate scored the wrong number of points")
        log.check(r.logs == first.logs and r.report == first.report,
                  "rounds of identical work gave different results")
    checks.params_roundtrip(log, models.trained, models.ckpt, models.reloaded)
    rng = DetRng(seed).spawn(3)
    for cloud in inputs.unseen.clouds[:CHECK_CLOUDS]:
        sample = checks.sample_rows(rng, cloud.num_points, SAMPLE_POINTS)
        checks.cloud_checks(log, models.trained, models.reloaded, cloud, sample, rng,
                            w.threads)
    return log


def _per_layer(tracer, runs, untraced, factors):
    """Module metrics of one traced set-up plus one traced round. The
    overhead shares compare host-scaled walls: the traced phase's wall
    over its host factor against the untraced median."""
    phases: dict[str, dict[str, float]] = {}
    walls: dict[str, float] = {}
    counts: dict[str, float] = {}
    for run in runs:
        phases.update(trace.phase_breakdown(tracer.spans, run))
        walls.update(trace.phase_walls(tracer.spans, run))
        for name, v in tracer.counters[run].items():
            counts[name] = counts.get(name, 0.0) + v
    phases = {p: phases["phase." + p] for p in PHASES}

    def t(name: str) -> float:
        return sum(phases[p].get(name, 0.0) for p in PHASES)

    def c(name: str) -> float:
        return counts.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    search_s = t("spatial.search")
    conv_s = t("conv.forward") + t("conv.backward")
    m = {
        "rng.draw_s": (t("rng.draw"), "s"),
        "pointcloud.synth_s": (t("pointcloud.synth"), "s"),
        "pointcloud.write_s": (t("pointcloud.write"), "s"),
        "pointcloud.read_s": (t("pointcloud.read"), "s"),
        "pointcloud.bytes": (c("pointcloud.bytes"), "B"),
        "spatial.search_s": (search_s, "s"),
        "spatial.calls": (c("spatial.calls"), "count"),
        "spatial.pairs": (c("spatial.pairs"), "count"),
        "spatial.mean_neighbors": (ratio(c("spatial.pairs"), c("spatial.queries")), "count"),
        "spatial.ns_per_pair": (1e9 * ratio(search_s, c("spatial.pairs")), "ns/pair"),
        "spatial.full_share": (ratio(c("spatial.full_queries"), c("spatial.queries")), "share"),
        "conv.forward_s": (t("conv.forward"), "s"),
        "conv.backward_s": (t("conv.backward"), "s"),
        "conv.calls": (c("conv.calls"), "count"),
        "conv.pairs": (c("conv.pairs"), "count"),
        "conv.ns_per_pair": (1e9 * ratio(conv_s, c("conv.pairs")), "ns/pair"),
        "conv.zero_weight_share": (ratio(c("conv.zero_pairs"), c("conv.pairs")), "share"),
        "nn.train_self_s": (t("nn.train"), "s"),
        "nn.eval_self_s": (t("nn.eval"), "s"),
        "nn.adam_s": (t("nn.adam"), "s"),
        "nn.adam_calls": (c("nn.adam_calls"), "count"),
        "checkpoint.save_s": (t("checkpoint.save"), "s"),
        "checkpoint.load_s": (t("checkpoint.load"), "s"),
        "checkpoint.bytes": (c("checkpoint.bytes"), "B"),
    }
    traced_total = untraced_total = 0.0
    for p in PHASES:
        wall = walls["phase." + p]
        traced_total += wall / factors[p]
        untraced_total += untraced[p]
        m[f"{p}.wall_s"] = (wall, "s")
        m[f"{p}.remainder_s"] = (phases[p].get("phase." + p, 0.0), "s")
        m[f"{p}.trace_overhead_share"] = (wall / factors[p] / untraced[p] - 1.0, "share")
    m["trace_overhead_share"] = (traced_total / untraced_total - 1.0, "share")
    return m, phases
