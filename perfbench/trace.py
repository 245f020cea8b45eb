"""In-memory span tracer that wraps the library's public functions.

The traced run replaces a fixed list of module attributes with thin
wrappers that open a span around each call and, after the span closes,
update counters from the call's arguments and result. Wrappers are
installed where the caller looks the name up (``nn`` imports
``build_index`` and ``radius_neighbors`` by name, so those are patched
on ``deformconv.nn``) and are always removed again on exit.

Spans are kept in memory as (name, start, end, parent, run id) and
written out once, when the run ends. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from deformconv import checkpoint, conv, nn, pointcloud, rng

from perfbench import geometry


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    run: int


class Tracer:
    """Spans plus counters, both keyed by the current run id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.run][name] += value

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` runs once
        the span has closed, so counter work is not charged to it."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "spans": [asdict(s) for s in self.spans],
                    "counters": {str(k): dict(v) for k, v in self.counters.items()},
                },
                fh,
            )


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[i]):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def phase_breakdown(spans: list[Span], run: int) -> dict[str, dict[str, float]]:
    """Self time per root span ("phase") of one run id, split by span
    name. The root span's own entry is the time no module span covers,
    so each phase's entries add up to its wall time."""
    selfs = self_times(spans)
    root: list[int] = []
    for i, s in enumerate(spans):  # a parent always precedes its children
        root.append(i if s.parent < 0 else root[s.parent])
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        if s.run == run:
            out[spans[root[i]].name][s.name] += selfs[i]
    return {k: dict(v) for k, v in out.items()}


def phase_walls(spans: list[Span], run: int) -> dict[str, float]:
    """Duration of each root span of one run id."""
    return {s.name: s.end - s.start for s in spans if s.run == run and s.parent < 0}


# ------------------------------------------------------------- counters


def _saved_bytes(counter: str):
    """Size of the file a ``save(obj, path)`` call wrote."""

    def after(tr: Tracer, args, result):
        tr.count(counter, os.path.getsize(args[1]))

    return after


def _after_search(tr: Tracer, args, table):
    g = geometry.table_counts(table)
    tr.count("spatial.calls")
    tr.count("spatial.queries", g.queries)
    tr.count("spatial.pairs", g.pairs)
    tr.count("spatial.full_queries", g.full_queries)


def _after_conv(tr: Tracer, args, result):
    table, filt = args[1], args[2]
    tr.count("conv.calls")
    tr.count("conv.pairs", table.num_pairs)
    tr.count("conv.zero_pairs", geometry.zero_weight_pairs(table, filt.grid))


def _after_adam(tr: Tracer, args, result):
    tr.count("nn.adam_calls")


# (owner, attribute, span name, counter hook). The owner is wherever the
# calling code resolves the name at call time.
TARGETS = [
    (rng.DetRng, "uniforms", "rng.draw", None),
    (rng.DetRng, "normals", "rng.draw", None),
    (rng.DetRng, "permutation", "rng.draw", None),
    (pointcloud, "synth_dataset", "pointcloud.synth", None),
    (pointcloud, "save_xyz", "pointcloud.write", _saved_bytes("pointcloud.bytes")),
    (pointcloud, "load_xyz", "pointcloud.read", None),
    (nn, "build_index", "spatial.search", None),
    (nn, "radius_neighbors", "spatial.search", _after_search),
    (conv, "forward_features", "conv.forward", _after_conv),
    (conv, "forward_separable_features", "conv.forward", _after_conv),
    (conv, "backward_features", "conv.backward", _after_conv),
    (conv, "backward_separable_features", "conv.backward", _after_conv),
    (nn, "train_stack", "nn.train", None),
    (nn, "evaluate", "nn.eval", None),
    (nn, "adam_step", "nn.adam", _after_adam),
    (checkpoint, "save_checkpoint", "checkpoint.save", _saved_bytes("checkpoint.bytes")),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every target with a traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, after in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
