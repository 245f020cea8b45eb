"""Self-time arithmetic and wrapper installation of the benchmark tracer."""

import numpy as np
import pytest

from deformconv import nn, spatial

from perfbench import trace
from perfbench.trace import Span


def _tree():
    # run 1: phase.train [0, 10] holding nn.train [1, 9], which holds
    # conv.forward [2, 4] and nn.eval [5, 8] holding conv.forward [6, 7]
    return [
        Span("phase.train", 0.0, 10.0, -1, 1),
        Span("nn.train", 1.0, 9.0, 0, 1),
        Span("conv.forward", 2.0, 4.0, 1, 1),
        Span("nn.eval", 5.0, 8.0, 1, 1),
        Span("conv.forward", 6.0, 7.0, 3, 1),
    ]


def test_self_times_on_hand_built_tree():
    assert trace.self_times(_tree()) == [2.0, 3.0, 2.0, 2.0, 1.0]


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a on [3, 4]
        Span("c", 9.0, 12.0, 0, 1),  # clipped to the parent at 10
    ]
    assert trace.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_breakdown_adds_up_to_phase_wall():
    spans = _tree() + [Span("phase.infer", 11.0, 14.0, -1, 2),
                       Span("nn.eval", 11.5, 13.0, 5, 2)]
    parts = trace.phase_breakdown(spans, 1)
    assert parts == {"phase.train": {"phase.train": 2.0, "nn.train": 3.0,
                                     "conv.forward": 3.0, "nn.eval": 2.0}}
    assert sum(parts["phase.train"].values()) == trace.phase_walls(spans, 1)["phase.train"]
    assert trace.phase_breakdown(spans, 2) == {"phase.infer": {"phase.infer": 1.5, "nn.eval": 1.5}}


def test_installed_counts_calls_and_restores_originals():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in trace.TARGETS}
    rng = np.random.default_rng(0)
    pos = rng.uniform(0.0, 1.0, size=(50, 3))
    tr = trace.Tracer()
    tr.run = 7
    with trace.installed(tr), tr.span("phase.x"):
        table = nn.radius_neighbors(nn.build_index(pos, 0.3), pos, 0.3, 4)
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert nn.radius_neighbors is spatial.radius_neighbors
    assert [s.name for s in tr.spans] == ["phase.x", "spatial.search", "spatial.search"]
    assert all(s.run == 7 and s.end >= s.start for s in tr.spans)
    counts = tr.counters[7]
    assert counts["spatial.calls"] == 1
    assert counts["spatial.pairs"] == table.num_pairs
    assert counts["spatial.queries"] == 50
