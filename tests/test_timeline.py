"""Tests for the span waterfall renderer (``waterfall_lines``)."""

from __future__ import annotations

import re

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.obs.tracing import SpanTracer, span_tree, waterfall_lines
from tests.helpers import send_traced


def waterfall(route=None, size=256, width=44):
    """Waterfall rows of one firmware-level packet host1 -> host2."""
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    if route == "itb5":
        route = fig6_paths(net.topo, net.roles).itb5
    send_traced(net, "host1", "host2", size=size, route=route)
    return waterfall_lines(span_tree(net.fabric.tracer.spans), width=width)


def row_names(lines):
    """(depth, span name) of every row."""
    out = []
    for line in lines:
        label = line.split("|", 1)[0].rstrip()
        name = label.lstrip(" ")
        out.append(((len(label) - len(name)) // 2, name))
    return out


class TestWaterfallLines:
    def test_plain_packet_lifecycle(self):
        rows = row_names(waterfall())
        assert rows[:2] == [(0, "message"), (1, "attempt")]
        stages = [name for depth, name in rows if depth == 2]
        assert stages[0] == "sdma"
        assert stages[-1] == "recv"
        assert stages.count("wire") == 1

    def test_itb_packet_lifecycle(self):
        stages = [name for depth, name in row_names(waterfall(route="itb5"))
                  if depth == 2]
        assert "itb_program" in stages
        wires = [i for i, name in enumerate(stages) if name == "wire"]
        assert len(wires) == 2
        # Rows follow start order: detection sits between the two
        # wire segments.
        assert wires[0] < stages.index("itb_detect") < wires[1]

    def test_render_layout(self):
        width = 30
        lines = waterfall(route="itb5", width=width)
        for line in lines:
            _label, bar, duration = line.split("|")
            assert len(bar) == width
            # Each row carries exactly one contiguous bar.
            assert len(re.findall(r"#+", bar)) == 1
            assert duration.strip().endswith("us")

    def test_no_spans_no_rows(self):
        assert waterfall_lines([]) == []

    def test_zero_length_span_one_cell(self):
        tracer = SpanTracer()
        tracer.begin("message", 5.0).close(5.0)
        (line,) = waterfall_lines(span_tree(tracer.spans), width=10)
        assert line.split("|")[1].count("#") == 1
        assert "0.000 us" in line
