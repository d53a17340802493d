"""Tests for the latency-breakdown instrumentation."""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.breakdown import measure_breakdown
from repro.harness.paths import fig6_paths
from repro.obs.tracing import SpanTracer


def build():
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    return build_network("fig6", config=cfg)


class TestPlainPath:
    def test_components_sum_to_total(self):
        net = build()
        b = measure_breakdown(net, "host1", "host2", size=512)
        parts = (b.host_and_sdma_ns + b.network_ns + b.recv_and_rdma_ns)
        assert parts == pytest.approx(b.total_ns)
        assert b.n_itbs == 0 and b.itb_forward_ns == 0.0

    def test_host_component_matches_constants(self):
        """Breakdown sends at the firmware boundary, so the pre-wire
        component is SDMA (DMA setup + PCI) + the Send machine."""
        t = Timings().with_overrides(host_jitter_sigma_ns=0.0)
        net = build()
        b = measure_breakdown(net, "host1", "host2", size=256)
        expected = (t.dma_setup_ns
                    + t.pci_time(256 + 5)  # payload + header bytes
                    + t.cycles(t.mcp_send_cycles))
        assert b.host_and_sdma_ns == pytest.approx(expected, rel=0.02)

    def test_wire_dominates_large_messages(self):
        net = build()
        b = measure_breakdown(net, "host1", "host2", size=4096)
        assert b.network_ns > 0.5 * b.total_ns

    def test_rows_percentages(self):
        net = build()
        b = measure_breakdown(net, "host1", "host2", size=64)
        rows = b.rows()
        assert len(rows) == 4
        assert sum(pct for _n, _ns, pct in rows) == pytest.approx(100.0)


class TestItbPath:
    def test_forward_component_observed(self):
        net = build()
        paths = fig6_paths(net.topo, net.roles)
        b = measure_breakdown(net, "host1", "host2", size=512,
                              route=paths.itb5)
        assert b.n_itbs == 1
        # Observed forward time = early-recv + program-DMA firmware cost.
        t = net.config.timings
        assert b.itb_forward_ns == pytest.approx(t.itb_forward_ns, rel=0.01)

    def test_temporary_tracer_detached(self):
        net = build()
        paths = fig6_paths(net.topo, net.roles)
        measure_breakdown(net, "host1", "host2", size=512, route=paths.itb5)
        assert net.fabric.tracer is None

    def test_attached_tracer_records_the_packet(self):
        net = build()
        tracer = net.fabric.tracer = SpanTracer()
        paths = fig6_paths(net.topo, net.roles)
        measure_breakdown(net, "host1", "host2", size=512, route=paths.itb5)
        assert net.fabric.tracer is tracer
        (root,) = tracer.roots()
        assert root.name == "message" and root.status == "ok"
        assert [s.attrs["seg"] for s in tracer.spans if s.name == "wire"] \
            == [0, 1]

    def test_deferred_forward_counts_send_engine_wait(self):
        """With the transit host's send engine busy, the re-injection
        waits for it; the forward component runs to the actual
        re-injection, not to the moment it was queued."""
        net = build()
        paths = fig6_paths(net.topo, net.roles)
        itb = net.nic("itb")
        # The transit host's own 4 KB packet is draining onto the wire
        # when the in-transit packet arrives (SDMA ~9 us, wire ~26 us).
        itb.firmware.host_send(dst=net.host_id("host2"), payload_len=4096,
                               gm={"last": True})
        net.sim.run(until=12_000.0)
        b = measure_breakdown(net, "host1", "host2", size=64,
                              route=paths.itb5)
        assert itb.stats.itb_pending == 1
        assert b.itb_forward_ns > 2 * net.config.timings.itb_forward_ns

    def test_itb_included_in_network_time(self):
        net = build()
        paths = fig6_paths(net.topo, net.roles)
        b = measure_breakdown(net, "host1", "host2", size=512,
                              route=paths.itb5)
        assert b.network_ns > b.itb_forward_ns
