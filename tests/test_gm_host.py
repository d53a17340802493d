"""Tests for the GM host layer: API, segmentation, reliability."""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.gm.host import GM_MTU, GmSendError


def build(reliable=True, **kw):
    cfg = NetworkConfig(
        firmware="itb",
        routing="itb",
        reliable=reliable,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        **kw,
    )
    return build_network("fig6", config=cfg)


class TestSendReceive:
    def test_roundtrip(self):
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def receiver():
            msg = yield b.receive()
            got.append(msg)

        net.sim.process(receiver(), name="rx")
        a.send(b.host, 512, tag=9)
        net.sim.run(until=2_000_000)
        assert len(got) == 1
        msg = got[0]
        assert msg.length == 512 and msg.tag == 9
        assert msg.src == a.host and msg.dst == b.host
        assert msg.latency_ns > 0

    def test_zero_length_message(self):
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def receiver():
            msg = yield b.receive()
            got.append(msg)

        net.sim.process(receiver(), name="rx")
        a.send(b.host, 0)
        net.sim.run(until=2_000_000)
        assert got and got[0].length == 0

    def test_negative_length_rejected(self):
        net = build()
        with pytest.raises(ValueError):
            net.gm("host1").send(net.roles["host2"], -1)

    def test_messages_arrive_in_order(self):
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def receiver():
            for _ in range(5):
                msg = yield b.receive()
                got.append(msg.tag)

        net.sim.process(receiver(), name="rx")
        for i in range(5):
            a.send(b.host, 64, tag=i)
        net.sim.run(until=5_000_000)
        assert got == list(range(5))

    def test_send_completion_event(self):
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        completions = []

        def sender():
            done = a.send(b.host, 128)
            yield done
            completions.append(net.sim.now)

        def receiver():
            yield b.receive()

        net.sim.process(receiver(), name="rx")
        net.sim.process(sender(), name="tx")
        net.sim.run(until=5_000_000)
        assert len(completions) == 1  # acked

    def test_unreliable_completion_is_local(self):
        net = build(reliable=False)
        a, b = net.gm("host1"), net.gm("host2")
        done = a.send(b.host, 128)
        net.sim.run(until=2_000_000)
        assert done.triggered
        assert a.retransmissions == 0


class TestSegmentation:
    def test_multi_mtu_message(self):
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        size = int(2.5 * GM_MTU)
        got = []

        def receiver():
            msg = yield b.receive()
            got.append(msg)

        net.sim.process(receiver(), name="rx")
        a.send(b.host, size)
        net.sim.run(until=10_000_000)
        assert got and got[0].length == size
        # Three packets crossed the wire (plus acks).
        assert net.nic("host1").stats.packets_sent >= 3

    def test_exact_mtu_single_packet(self):
        net = build(reliable=False)
        a, b = net.gm("host1"), net.gm("host2")
        a.send(b.host, GM_MTU)
        net.sim.run(until=5_000_000)
        assert net.nic("host1").stats.packets_sent == 1


class TestReliability:
    def test_flush_recovered_by_retransmission(self):
        """A packet flushed by a full in-transit buffer pool is
        retransmitted and eventually delivered — the exact recovery
        story of paper Section 4."""
        from repro.harness.paths import fig6_paths

        cfg = NetworkConfig(
            firmware="itb", routing="updown", reliable=True,
            recv_buffer_kind="pool",
            pool_bytes=600,  # tiny: a 512 B in-transit packet + headers fits once
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        paths = fig6_paths(net.topo, net.roles)
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def receiver():
            while True:
                msg = yield b.receive()
                got.append(msg)

        net.sim.process(receiver(), name="rx")
        # Two quick ITB-path sends: the second finds the pool full
        # while the first still occupies it.
        a.send(b.host, 512, tag=0, route=paths.itb5)
        a.send(b.host, 512, tag=1, route=paths.itb5)
        net.sim.run(until=20_000_000)
        assert sorted(m.tag for m in got) == [0, 1]
        assert net.nic("itb").stats.packets_flushed >= 1
        assert a.retransmissions >= 1

    def test_retry_budget_exhaustion_fails_gracefully(self):
        """A destination that always flushes exhausts retries: the send
        completion event *fails* with GmSendError but the simulation
        keeps running (no wedge, no crash)."""
        cfg = NetworkConfig(
            firmware="itb", routing="updown", reliable=True,
            recv_buffer_kind="pool", pool_bytes=600,
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        a = net.gm("host1")
        a.max_retries = 3
        a.resend_timeout_ns = 50_000.0
        # Occupy the destination pool forever so every arrival flushes.
        net.nic("host2").recv_buffers.try_accept("squatter", 550)
        done = a.send(net.roles["host2"], 512)
        outcome = []

        def waiter():
            try:
                yield done
                outcome.append("ok")
            except GmSendError as exc:
                outcome.append(exc)

        net.sim.process(waiter())
        net.sim.run(until=50_000_000)
        assert len(outcome) == 1
        assert isinstance(outcome[0], GmSendError)
        assert a.send_errors == 1
        assert a.messages_failed == 1
        assert a.timeouts >= 3
        # State is purged: nothing left unacked, nothing in flight.
        conn = a._connections[net.roles["host2"]]
        assert not conn.unacked
        assert not a._in_flight

    def test_duplicate_suppression(self):
        """A spurious retransmission (duplicate seq) is not delivered
        twice to the application."""
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        a.resend_timeout_ns = 1_000.0  # absurdly eager: forces duplicates
        got = []

        def receiver():
            while True:
                msg = yield b.receive()
                got.append(msg)

        net.sim.process(receiver(), name="rx")
        a.send(b.host, 256, tag=5)
        net.sim.run(until=5_000_000)
        assert len(got) == 1


class TestFailureBound:
    def test_bound_is_the_capped_backoff_chain(self):
        """Defaults: 1 ms doubling to a 16 ms cap over 65 expiries is
        1 + 2 + 4 + 8 + 16 + 60 * 16 = 991 ms per packet."""
        a = build().gm("host1")
        chain = 991_000_000.0
        host = a.timings.host_send_sw_ns
        assert a.failure_bound_ns() == chain + host
        assert a.failure_bound_ns(3) == 3 * (chain + host)

    @pytest.mark.parametrize("packets", [1, 3])
    def test_total_loss_fails_within_the_bound(self, packets):
        """Every packet lost: the send fails with GmSendError, and no
        later than the bound after it was issued."""
        from repro.network.faults import FaultPlan, install_fault_plan

        net = build()
        install_fault_plan(net, FaultPlan(loss_probability=1.0, seed=1))
        a, b = net.gm("host1"), net.gm("host2")
        a.max_retries = 6
        done = a.send(b.host, packets * GM_MTU)
        failed_at = []

        def waiter():
            try:
                yield done
            except GmSendError:
                failed_at.append(net.sim.now)

        net.sim.process(waiter())
        net.sim.run()
        assert len(failed_at) == 1
        assert failed_at[0] <= a.failure_bound_ns(packets)


class TestBidirectional:
    def test_simultaneous_cross_traffic(self):
        net = build()
        a, b = net.gm("host1"), net.gm("host2")
        got_a, got_b = [], []

        def rx(host, sink):
            while True:
                msg = yield host.receive()
                sink.append(msg)

        net.sim.process(rx(a, got_a), name="rxa")
        net.sim.process(rx(b, got_b), name="rxb")
        for i in range(3):
            a.send(b.host, 100 + i)
            b.send(a.host, 200 + i)
        net.sim.run(until=10_000_000)
        assert [m.length for m in got_b] == [100, 101, 102]
        assert [m.length for m in got_a] == [200, 201, 202]
