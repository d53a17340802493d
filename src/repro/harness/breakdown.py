"""One-way latency decomposition.

Breaks a message's end-to-end latency into the component budget the
paper's timing arguments reason about: host software, SDMA, send
machine, wire + switches, receive machine + ITB check, RDMA, and —
for in-transit paths — the per-ITB forward cost.  Sourced from the
packet's timestamps plus its causal span trace, so the numbers are
*observed*, not re-derived from the timing constants (tests compare
the two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.builder import BuiltNetwork
from repro.mcp.firmware import TransitPacket
from repro.routing.routes import ItbRoute, SourceRoute

__all__ = ["LatencyBreakdown", "measure_breakdown"]


@dataclass
class LatencyBreakdown:
    """Observed one-way component budget, all in nanoseconds."""

    total_ns: float
    host_and_sdma_ns: float     # firmware descriptor -> first byte on wire
    network_ns: float           # injection -> last byte at the final NIC
    recv_and_rdma_ns: float     # reception -> handed to host software
    itb_forward_ns: float       # total time spent inside transit hosts
    n_itbs: int
    payload_len: int

    def rows(self) -> list[tuple[str, float, float]]:
        """(component, ns, percent) rows for reporting."""
        parts = [
            ("host send + SDMA", self.host_and_sdma_ns),
            ("wire + switches", self.network_ns - self.itb_forward_ns),
            ("in-transit forwards", self.itb_forward_ns),
            ("recv + RDMA + host", self.recv_and_rdma_ns),
        ]
        return [(name, ns, 100.0 * ns / self.total_ns)
                for name, ns in parts]


def measure_breakdown(
    net: BuiltNetwork,
    src: Union[str, int],
    dst: Union[str, int],
    size: int,
    route: Optional[Union[SourceRoute, ItbRoute]] = None,
) -> LatencyBreakdown:
    """Send one packet and decompose its one-way latency.

    The packet travels under its own span trace, recorded on
    ``net.fabric.tracer`` (a temporary tracer when none is attached).
    Each transit host's forward time runs from the segment's
    Early-Recv instant to the start of the next segment's ``wire``
    span — the actual re-injection, including any wait for the send
    engine.
    """
    from repro.obs.tracing import SpanTracer

    if isinstance(route, SourceRoute):
        route = ItbRoute((route,))
    src_id, dst_id = net.host_id(src), net.host_id(dst)
    sim = net.sim
    done = sim.event("breakdown")
    holder: dict[str, TransitPacket] = {}
    fabric = net.fabric
    tracer = fabric.tracer
    if tracer is None:
        fabric.tracer = SpanTracer()
    ctx = fabric.tracer.message(sim.now, f"breakdown[{src_id}]",
                                src_id, dst_id, size)

    def on_final(tp: TransitPacket) -> None:
        holder["tp"] = tp
        ctx.root.close(sim.now, (tp.drop_reason or "dropped")
                       if tp.dropped else "ok")
        done.succeed()

    try:
        net.nics[src_id].firmware.host_send(
            dst=dst_id, payload_len=size, gm={"last": True},
            on_delivered=on_final, route=route, trace=ctx,
        )
        sim.run_until_event(done)
    finally:
        fabric.tracer = tracer
    tp = holder["tp"]
    if tp.dropped:
        raise RuntimeError(f"breakdown packet dropped: {tp.drop_reason}")
    assert tp.t_api_send is not None and tp.t_inject is not None
    assert tp.t_complete_dst is not None and tp.t_deliver is not None

    wire_start = {s.attrs["seg"]: s.start
                  for s in ctx.tracer.spans_of(ctx.root.trace_id)
                  if s.name == "wire"}
    itb_ns = sum((wire_start[k + 1] - t_early
                  for k, t_early in enumerate(tp.itb_times)), 0.0)

    return LatencyBreakdown(
        total_ns=tp.t_deliver - tp.t_api_send,
        host_and_sdma_ns=tp.t_inject - tp.t_api_send,
        network_ns=tp.t_complete_dst - tp.t_inject,
        recv_and_rdma_ns=tp.t_deliver - tp.t_complete_dst,
        itb_forward_ns=itb_ns,
        n_itbs=len(tp.itb_times),
        payload_len=tp.payload_len,
    )
