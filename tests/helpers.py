"""Helpers shared across test modules."""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro.obs.tracing import SpanTracer


def send_traced(net, src, dst, size=64, route=None, on_final=None, run=True):
    """Send one firmware-level packet under its own span trace.

    Attaches a :class:`SpanTracer` as ``net.fabric.tracer`` when none
    is set; the packet's spans are reachable through ``tp.trace``.
    ``src``/``dst`` are role names, node names or host ids.  With
    ``run`` the simulation runs to the packet's final disposition
    (delivered or dropped); otherwise the send is only queued, for
    scenarios that schedule several packets.  Returns the
    ``TransitPacket``.
    """
    sim = net.sim
    tracer = net.fabric.tracer
    if tracer is None:
        tracer = net.fabric.tracer = SpanTracer()
    src_id, dst_id = net.host_id(src), net.host_id(dst)
    ctx = tracer.message(sim.now, f"test[{src_id}]", src_id, dst_id, size)
    done = sim.event("traced-send")

    def _final(tp):
        ctx.root.close(sim.now, tp.drop_reason if tp.dropped else "ok")
        done.succeed(tp)
        if on_final is not None:
            on_final(tp)

    tp = net.nics[src_id].firmware.host_send(
        dst=dst_id, payload_len=size, gm={"last": True},
        on_delivered=_final, route=route, trace=ctx)
    if run:
        sim.run_until_event(done)
    return tp


@contextmanager
def count_collections():
    """Count the cyclic collector's runs per generation in the block.

    Yields ``{0: n0, 1: n1, 2: n2}``, filled through ``gc.callbacks``
    (a work count, independent of wall time).
    """
    counts = {0: 0, 1: 0, 2: 0}

    def _on_gc(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(_on_gc)
    try:
        yield counts
    finally:
        gc.callbacks.remove(_on_gc)
