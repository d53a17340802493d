"""Wire a built network's existing stat silos into one registry.

Before this module, the repo's observability lived in five unconnected
places — ``NicStats`` counters, ``FabricUsage`` channel meters, the
structured trace, harness latency summaries, and the chrome-trace
export.  :func:`instrument_network` registers all of them into a
single :class:`~repro.obs.registry.MetricsRegistry` (callback-backed,
so the hot paths keep mutating their plain attributes) and optionally
starts a :class:`~repro.obs.sampler.Sampler` and installs a
:class:`~repro.obs.profiler.Profiler`, returning the whole bundle as a
:class:`Telemetry`.

Metric catalog (see ``docs/OBSERVABILITY.md`` for details):

* ``nic_<field>`` — one counter per ``NicStats`` field, per NIC,
* ``nic_recv_buffer_occupancy_bytes`` / ``nic_recv_buffer_packets`` —
  receive/ITB buffer occupancy gauges (the Fig. 8 resource),
* ``nic_send_queue_depth`` — Send-machine work queue gauge,
* ``nic_mcp_events_total{kind=...}`` — every firmware ``emit()``,
* ``fabric_channel_{packets_total,busy_ns,utilization}`` — per
  switch-to-switch channel,
* ``fabric_{jain_fairness,max_utilization,root_concentration}`` —
  the balance summary statistics of the instrumentation module,
* ``worm_express_hits`` / ``worm_express_partial`` /
  ``worm_express_fallbacks`` / ``worm_stepped_hops`` — worm
  express-lane counters (see ``docs/ENGINE_FASTPATH.md``),
* ``gm_retransmits`` / ``gm_timeouts`` / ``gm_dropped`` / ... — per
  host GM reliability counters (see ``docs/RELIABILITY.md``),
* ``faults_injected`` / ``remap_events`` / ``fault_*`` — fault-plan
  counters, zero (and filtered from snapshots) without a plan,
* ``route_cache_{hits,misses,evictions}`` / ``route_cache_entries`` /
  ``route_cache_batch_hits`` — shared route-cache behaviour (attached
  when a cache is passed); batch hits count per-source route trees
  served whole off a warm batched entry,
* ``itb_reselect_{runs,forced,pairs_changed,decisions,engaged}`` —
  adaptive ITB host-selection counters, resolved lazily from the
  attached :class:`~repro.gm.mapper.ItbReselector` (zero, and
  filtered from snapshots, without one — see
  ``docs/ADAPTIVE_ITB.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.network.instrumentation import FabricUsage, attach_usage_meter
from repro.nic.lanai import NicStats
from repro.obs.profiler import Profiler
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import Sampler

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.core.builder import BuiltNetwork

__all__ = ["RegistryCongestionView", "Telemetry", "attach_congestion_view",
           "attach_route_cache", "instrument_network"]

#: Help strings for the NicStats-backed counters.
_NIC_STAT_HELP = {
    "packets_sent": "packets injected by this NIC as the source",
    "packets_received": "packets fully received by this NIC",
    "packets_forwarded": "in-transit packets re-injected (ITB hops)",
    "packets_dropped_unknown": "packets dropped for unknown type",
    "packets_flushed": "buffer-pool overflow flushes",
    "bytes_sent": "wire bytes injected as the source",
    "bytes_received": "wire bytes fully received",
    "itb_immediate": "re-injections started by the Recv fast path",
    "itb_pending": "re-injections deferred to the Send machine",
    "recv_blocked_ns": "wire time stalled waiting for a buffer (ns)",
    "packets_lost_in_flight": "worms cut mid-flight by a dynamic fault",
}

#: GmHost counter attributes published per host (metric -> attribute).
_GM_COUNTERS = {
    "gm_messages_sent": ("messages_sent",
                         "messages fully handed to the NIC"),
    "gm_messages_received": ("messages_received",
                             "messages delivered to the application"),
    "gm_retransmits": ("retransmissions",
                       "data packets retransmitted (timeout or nack)"),
    "gm_timeouts": ("timeouts",
                    "go-back-N retransmission timer expiries"),
    "gm_dropped": ("messages_failed",
                   "messages failed with GmSendError (budget exhausted)"),
    "gm_nacks_sent": ("nacks_sent",
                      "nacks emitted for out-of-order arrivals"),
    "gm_nacks_received": ("nacks_received",
                          "nacks received (fast-retransmit triggers)"),
    "gm_send_errors": ("send_errors",
                       "connections failed by budget exhaustion"),
    "gm_route_failures": ("route_failures",
                          "sends with no route on the degraded fabric"),
}

#: ItbReselector counter attributes published network-wide.
_ITB_RESELECT_COUNTERS = {
    "itb_reselect_runs": ("runs",
                          "in-transit host reselection passes executed"),
    "itb_reselect_forced": ("forced",
                            "reselections forced by a fault remap"),
    "itb_reselect_pairs_changed": ("pairs_changed",
                                   "host pairs whose stamped ITB route"
                                   " moved to another in-transit host"),
    "itb_reselect_decisions": ("decisions",
                               "selector invocations (one per ITB cut)"),
    "itb_reselect_engaged": ("engaged",
                             "decisions where live congestion diverted"
                             " the static pick"),
}

#: FaultPlan counter attributes published network-wide.
_FAULT_COUNTERS = {
    "faults_injected": ("faults_injected",
                        "dynamic fault events applied to the fabric"),
    "fault_repairs": ("repairs", "fault events repaired"),
    "remap_events": ("remap_events",
                     "mapper route-table recomputations after faults"),
    "fault_packets_lost": ("lost", "packets lost to probabilistic faults"),
    "fault_packets_corrupted": ("corrupted",
                                "packets corrupted (CRC drop) by faults"),
    "fault_killed_in_flight": ("killed_in_flight",
                               "in-flight worms cut by dynamic faults"),
}


@dataclass
class Telemetry:
    """The telemetry bundle attached to one built network."""

    registry: MetricsRegistry
    sampler: Optional[Sampler] = None
    profiler: Optional[Profiler] = None
    usage: Optional[FabricUsage] = None

    def stop(self) -> None:
        """Stop sampling and detach the profiler (data is kept)."""
        if self.sampler is not None:
            self.sampler.stop()
        if self.profiler is not None:
            self.profiler.uninstall()


def _attach_nic(registry: MetricsRegistry, nic) -> None:
    comp = f"nic[{nic.name}]"
    stats = nic.stats
    for f in dataclasses.fields(NicStats):
        registry.counter(
            f"nic_{f.name}", component=comp,
            help=_NIC_STAT_HELP.get(f.name, ""),
            fn=lambda s=stats, n=f.name: getattr(s, n),
        )
    buffers = nic.recv_buffers
    registry.gauge(
        "nic_recv_buffer_occupancy_bytes", component=comp,
        help="bytes currently held in the receive/ITB buffers",
        fn=lambda b=buffers: b.occupancy_bytes,
    )
    registry.gauge(
        "nic_recv_buffer_packets", component=comp,
        help="packets currently held in the receive/ITB buffers",
        fn=lambda b=buffers: b.n_packets,
    )
    if nic.firmware is not None:
        registry.gauge(
            "nic_send_queue_depth", component=comp,
            help="descriptors waiting in the Send machine's queue",
            fn=lambda fw=nic.firmware: len(fw._send_work),
        )
    # Publish future firmware emit() calls as counters too.
    nic.metrics = registry
    gm = getattr(nic, "_gm_host", None)
    if gm is not None:
        for name, (attr, help_) in _GM_COUNTERS.items():
            registry.counter(
                name, component=comp, help=help_,
                fn=lambda g=gm, a=attr: getattr(g, a),
            )


def _attach_faults(registry: MetricsRegistry, fabric) -> None:
    # The plan may be installed after instrumentation: resolve it
    # lazily from fabric.meta at observation time.  With no plan every
    # counter reads zero and observe()'s zero filter keeps snapshots
    # (and goldens) unchanged.
    for name, (attr, help_) in _FAULT_COUNTERS.items():
        registry.counter(
            name, component="fabric", help=help_,
            fn=lambda f=fabric, a=attr: getattr(
                f.meta.get("fault_plan"), a, 0),
        )


def _attach_itb_reselect(registry: MetricsRegistry, fabric) -> None:
    # The reselector may be installed after instrumentation (the
    # harness attaches telemetry first so the congestion view can read
    # the registry): resolve it lazily from fabric.meta at observation
    # time.  Without one every counter reads zero and observe()'s zero
    # filter keeps snapshots (and goldens) unchanged.
    for name, (attr, help_) in _ITB_RESELECT_COUNTERS.items():
        registry.counter(
            name, component="mapper", help=help_,
            fn=lambda f=fabric, a=attr: getattr(
                f.meta.get("itb_reselector"), a, 0),
        )


class RegistryCongestionView:
    """Live :class:`~repro.routing.selectors.CongestionView` over the
    registry's per-NIC buffer occupancy gauges.

    This is the read-only signal feeding adaptive ITB host selection:
    ``host_load(h)`` reads the ``nic_recv_buffer_occupancy_bytes``
    gauge of host ``h`` — callback-backed, so every read reports the
    buffers' *current* fill, no sampling loop required.  Routing never
    imports this module; the view object is handed to the selector
    duck-typed, exactly like ``fabric.tracer``.
    """

    def __init__(self, gauges: dict[int, "object"]) -> None:
        self._gauges = gauges

    def host_load(self, host: int) -> float:
        """Bytes currently held in ``host``'s receive/ITB buffers."""
        gauge = self._gauges.get(host)
        return 0.0 if gauge is None else float(gauge.value)


def attach_congestion_view(net: "BuiltNetwork",
                           registry: MetricsRegistry
                           ) -> RegistryCongestionView:
    """Build the congestion view adaptive selectors consume.

    Resolves each host's ``nic_recv_buffer_occupancy_bytes`` gauge
    from ``registry`` (so the registry must already be attached via
    :func:`instrument_network`) and maps it back to the host id.
    """
    gauges: dict[int, object] = {}
    for host, nic in net.nics.items():
        gauges[host] = registry.get(
            "nic_recv_buffer_occupancy_bytes",
            component=f"nic[{nic.name}]",
        )
    return RegistryCongestionView(gauges)


def _attach_express(registry: MetricsRegistry, fabric) -> None:
    stats = fabric.express_stats
    registry.counter(
        "worm_express_hits", component="fabric",
        help="worms that flew the closed-form express lane",
        fn=lambda s=stats: s.hits,
    )
    registry.counter(
        "worm_express_partial", component="fabric",
        help="express launches on a truncated claim horizon"
             " (prefix closed-form, suffix stepped)",
        fn=lambda s=stats: s.partial,
    )
    registry.counter(
        "worm_express_fallbacks", component="fabric",
        help="worm launches that took the stepped generator",
        fn=lambda s=stats: s.fallbacks,
    )
    registry.counter(
        "worm_stepped_hops", component="fabric",
        help="switch hops traversed hop-by-hop (fallbacks + demotions)",
        fn=lambda s=stats: s.stepped_hops,
    )


def attach_route_cache(registry: MetricsRegistry, cache) -> None:
    """Publish a :class:`~repro.routing.cache.RouteCache`'s counters.

    Hits/misses/evictions are shared-memory totals (accurate across
    forked workers); ``route_cache_entries`` is this process's
    resident entry count — together they show whether the LRU bound
    is churning routes that points will recompute.
    """
    registry.counter(
        "route_cache_hits", component="route-cache",
        help="route lookups served from the shared cache",
        fn=lambda c=cache: c.hits,
    )
    registry.counter(
        "route_cache_misses", component="route-cache",
        help="route lookups that computed all-pairs routes",
        fn=lambda c=cache: c.misses,
    )
    registry.counter(
        "route_cache_evictions", component="route-cache",
        help="cache entries dropped by the LRU memory bound",
        fn=lambda c=cache: c.evictions,
    )
    registry.counter(
        "route_cache_batch_hits", component="route-cache",
        help="per-source route trees served whole off a warm batch entry",
        fn=lambda c=cache: c.batch_hits,
    )
    registry.gauge(
        "route_cache_entries", component="route-cache",
        help="distinct route entries resident in this process",
        fn=lambda c=cache: len(c),
    )


def _attach_fabric(registry: MetricsRegistry,
                   usage: FabricUsage) -> None:
    for cu in usage.channels.values():
        comp = f"channel[{cu.from_node}->{cu.to_node}]"
        # Parallel cables share endpoints: the (link, direction) key —
        # extended with a lane index on multi-lane fabrics — goes in
        # its own label so every metered resource stays distinct.
        link = {"link": ":".join(str(part) for part in cu.key)}
        registry.counter(
            "fabric_channel_packets_total", component=comp,
            help="packets granted this switch-to-switch channel",
            fn=lambda c=cu: c.packets, labels=link,
        )
        registry.gauge(
            "fabric_channel_busy_ns", component=comp,
            help="cumulative busy time of this channel (ns)",
            fn=lambda c=cu: c.busy_ns, labels=link,
        )
        registry.gauge(
            "fabric_channel_utilization", component=comp,
            help="busy fraction of this channel over the observed window",
            fn=lambda c=cu, u=usage: c.utilization(u.observed_ns),
            labels=link,
        )
    registry.gauge(
        "fabric_jain_fairness",
        help="Jain's fairness index over channel busy times",
        fn=usage.jain_fairness,
    )
    registry.gauge(
        "fabric_max_utilization",
        help="busiest channel's busy fraction",
        fn=usage.max_utilization,
    )
    registry.gauge(
        "fabric_root_concentration",
        help="fraction of fabric busy time on root-adjacent channels",
        fn=usage.root_concentration,
    )


def _attach_lanes(registry: MetricsRegistry, fabric) -> None:
    """Per-lane occupancy gauges (multi-lane fabrics only).

    One gauge per lane index: the count of channels whose lane-``i``
    resource is currently held somewhere in the fabric.  Skipped
    entirely at ``n_lanes == 1`` so single-lane snapshots (and the
    goldens built on them) are unchanged.
    """
    def occupied(f, lane):
        return sum(
            1 for (_l, _d, ln), busy in f.lane_utilization_snapshot().items()
            if ln == lane and busy
        )
    for lane in range(fabric.n_lanes):
        registry.gauge(
            "fabric_lane_occupancy", component="fabric",
            help="channels whose resource on this lane is currently held",
            fn=lambda f=fabric, ln=lane: occupied(f, ln),
            labels={"lane": str(lane)},
        )


def instrument_network(
    net: "BuiltNetwork",
    registry: Optional[MetricsRegistry] = None,
    sample_interval_ns: Optional[float] = None,
    profile: bool = False,
    fabric_usage: bool = True,
    route_cache=None,
) -> Telemetry:
    """Attach the unified telemetry stack to a built network.

    Must run *before* traffic (the fabric meter wraps channel
    resources at attach time).  Returns a :class:`Telemetry` whose
    registry already exposes every NIC and fabric metric; when
    ``sample_interval_ns`` is given a started
    :class:`~repro.obs.sampler.Sampler` records gauge time series, and
    with ``profile=True`` a :class:`~repro.obs.profiler.Profiler` is
    installed on the engine.
    """
    registry = registry or MetricsRegistry()
    for _host, nic in sorted(net.nics.items()):
        _attach_nic(registry, nic)
    _attach_express(registry, net.fabric)
    _attach_faults(registry, net.fabric)
    _attach_itb_reselect(registry, net.fabric)
    if route_cache is not None:
        attach_route_cache(registry, route_cache)
    if net.fabric.n_lanes > 1:
        _attach_lanes(registry, net.fabric)
    usage: Optional[FabricUsage] = None
    if fabric_usage:
        usage = attach_usage_meter(net)
        _attach_fabric(registry, usage)
    profiler: Optional[Profiler] = None
    if profile:
        profiler = Profiler().install(net.sim)
    sampler: Optional[Sampler] = None
    if sample_interval_ns is not None:
        sampler = Sampler(net.sim, registry, sample_interval_ns).start()
    return Telemetry(registry=registry, sampler=sampler,
                     profiler=profiler, usage=usage)
