"""EXP-SCALE: ITB vs up*/down* across 16 -> 512 switch fabrics.

The paper evaluates in-transit buffers on fabrics of at most a few
dozen switches; this study asks how the mechanism scales.  Three
generator families cover the design space:

``clos``
    Folded two-level Clos (leaf-spine): every leaf reaches every spine
    in one hop, so minimal paths already satisfy up*/down* through the
    root spine — the regular fabric where ITBs have nothing to fix.

``fattree``
    Three-level k-ary fat tree: same story one level deeper.  Core and
    aggregation switches carry no hosts, so non-tree shortcuts cannot
    be legalized by ejection, and the ITB router falls back to pure
    up*/down* on every pair.

``irregular``
    Seeded random irregular SAN cabling
    (:func:`~repro.topology.generators.random_irregular_scaled`) — the
    cluster-of-workstations wiring the paper targets, where up*/down*
    concentrates load at the root and ITB splits restore minimal
    paths.

Per (family, size, routing) the study reports *static* route-quality
metrics scored from every host pair's route plan — switch path, cuts
and in-transit hosts, streamed one source at a time (minimal-path
coverage, stretch, root-link involvement, worst channel load and the
analytic saturation throughput it implies, ITB-host pressure) plus
wall-clock build/route times, and — on sizes small enough to simulate
— one *dynamic* offered-load point through the event simulator.

The analytic saturation bound assumes uniform all-to-all traffic:
with H hosts each sending (H-1)/H of its load across the fabric, the
busiest directed channel carrying ``max_load`` of the H*(H-1) routes
saturates first, at per-host rate ``link_rate * (H - 1) /
max_load``.  Larger is better; up*/down*'s root concentration shows
up directly as a shrinking bound while ITB's spread keeps it flat.

Static metrics use transient routers (not the shared route cache) so
a 512-switch sweep does not pin hundreds of thousands of routes in
the LRU; dynamic points go through the normal cached build path.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.builder import build_network
from repro.core.timings import Timings
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.routing.itb import ItbRouter
from repro.routing.routes import check_plan, route_batch
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import (clos, fat_tree,
                                       random_irregular_scaled)
from repro.topology.graph import Topology

__all__ = [
    "ScaleDynamicPoint",
    "ScaleStudyResult",
    "ScaleStudyRow",
    "family_topology",
    "fat_tree_k_for",
    "measure_scale_point",
    "score_plans",
]

#: Generator families the study sweeps, in report order.
FAMILIES = ("clos", "fattree", "irregular")


def fat_tree_k_for(target: int) -> int:
    """Largest even ``k`` whose fat tree fits in ``target`` switches.

    A k-ary fat tree has ``5 * k**2 / 4`` switches; the study picks
    the biggest one not exceeding the size rung so families stay
    comparable.
    """
    k = 2
    while 5 * (k + 2) ** 2 // 4 <= target:
        k += 2
    return k


def family_topology(family: str, target: int, seed: int) -> Topology:
    """The study topology of one family at one size rung.

    ``target`` is the nominal switch count; regular families land on
    the nearest structurally-valid size at or below it (the row
    records the actual counts).
    """
    if family == "clos":
        m = max(2, target // 32)
        return clos(m=m, n=1, r=target - m)
    if family == "fattree":
        return fat_tree(k=fat_tree_k_for(target), hosts_per_edge=1)
    if family == "irregular":
        return random_irregular_scaled(target, seed=seed)
    raise ValueError(f"unknown scale-study family {family!r}")


@dataclass
class ScaleDynamicPoint:
    """One simulated offered-load sample (small fabrics only)."""

    offered: float
    accepted: float
    mean_latency_ns: float
    delivered_fraction: float


@dataclass
class ScaleStudyRow:
    """Static route metrics of one (family, size, routing) cell."""

    family: str
    target: int
    n_switches: int
    n_hosts: int
    n_links: int
    diameter: int
    root: int
    routing: str
    n_pairs: int
    minimal_coverage: float
    avg_stretch: float
    root_load_fraction: float
    max_channel_load: int
    saturation_bytes_per_ns_per_host: float
    itb_pairs_fraction: float
    total_itbs: int
    max_itbs_per_host: int
    build_s: float
    route_s: float
    dynamic: Optional[ScaleDynamicPoint] = None


@dataclass
class ScaleStudyResult:
    """The full scale sweep: rows per (family, size rung, routing)."""

    families: tuple[str, ...]
    targets: tuple[int, ...]
    routings: tuple[str, ...]
    topo_seed: int
    rows: list[ScaleStudyRow] = field(default_factory=list)

    def row(self, family: str, target: int, routing: str) -> ScaleStudyRow:
        """One cell of the sweep (KeyError if absent)."""
        for r in self.rows:
            if (r.family, r.target, r.routing) == (family, target, routing):
                return r
        raise KeyError(f"no row ({family}, {target}, {routing})")

    def series(self, family: str, routing: str) -> list[ScaleStudyRow]:
        """All rows of one (family, routing), in size order."""
        return [r for r in self.rows
                if r.family == family and r.routing == routing]

    def saturation_ratio(self, family: str, target: int) -> float:
        """ITB analytic saturation over up*/down*'s (1.0 = no gain)."""
        ud = self.row(family, target, "updown")
        itb = self.row(family, target, "itb")
        base = ud.saturation_bytes_per_ns_per_host
        if base <= 0:
            return float("inf")
        return itb.saturation_bytes_per_ns_per_host / base


def _make_router(topo: Topology, routing: str, orientation):
    if routing == "updown":
        return UpDownRouter(topo, orientation)
    if routing == "itb":
        return ItbRouter(topo, orientation)
    raise ValueError(f"scale study compares 'updown' and 'itb',"
                     f" not {routing!r}")


def score_plans(topo: Topology, orientation, router,
                timings: Optional[Timings] = None) -> dict:
    """Score every host pair's route plan, one source at a time.

    Streams ``router.plans_from`` for each source host and scores the
    switch path, its cuts and its in-transit hosts; no route object and
    no all-pairs collection is built.  Each plan passes
    :func:`~repro.routing.routes.check_plan` first, the switch-level
    form of the checks route materialisation runs.  Returns the row's
    route-quality fields plus ``diameter``.
    """
    tables = topo.route_tables()
    host_switch = tables.host_switch
    hosts = topo.hosts()
    root = orientation.root
    n_pairs = 0
    minimal = 0
    stretch_sum = 0.0
    through_root = 0
    itb_pairs = 0
    total_itbs = 0
    channel_load: Counter = Counter()
    itb_host_load: Counter = Counter()
    for s in hosts:
        dist = topo.switch_distances(host_switch[s])
        # Counted once per source: one Counter update per source, not
        # per pair.
        src_hops: list[tuple[int, int]] = []
        src_itb_hosts: list[int] = []
        for d, plan in router.plans_from(s):
            check_plan(topo, tables, s, d, plan)
            path, _splits, itb_hosts = plan
            hops = len(path) - 1
            min_hops = dist[host_switch[d]]
            n_pairs += 1
            if hops == min_hops:
                minimal += 1
            stretch_sum += (hops + 1) / (min_hops + 1)
            if root in path:
                through_root += 1
            if itb_hosts:
                itb_pairs += 1
                total_itbs += len(itb_hosts)
                src_itb_hosts.extend(itb_hosts)
            src_hops.extend(zip(path, path[1:]))
        channel_load.update(src_hops)
        itb_host_load.update(src_itb_hosts)

    max_load = max(channel_load.values(), default=0)
    link_rate = 1.0 / (timings or Timings()).link_byte_ns
    # Uniform all-to-all: the busiest channel carries max_load of the
    # H*(H-1) flows; it fills when each host offers link_rate*(H-1)/max_load.
    saturation = (link_rate * (len(hosts) - 1) / max_load
                  if max_load > 0 else 0.0)
    distances = [topo.switch_distances(s) for s in topo.switches()]
    return dict(
        diameter=max(max(dist.values()) for dist in distances),
        n_pairs=n_pairs,
        minimal_coverage=minimal / n_pairs if n_pairs else 1.0,
        avg_stretch=stretch_sum / n_pairs if n_pairs else 1.0,
        root_load_fraction=through_root / n_pairs if n_pairs else 0.0,
        max_channel_load=max_load,
        saturation_bytes_per_ns_per_host=saturation,
        itb_pairs_fraction=itb_pairs / n_pairs if n_pairs else 0.0,
        total_itbs=total_itbs,
        max_itbs_per_host=max(itb_host_load.values(), default=0),
    )


def measure_scale_point(
    family: str,
    target: int,
    routing: str,
    topo_seed: int,
    rate: float = 0.08,
    dynamic_max: int = 64,
    packet_size: int = 512,
    duration_ns: float = 120_000.0,
    warmup_ns: float = 24_000.0,
    traffic_seed: int = 7,
    timings: Optional[Timings] = None,
    build: Callable = build_network,
) -> ScaleStudyRow:
    """Build one fabric and score its route plans (:func:`score_plans`).

    Every metric is derived from the plans of the exact route set a
    mapper would stamp (same routers, same deterministic tie-breaks);
    the port bytes no metric reads are never built.  ``route_s`` times
    that plan pass, scoring included.  Wall-clock fields are
    environment-dependent by nature and are never golden'd or gated —
    they exist so the scale table documents build cost.  The plan pass
    is one :func:`~repro.routing.route_batch` that drops the router's
    memos before the collector resumes, so it never sweeps them; the
    dynamic point simulates after the pause.
    """
    t0 = time.perf_counter()
    topo = family_topology(family, target, topo_seed)
    orientation = build_orientation(topo)
    build_s = time.perf_counter() - t0

    with route_batch():
        t0 = time.perf_counter()
        router = _make_router(topo, routing, orientation)
        scores = score_plans(topo, orientation, router, timings)
        route_s = time.perf_counter() - t0
        del router

    dynamic: Optional[ScaleDynamicPoint] = None
    if target <= dynamic_max:
        net = build_load_network(topo, routing, timings=timings, build=build)
        stats = drive_traffic(
            net, rate_bytes_per_ns_per_host=rate, packet_size=packet_size,
            duration_ns=duration_ns, warmup_ns=warmup_ns, seed=traffic_seed,
        )
        dynamic = ScaleDynamicPoint(
            offered=rate,
            accepted=stats.accepted_bytes_per_ns_per_host,
            mean_latency_ns=stats.mean_latency_ns,
            delivered_fraction=stats.delivered_fraction,
        )

    return ScaleStudyRow(
        family=family,
        target=target,
        n_switches=len(topo.switches()),
        n_hosts=len(topo.hosts()),
        n_links=len(topo.links),
        root=orientation.root,
        routing=routing,
        **scores,
        build_s=round(build_s, 3),
        route_s=round(route_s, 3),
        dynamic=dynamic,
    )
