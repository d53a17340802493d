"""Route datatypes.

A Myrinet **source route** is the sequence of output-port bytes the
packet header carries: one byte per switch traversed, consumed by each
switch as the header passes.  :class:`SourceRoute` couples the byte
sequence with the node-level hop list it resolves to (for the
simulator and for validity analysis).

An **ITB route** (:class:`ItbRoute`) is a chain of source-route
segments; the boundary between consecutive segments is an in-transit
host where the packet is ejected and re-injected (paper Figure 3b).

Routers first compute a :data:`RoutePlan` per host pair: the switch
path, the indices of the switches where it is cut, and the in-transit
host chosen at each cut — int tuples only.  :func:`materialise` turns a
plan into the segments a NIC stamps (port bytes, each segment walked
back over the cables); :func:`check_plan` runs the same checks at
switch level for consumers that only score plans.

Routes are acyclic, so all-pairs batches (:func:`all_pairs_of`) run
with the cyclic garbage collector paused (:func:`route_batch`).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.topology.graph import RouteTables, Topology

__all__ = ["Direction", "ItbRoute", "RouteError", "RoutePlan", "SourceRoute",
           "all_pairs_of", "check_plan", "materialise", "materialise_from",
           "plan_of", "route_batch", "stamps_plan"]


class RouteError(ValueError):
    """Raised when a requested route cannot be computed or is ill-formed."""


class Direction(Enum):
    """Traversal direction of a link under an up*/down* orientation."""

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class SourceRoute:
    """One deliverable source route from a source host to a dest host.

    Attributes
    ----------
    src, dst:
        Endpoint host node ids (for an ITB segment, ``dst`` may be an
        in-transit host rather than the final destination).
    ports:
        Output-port byte per traversed switch, in order.
    switch_path:
        Node ids of the switches traversed, in order.  Always
        ``len(switch_path) == len(ports)``.
    """

    src: int
    dst: int
    ports: tuple[int, ...]
    switch_path: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ports) != len(self.switch_path):
            raise RouteError(
                f"ports({len(self.ports)}) and switch_path"
                f"({len(self.switch_path)}) length mismatch"
            )
        if len(self.ports) == 0:
            raise RouteError("a source route traverses at least one switch")

    @property
    def n_switches(self) -> int:
        """Number of switch traversals (= number of routing bytes)."""
        return len(self.ports)

    @property
    def n_links(self) -> int:
        """Physical cables crossed, including both NIC cables."""
        return len(self.ports) + 1

    def switch_hops(self) -> list[tuple[int, int]]:
        """Directed (switch, switch) pairs for switch-to-switch cables."""
        return list(zip(self.switch_path, self.switch_path[1:]))

    def __len__(self) -> int:
        return len(self.ports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        path = "->".join(str(s) for s in self.switch_path)
        return f"<SourceRoute {self.src}->{self.dst} via [{path}]>"


@dataclass(frozen=True)
class ItbRoute:
    """A route made of one or more segments joined at in-transit hosts.

    ``segments[i].dst == itb_hosts[i]`` for every in-transit host, and
    ``segments[i + 1].src == itb_hosts[i]``.  A plain route (no ITBs)
    is represented as a single-segment :class:`ItbRoute`.
    """

    segments: tuple[SourceRoute, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise RouteError("ItbRoute needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.dst != b.src:
                raise RouteError(
                    f"segment chain broken: {a.dst} != {b.src}"
                )

    @property
    def src(self) -> int:
        return self.segments[0].src

    @property
    def dst(self) -> int:
        return self.segments[-1].dst

    @property
    def itb_hosts(self) -> tuple[int, ...]:
        """In-transit host ids, in traversal order."""
        return tuple(seg.dst for seg in self.segments[:-1])

    @property
    def n_itbs(self) -> int:
        return len(self.segments) - 1

    @property
    def n_switches(self) -> int:
        """Total switch traversals across all segments."""
        return sum(seg.n_switches for seg in self.segments)

    def switch_hops(self) -> list[tuple[int, int]]:
        """Directed switch-to-switch hops across all segments."""
        out: list[tuple[int, int]] = []
        for seg in self.segments:
            out.extend(seg.switch_hops())
        return out

    def __iter__(self) -> Iterator[SourceRoute]:
        return iter(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ItbRoute {self.src}->{self.dst} itbs={list(self.itb_hosts)}"
            f" switches={self.n_switches}>"
        )


#: ``(switch_path, splits, itb_hosts)``: one host pair's route before
#: port bytes.  ``splits`` indexes the switches where the path is cut
#: (each segment re-enters at its cut switch) and ``itb_hosts[i]`` is
#: the in-transit host ejecting at ``switch_path[splits[i]]``; a plain
#: up*/down* route has neither.
RoutePlan = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _check_endpoints(host_switch: dict[int, int], src: int, dst: int,
                     switch_path: tuple[int, ...]) -> None:
    if (switch_path[0] != host_switch.get(src)
            or switch_path[-1] != host_switch.get(dst)):
        raise RouteError("switch_path endpoints do not match hosts")


def _segments(plan: RoutePlan, dst: int) -> Iterator[tuple[tuple[int, ...],
                                                          int]]:
    """``(sub_path, exit_host)`` per segment of ``plan``."""
    path, splits, hosts = plan
    start = 0
    for cut, exit_host in zip(splits + (len(path) - 1,), hosts + (dst,)):
        yield path[start:cut + 1], exit_host
        start = cut  # the next segment re-enters at the cut switch


def materialise(topo: "Topology", tables: "RouteTables", src: int, dst: int,
                plan: RoutePlan) -> tuple[SourceRoute, ...]:
    """The segments a NIC stamps for ``plan``.

    Checks the endpoints against the hosts' switches, emits one
    output-port byte per switch of each segment (the last one exits
    toward the segment's exit host) and walks the bytes back over the
    cables to that host.  ``tables`` is the topology's
    :class:`~repro.topology.graph.RouteTables`, fetched once per source.
    """
    _check_endpoints(tables.host_switch, src, dst, plan[0])
    segments = []
    entry = src
    for sub_path, exit_host in _segments(plan, dst):
        segment = SourceRoute(
            src=entry, dst=exit_host,
            ports=topo.ports_along(tables.port, sub_path, exit_host),
            switch_path=sub_path)
        reached = topo.walk_hops(tables.hop, sub_path[0], segment.ports)
        if reached != exit_host:
            raise RouteError(
                f"route bytes deliver to node {reached}, expected {exit_host}")
        segments.append(segment)
        entry = exit_host
    return tuple(segments)


def materialise_from(router, src_host: int, dests, strict: bool,
                     make: Callable) -> dict:
    """``router.plans_from(src_host, dests, strict)`` materialised, as
    ``make(segments)`` per destination; ``strict=False`` also skips a
    plan that fails to materialise."""
    topo = router.topo
    tables = topo.route_tables()
    out = {}
    for d, plan in router.plans_from(src_host, dests, strict, tables):
        try:
            out[d] = make(materialise(topo, tables, src_host, d, plan))
        except (RouteError, KeyError):
            if strict:
                raise
    return out


def check_plan(topo: "Topology", tables: "RouteTables", src: int, dst: int,
               plan: RoutePlan) -> None:
    """:func:`materialise`'s checks at switch level, without route objects.

    The endpoints must be the hosts' switches, and every hop, the exit
    cable to ``dst`` and the exit cable to every in-transit host must be
    in :attr:`~repro.topology.graph.RouteTables.port` (a present entry
    is a cable the walk follows back).  A failure raises exactly the
    error :func:`materialise` raises for the same plan.
    """
    path, splits, hosts = plan
    _check_endpoints(tables.host_switch, src, dst, path)
    port = tables.port
    cabled = port.__contains__
    if ((path[-1], dst) in port and all(map(cabled, zip(path, path[1:])))
            and (not splits or all(map(cabled, zip(
                map(path.__getitem__, splits), hosts))))):
        return
    for sub_path, exit_host in _segments(plan, dst):
        topo.ports_along(port, sub_path, exit_host)  # raises


def plan_of(route: ItbRoute) -> RoutePlan:
    """The plan a stamped route was materialised from: its segments'
    switch paths joined at the cut switches, and its in-transit hosts."""
    segments = route.segments
    path = segments[0].switch_path
    splits = []
    for segment in segments[1:]:
        splits.append(len(path) - 1)
        path += segment.switch_path[1:]
    return path, tuple(splits), route.itb_hosts


def stamps_plan(route: ItbRoute, src: int, dst: int, plan: RoutePlan,
                tables: "RouteTables") -> bool:
    """Whether ``route`` is, byte for byte, what :func:`materialise`
    builds from ``plan`` over ``tables`` — decided without building a
    route (a route stamped on a degraded fabric can share the plan yet
    cross a different parallel cable)."""
    segments = route.segments
    if len(segments) != len(plan[1]) + 1 or route.src != src:
        return False
    port = tables.port
    for segment, (sub_path, exit_host) in zip(segments, _segments(plan, dst)):
        if (segment.dst != exit_host or segment.switch_path != sub_path
                or segment.ports != (*map(port.get, zip(sub_path,
                                                         sub_path[1:])),
                                     port.get((sub_path[-1], exit_host)))):
            return False
    return True


@contextmanager
def route_batch() -> Iterator[None]:
    """Pause the cyclic garbage collector over one route batch (also a
    decorator).  Batches hold no reference cycles, so collections only
    rescan them; the prior state comes back on exit, even on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@route_batch()
def all_pairs_of(router, wrap: bool = False) -> dict:
    """Every ordered host pair's route off ``router.routes_from`` (one
    call per source, so stateful host policies see a per-pair loop's
    order), in one route batch; ``wrap`` makes single-segment
    :class:`ItbRoute`\\ s of plain routes."""
    hosts = router.topo.hosts()
    out = {}
    for s in hosts:
        routes = router.routes_from(s)
        for d in hosts:
            if s != d:
                out[(s, d)] = ItbRoute((routes[d],)) if wrap else routes[d]
    return out
