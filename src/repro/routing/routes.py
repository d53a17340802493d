"""Route datatypes.

A Myrinet **source route** is the sequence of output-port bytes the
packet header carries: one byte per switch traversed, consumed by each
switch as the header passes.  :class:`SourceRoute` couples the byte
sequence with the node-level hop list it resolves to (for the
simulator and for validity analysis).

An **ITB route** (:class:`ItbRoute`) is a chain of source-route
segments; the boundary between consecutive segments is an in-transit
host where the packet is ejected and re-injected (paper Figure 3b).

Both are acyclic, so all-pairs batches (:func:`all_pairs_of`) run
with the cyclic garbage collector paused (:func:`route_batch`).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

__all__ = ["Direction", "ItbRoute", "RouteError", "SourceRoute",
           "all_pairs_of", "route_batch"]


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
