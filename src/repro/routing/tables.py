"""Per-host route tables.

The Myrinet mapper computes routes among all hosts and stores them in
each NIC's SRAM; the MCP stamps the path into the packet header at
send time.  :class:`RouteTable` is that per-NIC table.  For the ITB
routing, the entry for a destination is the *first segment* of the ITB
route plus the pre-encoded remainder (the in-transit host re-injects
using bytes already carried in the packet, not its own table — paper
Section 4 / Figure 3b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol, Union

from repro.routing.routes import ItbRoute, RouteError, SourceRoute, route_batch

__all__ = ["RouteTable", "build_route_tables"]


class _Router(Protocol):  # either UpDownRouter or ItbRouter
    def itb_route(self, src_host: int, dst_host: int) -> ItbRoute: ...


@dataclass
class RouteTable:
    """Routes stored in one host's NIC SRAM, keyed by destination host."""

    host: int
    entries: dict[int, ItbRoute] = field(default_factory=dict)

    def lookup(self, dst_host: int) -> ItbRoute:
        """The stamped route toward a destination host."""
        try:
            return self.entries[dst_host]
        except KeyError:
            raise RouteError(
                f"host {self.host} has no route to {dst_host}"
            ) from None

    def install(self, dst_host: int, route: Union[SourceRoute, ItbRoute]) -> None:
        """Stamp (or overwrite) the route toward ``dst_host``."""
        if isinstance(route, SourceRoute):
            route = ItbRoute((route,))
        if route.src != self.host or route.dst != dst_host:
            raise RouteError(
                f"route {route.src}->{route.dst} does not belong in table"
                f" of host {self.host} for destination {dst_host}"
            )
        self.entries[dst_host] = route

    def destinations(self) -> list[int]:
        """Destination host ids with a stamped route."""
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@route_batch()
def build_route_tables(
    hosts: list[int],
    router: _Router,
    pairs: Optional[Mapping[tuple[int, int], ItbRoute]] = None,
) -> dict[int, RouteTable]:
    """Compute the full set of tables the mapper would distribute.

    ``pairs`` may supply precomputed routes (e.g. hand-built test
    routes); anything missing is computed via the router's batched
    per-source ``routes_from`` when it offers one (the repo routers all
    do — one BFS tree per source instead of a search per pair), falling
    back to per-pair ``itb_route`` for minimal protocol implementations.
    The router sees destinations in the same order either way, so
    stateful host policies produce identical tables, in one route batch.
    """
    tables = {h: RouteTable(host=h) for h in hosts}
    batch = getattr(router, "routes_from", None)
    for s in hosts:
        missing = [d for d in hosts
                   if d != s and (pairs is None or pairs.get((s, d)) is None)]
        computed: Mapping[int, Union[SourceRoute, ItbRoute]] = {}
        if batch is not None and missing:
            computed = batch(s, dests=missing)
        for d in hosts:
            if s == d:
                continue
            route = None if pairs is None else pairs.get((s, d))
            if route is None:
                route = computed.get(d)
            if route is None:
                route = router.itb_route(s, d)
            tables[s].install(d, route)
    return tables
