"""EXP-A5: spanning-tree root-placement sensitivity.

up*/down* quality hinges on the BFS root: a central root keeps valid
paths short; a peripheral root lengthens them and worsens the
concentration around itself.  ITB routing restores minimal paths for
*any* root (given in-transit hosts at the violation switches).

Empirically, on random irregular COWs the root *choice* turns out to
be second-order (a few percent either way, not always in the
intuitive direction), while the up*/down* *stretch over minimal* is
first-order (~10-15% regardless of root) — and ITB routing removes
the stretch entirely under every placement.  That is the robustness
property this study pins down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.routing.itb import ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.spanning_tree import build_orientation, choose_root
from repro.routing.updown import UpDownRouter
from repro.topology.generators import random_irregular
from repro.topology.graph import Topology

__all__ = ["RootStudyResult", "RootStudyRow", "measure_root_point",
           "run_root_study", "worst_root"]


def worst_root(topo: Topology) -> int:
    """The switch maximizing BFS eccentricity — the anti-optimal root."""
    def ecc(s: int) -> int:
        return max(topo.switch_distances(s).values())

    return max(topo.switches(), key=lambda s: (ecc(s), s))


@dataclass
class RootStudyRow:
    """Average fabric hops under one root placement."""

    root_label: str
    root: int
    avg_updown_hops: float
    avg_itb_hops: float
    avg_minimal_hops: float
    pairs_with_itbs: int
    n_pairs: int

    @property
    def itb_saving(self) -> float:
        """Average fabric hops ITB routing saves over up*/down*."""
        return self.avg_updown_hops - self.avg_itb_hops

    @property
    def updown_stretch(self) -> float:
        """up*/down* path inflation over minimal (1.0 = minimal)."""
        if self.avg_minimal_hops == 0:
            return 1.0
        return self.avg_updown_hops / self.avg_minimal_hops


@dataclass
class RootStudyResult:
    """All root placements, in spec order."""

    rows: list[RootStudyRow] = field(default_factory=list)


def _avg_hops(route_fn, hosts) -> float:
    total = n = 0
    for s, d in itertools.permutations(hosts, 2):
        total += len(route_fn(s, d).switch_hops())
        n += 1
    return total / n


def measure_root_point(
    label: str,
    which: str,
    n_switches: int,
    topo_seed: int,
    hosts_per_switch: int,
    switch_links: int,
) -> RootStudyRow:
    """Route quality under one root placement (pure routing analysis;
    the topology from ``topo_seed`` is regenerated deterministically,
    so points are independent and fan out cleanly)."""
    topo = random_irregular(n_switches, seed=topo_seed,
                            hosts_per_switch=hosts_per_switch,
                            switch_links=switch_links)
    hosts = topo.hosts()
    minimal = _avg_hops(MinimalRouter(topo).route, hosts)
    if which == "choose":
        root = choose_root(topo)
    elif which == "worst":
        root = worst_root(topo)
    else:
        root = int(which)
    orientation = build_orientation(topo, root=root)
    ud = UpDownRouter(topo, orientation)
    itb = ItbRouter(topo, orientation)
    itb_routes = {p: itb.itb_route(*p)
                  for p in itertools.permutations(hosts, 2)}
    return RootStudyRow(
        root_label=label,
        root=root,
        avg_updown_hops=_avg_hops(ud.route, hosts),
        avg_itb_hops=sum(len(r.switch_hops())
                         for r in itb_routes.values())
        / len(itb_routes),
        avg_minimal_hops=minimal,
        pairs_with_itbs=sum(1 for r in itb_routes.values()
                            if r.n_itbs > 0),
        n_pairs=len(itb_routes),
    )


def run_root_study(
    n_switches: int = 16,
    topo_seed: int = 33,
    hosts_per_switch: int = 1,
    switch_links: int = 3,
    roots: Sequence[tuple[str, str]] = (("optimal", "choose"),
                                        ("anti-optimal", "worst")),
) -> list[RootStudyRow]:
    """Compare route quality under different root placements
    (through the unified experiment pipeline).

    ``roots`` names the placements: ``"choose"`` = the mapper's
    min-eccentricity policy, ``"worst"`` = max-eccentricity, or an
    integer switch id as a string.
    """
    from repro.exp import ExperimentSpec, run_experiment

    result: RootStudyResult = run_experiment(ExperimentSpec(
        experiment="root-study",
        n_switches=n_switches,
        topo_seed=topo_seed,
        hosts_per_switch=hosts_per_switch,
        switch_links=switch_links,
        params={"roots": [list(r) for r in roots]},
    ))
    return result.rows
