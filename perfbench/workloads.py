"""The benchmark's three workloads.

Each workload is a list of experiment specs run through the public
``repro.exp.Runner``, plus what the benchmark reads off the results:
the correctness check of one measurement point, the simulated
end-to-end metrics, and the deterministic ITB pair count.  Why each
workload was chosen is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.exp import ExperimentSpec, get_experiment
from repro.harness.fig7 import DEFAULT_SIZES
from repro.harness.paper_claims import claim
from repro.harness.scale_study import family_topology
from repro.topology.generators import fig6_testbed, random_irregular
from repro.topology.graph import Topology

__all__ = ["WORKLOADS", "Seeds", "Workload"]


@dataclass(frozen=True)
class Seeds:
    """Topology, traffic and host-noise seeds of one run."""

    topo: Optional[int]
    traffic: int
    noise: int


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _pct_error(measured: float, key: str) -> float:
    paper = claim(key).value
    return 100.0 * abs(measured - paper) / paper


class Workload:
    """One workload: its specs, point check and simulated metrics."""

    name = ""
    #: Topology seed used when ``--topo-seed`` is not given (``None``
    #: for a fixed testbed).
    default_topo_seed: Optional[int] = None

    def specs(self, seeds: Seeds) -> list[ExperimentSpec]:
        raise NotImplementedError

    def topology(self, seeds: Seeds) -> Topology:
        """The fabric the points run on, built once during set-up."""
        raise NotImplementedError

    def n_points(self, seeds: Seeds) -> int:
        return sum(len(get_experiment(s.experiment).points(s))
                   for s in self.specs(seeds))

    def check(self, record: Any, topo: Topology) -> Optional[str]:
        """Why one measurement point failed, or ``None`` if it passed."""
        raise NotImplementedError

    def metrics(self, results: dict) -> dict[str, float]:
        """Simulated end-to-end metrics, from ``{experiment: result}``."""
        raise NotImplementedError

    def itb_pairs(self, results: dict, seeds: Seeds) -> int:
        """Host pairs whose computed ITB route uses an in-transit host."""
        raise NotImplementedError

    def summary(self, results: dict) -> str:
        """The raw values behind the metrics, for the log."""
        raise NotImplementedError


class PingPong(Workload):
    """Figs. 7 and 8 as the paper measured them (closed loop)."""

    name = "pingpong"

    def specs(self, seeds: Seeds) -> list[ExperimentSpec]:
        return [ExperimentSpec(experiment=name, sizes=DEFAULT_SIZES,
                               iterations=100, seed=seeds.noise)
                for name in ("fig7", "fig8")]

    def topology(self, seeds: Seeds) -> Topology:
        return fig6_testbed()[0]

    def check(self, record: Any, topo: Topology) -> Optional[str]:
        row = record.value
        pair = ((row.original_ns, row.modified_ns)
                if hasattr(row, "modified_ns") else (row.ud_ns, row.ud_itb_ns))
        if not _finite(*pair):
            return f"size {row.size}: non-finite half-RTT {pair}"
        if record.exchanges != 200 or record.incomplete_exchanges:
            return (f"size {row.size}: {record.incomplete_exchanges} of"
                    f" {record.exchanges} exchanges incomplete (want 200)")
        return None

    def metrics(self, results: dict) -> dict[str, float]:
        return {
            "fig7_err_pct": _pct_error(results["fig7"].mean_overhead_ns,
                                       "f7.mean_overhead_ns"),
            "fig8_err_pct": _pct_error(results["fig8"].mean_overhead_ns,
                                       "f8.overhead_ns"),
        }

    def itb_pairs(self, results: dict, seeds: Seeds) -> int:
        # Both figures use up*/down* tables; the Fig. 8 ITB path is a
        # hand-built override, not a computed ITB route.
        return 0

    def summary(self, results: dict) -> str:
        return (f"fig7 mean overhead {results['fig7'].mean_overhead_ns:.1f}"
                f" ns (paper {claim('f7.mean_overhead_ns').value:g}),"
                f" fig8 {results['fig8'].mean_overhead_ns:.1f} ns"
                f" (paper {claim('f8.overhead_ns').value:g})")


class UniformLoad(Workload):
    """Open-loop uniform traffic at a light and a saturating rate."""

    name = "uniform-load"
    default_topo_seed = 5
    LIGHT_RATE = 0.02
    HEAVY_RATE = 0.12

    def specs(self, seeds: Seeds) -> list[ExperimentSpec]:
        return [ExperimentSpec(
            experiment="throughput", n_switches=16, hosts_per_switch=2,
            topo_seed=seeds.topo, traffic_seed=seeds.traffic,
            packet_size=512, rates=(self.LIGHT_RATE, self.HEAVY_RATE),
            routings=("updown", "itb"),
            duration_ns=1_000_000.0, warmup_ns=100_000.0,
        )]

    def topology(self, seeds: Seeds) -> Topology:
        return random_irregular(16, seed=seeds.topo, hosts_per_switch=2)

    def check(self, record: Any, topo: Topology) -> Optional[str]:
        s = record.value
        where = f"{record.kwargs['routing']}@{record.kwargs['rate']}"
        if not _finite(s.accepted_bytes_per_ns_per_host, s.mean_latency_ns,
                       s.p99_latency_ns):
            return f"{where}: non-finite statistic"
        if s.offered_packets <= 0 or s.n_hosts != len(topo.hosts()):
            return f"{where}: offered {s.offered_packets} on {s.n_hosts} hosts"
        if s.delivered_packets > s.offered_packets or s.delivered_fraction > 1:
            return (f"{where}: delivered {s.delivered_packets} >"
                    f" offered {s.offered_packets}")
        return None

    def _point(self, result: Any, routing: str, rate: float) -> Any:
        for p in result.series(routing):
            if p.offered_bytes_per_ns_per_host == rate:
                return p
        raise KeyError(f"no {routing} point at {rate}")

    def metrics(self, results: dict) -> dict[str, float]:
        r = results["throughput"]
        out = {}
        for routing, tag in (("itb", "itb"), ("updown", "ud")):
            out[f"accepted_{tag}_Bpns"] = self._point(
                r, routing, self.HEAVY_RATE).accepted
            out[f"p99_{tag}_us"] = self._point(
                r, routing, self.LIGHT_RATE).stats.p99_latency_ns / 1000.0
        return out

    def summary(self, results: dict) -> str:
        r = results["throughput"]
        counts = ", ".join(
            f"{routing} {len(self._point(r, routing, self.LIGHT_RATE).stats.latencies_ns)}"
            for routing in ("itb", "updown"))
        return f"latency samples behind each p99 at {self.LIGHT_RATE}: {counts}"

    def itb_pairs(self, results: dict, seeds: Seeds) -> int:
        from repro.routing.cache import RouteCache

        _orientation, pairs = RouteCache().routes_for(
            self.topology(seeds), "itb")
        return sum(1 for route in pairs.values() if route.n_itbs)


class RouteScale(Workload):
    """Cold all-pairs routes on a 256-switch irregular fabric."""

    name = "route-scale"
    default_topo_seed = 11
    SWITCHES = 256

    def specs(self, seeds: Seeds) -> list[ExperimentSpec]:
        spec = get_experiment("scale-study").default_spec()
        params = dict(spec.params, targets=[self.SWITCHES],
                      families=["irregular"])
        return [spec.replace(topo_seed=seeds.topo, params=params)]

    def topology(self, seeds: Seeds) -> Topology:
        return family_topology("irregular", self.SWITCHES, seeds.topo)

    def check(self, record: Any, topo: Topology) -> Optional[str]:
        row = record.value
        hosts = len(topo.hosts())
        if row.n_hosts != hosts or row.n_pairs != hosts * (hosts - 1):
            return (f"{row.routing}: {row.n_pairs} routed pairs on"
                    f" {row.n_hosts} hosts, want {hosts * (hosts - 1)}")
        if not _finite(row.minimal_coverage, row.avg_stretch,
                       row.saturation_bytes_per_ns_per_host):
            return f"{row.routing}: non-finite route statistic"
        if row.dynamic is not None:
            return f"{row.routing}: unexpected simulated traffic point"
        return None

    def _row(self, results: dict, routing: str) -> Any:
        return results["scale-study"].row("irregular", self.SWITCHES, routing)

    def metrics(self, results: dict) -> dict[str, float]:
        return {"itb_minimal_pct":
                100.0 * self._row(results, "itb").minimal_coverage}

    def itb_pairs(self, results: dict, seeds: Seeds) -> int:
        row = self._row(results, "itb")
        return round(row.itb_pairs_fraction * row.n_pairs)

    def summary(self, results: dict) -> str:
        ud = self._row(results, "updown")
        return (f"up*/down* routes {100 * ud.minimal_coverage:.1f} % of"
                f" {ud.n_pairs} host pairs minimally")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PingPong(), UniformLoad(), RouteScale())
}
