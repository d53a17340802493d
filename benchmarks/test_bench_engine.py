"""Benchmark: raw simulator performance.

Not a paper figure — a performance regression guard for the
discrete-event kernel itself, which everything else pays for.
Measures event-dispatch throughput, process context switches, and a
representative end-to-end network run.
"""

from __future__ import annotations

import time

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.mcp.packet_format import encode_packet
from repro.network.fabric import Fabric
from repro.network.worm import Worm
from repro.routing.routes import SourceRoute
from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.resources import Resource
from repro.topology.graph import Topology


def test_bench_event_dispatch(benchmark):
    """Plain calendar churn: schedule/dispatch cycles."""

    def run():
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 50_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count["n"]

    n = benchmark(run)
    assert n == 50_000


def test_bench_process_switching(benchmark):
    """Generator-process resume cost (the firmware's currency)."""

    def run():
        sim = Simulator()
        done = {"n": 0}

        def worker():
            for _ in range(500):
                yield Timeout(1.0)
            done["n"] += 1

        for _ in range(100):
            sim.process(worker())
        sim.run()
        return done["n"]

    n = benchmark(run)
    assert n == 100


def test_bench_resource_contention(benchmark):
    """FIFO resource grant/release churn under contention."""

    def run():
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finished = {"n": 0}

        def worker(i):
            for _ in range(50):
                yield res.request(owner=i)
                yield Timeout(1.0)
                res.release(owner=i)
            finished["n"] += 1

        for i in range(40):
            sim.process(worker(i))
        sim.run()
        return finished["n"]

    n = benchmark(run)
    assert n == 40


def _churn_fast(n_procs: int, n_ticks: int) -> int:
    """Timeout churn on the fast path: direct-from-calendar resume."""
    sim = Simulator()
    done = {"n": 0}

    def worker():
        for _ in range(n_ticks):
            yield Timeout(1.0)
        done["n"] += 1

    for _ in range(n_procs):
        sim.process(worker())
    sim.run()
    return done["n"]


def _churn_legacy(n_procs: int, n_ticks: int) -> int:
    """The same workload through the retired resume shape: one Event
    allocated per delay, and two calendar-heap round trips — the timer
    itself plus the succeed->resume dispatch hop, which the old engine
    also pushed through the heap.  Non-default priority keeps both
    entries off the immediate lane."""
    sim = Simulator()
    done = {"n": 0}

    def worker():
        for _ in range(n_ticks):
            ev = Event(sim, name="timeout")
            sim.schedule(
                1.0,
                lambda ev=ev: sim.schedule(0.0, ev.succeed, priority=1),
                priority=1,
            )
            yield ev
        done["n"] += 1

    for _ in range(n_procs):
        sim.process(worker())
    sim.run()
    return done["n"]


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_calendar_churn_speedup(benchmark, bench_headline):
    """The tentpole guard: timeout-heavy calendar churn must run at
    least 2x faster on the direct-resume + immediate-lane path than
    through the legacy Event-per-timeout shape."""
    n_procs, n_ticks = 100, 400

    n = benchmark(lambda: _churn_fast(n_procs, n_ticks))
    assert n == n_procs

    fast = _best_of(lambda: _churn_fast(n_procs, n_ticks))
    legacy = _best_of(lambda: _churn_legacy(n_procs, n_ticks))
    ratio = legacy / fast
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["fast_s"] = round(fast, 6)
    bench_headline["legacy_s"] = round(legacy, 6)
    assert ratio >= 2.0, (
        f"fast path only {ratio:.2f}x over legacy resume shape"
        f" (fast {fast * 1e3:.1f} ms, legacy {legacy * 1e3:.1f} ms)"
    )


def _flight_net(n_switches: int = 4):
    """A SAN line of switches with one host at each end — the
    uncontended multi-hop shape of the fig7 half-round-trip paths."""
    topo = Topology()
    switches = [topo.add_switch(n_ports=4) for _ in range(n_switches)]
    for i in range(n_switches - 1):
        topo.connect(switches[i], 2, switches[i + 1], 3)
    src = topo.attach_host(switches[0], 0, name="src")
    dst = topo.attach_host(switches[-1], 1, name="dst")
    seg = SourceRoute(
        src=src, dst=dst,
        ports=(2,) * (n_switches - 1) + (1,),
        switch_path=tuple(switches),
    )
    sim = Simulator()
    fabric = Fabric(sim, topo, Timings())
    return sim, fabric, seg


def _run_flight(n_worms: int, express: bool) -> list:
    """Sequential uncontended 512 B worms down the line; returns the
    per-worm completion timestamps (for cross-mode exactness checks)."""
    sim, fabric, seg = _flight_net()
    fabric.express_enabled = express
    image = encode_packet(seg, bytes(512))
    completes: list[float] = []

    class _Obs:
        def on_header(self, worm, t):
            return None

        def on_complete(self, worm, t):
            completes.append(t)

    obs = _Obs()

    def driver():
        for _ in range(n_worms):
            Worm(sim, fabric, seg, image, observer=obs).launch()
            yield Timeout(6000.0)  # > one full flight: truly uncontended

    sim.process(driver())
    sim.run()
    return completes


def test_bench_worm_flight(benchmark, bench_headline):
    """The express-lane guard: closed-form worm flight must be at
    least 1.5x faster than the stepped generator on an uncontended
    fig7-shaped workload — with bit-identical completion times."""
    n_worms = 400

    completes = benchmark(lambda: _run_flight(n_worms, True))
    assert len(completes) == n_worms

    assert _run_flight(n_worms, True) == _run_flight(n_worms, False)

    express = _best_of(lambda: _run_flight(n_worms, True))
    stepped = _best_of(lambda: _run_flight(n_worms, False))
    ratio = stepped / express
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["express_s"] = round(express, 6)
    bench_headline["stepped_s"] = round(stepped, 6)
    assert ratio >= 1.5, (
        f"express lane only {ratio:.2f}x over stepped flight"
        f" (express {express * 1e3:.1f} ms, stepped {stepped * 1e3:.1f} ms)"
    )


def _claim_loop(lanes: int, n_claims: int = 30_000) -> float:
    """Wall time for ``n_claims`` rounds of the worm launch claim
    sequence (``select_lanes`` -> ``lane_keys`` -> ``claim_conflicts``
    -> ``register_claims`` -> ``release_claims``) on a multi-hop plan.

    This is the exact per-launch bookkeeping the virtual-channel
    refactor added to every flight; full-traffic runs bury it under
    event dispatch, so it is timed in isolation here.
    """
    from repro.routing.spanning_tree import build_orientation
    from repro.routing.updown import UpDownRouter
    from repro.topology.generators import fig6_testbed

    topo, roles = fig6_testbed()
    fabric = Fabric(Simulator(), topo, Timings(), lanes=lanes)
    router = UpDownRouter(topo, build_orientation(topo))
    seg = router.itb_route(roles["host1"], roles["host2"]).segments[0]
    plan = fabric.flight_plan(seg)
    worm = object()
    t0 = time.perf_counter()
    for _ in range(n_claims):
        chosen = fabric.select_lanes(plan)
        keys = plan.lane_keys(chosen)
        fabric.claim_conflicts(keys, 0.0)
        fabric.register_claims(worm, keys)
        fabric.release_claims(worm, keys)
    return time.perf_counter() - t0


def test_bench_lane_overhead(benchmark, bench_headline):
    """The virtual-channel refactor guard: the lanes=1 fast path
    (``FlightPlan.keys0``/``zero_lanes``, no per-hop lane selection)
    must stay within 5% of the generic laned claim path.  A second
    lane forces generic per-hop selection and fresh key tuples while
    the claims themselves stay identical, so the ratio is pure lane
    bookkeeping — the cost the pre-refactor engine never paid."""
    fast = benchmark(lambda: _claim_loop(1))
    assert fast > 0

    fast = _best_of(lambda: _claim_loop(1))
    generic = _best_of(lambda: _claim_loop(2))
    ratio = generic / fast
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["fast_s"] = round(fast, 6)
    bench_headline["generic_s"] = round(generic, 6)
    assert ratio >= 0.95, (
        f"lanes=1 fast path is {1 / ratio:.2f}x slower than the"
        f" generic lane path (fast {fast * 1e3:.1f} ms, generic"
        f" {generic * 1e3:.1f} ms) — the single-lane regression"
        f" budget is 5%"
    )


def test_bench_end_to_end_pingpong(benchmark):
    """Representative workload: a full fig6 ping-pong series."""

    def run():
        cfg = NetworkConfig(
            firmware="itb", routing="updown",
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        res = net.ping_pong("host1", "host2", size=1024, iterations=50)
        return res.mean_ns

    mean = benchmark(run)
    assert mean > 0


# -- claim horizon ----------------------------------------------------------


def _horizon_run(horizon: bool):
    """Loaded irregular-fabric traffic run; returns (express stats,
    delivered packets)."""
    from repro.harness.throughput import build_load_network
    from repro.harness.workloads import drive_traffic
    from repro.topology.generators import random_irregular

    topo = random_irregular(12, seed=5, hosts_per_switch=2)
    net = build_load_network(topo, "updown", seed=11)
    net.fabric.express_horizon = horizon
    stats = drive_traffic(net, 0.08, 1024, 150_000.0, seed=7)
    return net.fabric.express_stats, stats.delivered_packets


def test_bench_express_horizon(benchmark, bench_headline):
    """The claim-horizon guard: under loaded contended traffic the
    express hit rate with partial (claim-horizon) flights must be at
    least double the bail-on-any-conflict baseline, with identical
    delivered-packet counts (the lanes stay observationally
    equivalent).  ``speedup_ratio`` here is the hit-rate ratio."""
    base_stats, base_delivered = benchmark(lambda: _horizon_run(False))
    horizon_stats, horizon_delivered = _horizon_run(True)
    assert horizon_delivered == base_delivered

    def rate(s) -> float:
        return s.hits / max(1, s.hits + s.fallbacks)

    base_rate = rate(base_stats)
    horizon_rate = rate(horizon_stats)
    ratio = horizon_rate / max(base_rate, 1e-9)
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["base_hit_rate"] = round(base_rate, 4)
    bench_headline["horizon_hit_rate"] = round(horizon_rate, 4)
    bench_headline["partial_flights"] = horizon_stats.partial
    assert horizon_stats.partial > 0
    assert ratio >= 2.0, (
        f"claim horizon lifts the loaded hit rate only {ratio:.2f}x"
        f" (base {base_rate:.1%}, horizon {horizon_rate:.1%})"
    )
