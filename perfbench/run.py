"""The repository benchmark: three workloads through ``repro.exp.Runner``.

Usage, from the repository root::

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond a few probes and the host-speed sampler; ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units come from ``BENCHMARK.json``; ``perfbench/README.md``
maps every metric to its layer and workload.

The simulated inputs come from fixed topology, traffic and host-noise
seeds (``--topo-seed``, ``--traffic-seed``, ``--noise-seed``), so every
simulated statistic, result digest and work counter repeats exactly
across runs of one commit.  ``--seed`` is recorded with the result but
feeds no simulated input; see the README for why.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 5
#: Fresh interpreters timed per import metric in the traced run.
IMPORT_REPEATS = 3
#: Wall-clock fields of scale-study rows; left out of the digest.
WALL_CLOCK_FIELDS = ("build_s", "route_s")


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pingpong", "uniform-load", "route-scale"])
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded with the result; feeds no simulated input")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long to repeat the measured body")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--topo-seed", type=int, default=None,
                    help="default 5 (uniform-load), 11 (route-scale)")
    ap.add_argument("--traffic-seed", type=int, default=7)
    ap.add_argument("--noise-seed", type=int, default=2001)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up -----------------------------------------------------------------


@dataclass
class Setup:
    """Everything built before the first measured call."""

    workload: Any
    seeds: Any
    specs: list
    topo: Any
    n_points: int


def _setup(name: str, args: argparse.Namespace) -> Setup:
    """Import the program and build the workload's specs and topology.

    The probes import every module they wrap here too, so the first
    measured body pays for no lazy import.
    """
    from layers import Probe
    from workloads import WORKLOADS, Seeds

    with Probe():
        pass
    workload = WORKLOADS[name]
    topo_seed = (args.topo_seed if args.topo_seed is not None
                 else workload.default_topo_seed)
    seeds = Seeds(topo=topo_seed, traffic=args.traffic_seed,
                  noise=args.noise_seed)
    return Setup(workload=workload, seeds=seeds,
                 specs=workload.specs(seeds), topo=workload.topology(seeds),
                 n_points=workload.n_points(seeds))


def _seed_args(args: argparse.Namespace) -> list[str]:
    out = ["--traffic-seed", str(args.traffic_seed),
           "--noise-seed", str(args.noise_seed)]
    if args.topo_seed is not None:
        out += ["--topo-seed", str(args.topo_seed)]
    return out


def _child(argv: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter; seconds until its first line, and the line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _out, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"child {argv} failed:\n{err}")
    return elapsed, line.strip()


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Process start to the first measured call, in fresh interpreters.

    Each interpreter reports the host speed it saw, and its time is
    rescaled to the reference speed like ``run_s``.
    """
    argv = [str(Path(__file__)), "--workload", args.workload,
            "--setup-probe", *_seed_args(args)]
    out = []
    for _ in range(SETUP_REPEATS):
        elapsed, line = _child(argv)
        out.append(elapsed * float(line.split()[1]))
    return out


def _import_seconds(module: str) -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]);"
            f" t = time.perf_counter(); import {module};"
            " print(time.perf_counter() - t)")
    return statistics.median(
        float(_child(["-c", code, str(SRC)])[1])
        for _ in range(IMPORT_REPEATS))


# -- one measured body ------------------------------------------------------


@dataclass
class Body:
    """One execution of a workload's specs through the Runner."""

    #: Process CPU time of the body, as measured.
    cpu_s: float = 0.0
    #: ``cpu_s`` rescaled to the reference host speed (``speed.py``).
    run_s: float = 0.0
    #: Mean host speed during the body, relative to the reference.
    speed: float = 1.0
    wall_s: float = 0.0
    results: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    probe: Any = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    error: Optional[str] = None
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    def counts(self) -> dict[str, int]:
        """Deterministic work counters of this body."""
        counts = {"calendar_entries": self.probe.calendar_entries,
                  "express_hits": 0, "express_partial": 0,
                  "express_fallbacks": 0, "stepped_hops": 0}
        for report in self.reports:
            for key, value in report.express.items():
                name = key if key == "stepped_hops" else f"express_{key}"
                counts[name] += value
        return counts


def _canonical(doc: Any, ordered: bool = True) -> Any:
    """``doc`` without the wall-clock fields of scale-study rows.

    With ``ordered=False`` every list of plain numbers (such as the
    latency samples of a load point) is sorted, so two documents
    compare equal when they hold the same samples in another order.
    """
    if isinstance(doc, dict):
        return {k: _canonical(v, ordered) for k, v in doc.items()
                if k not in WALL_CLOCK_FIELDS}
    if isinstance(doc, list):
        items = [_canonical(v, ordered) for v in doc]
        if not ordered and all(isinstance(v, (int, float)) for v in items):
            items.sort()
        return items
    return doc


def _measure(setup: Setup, clock: Any = None, express: bool = True) -> Body:
    """Run the workload's specs once, timed, and check every point."""
    import repro.harness.persist as persist
    from layers import Probe
    from repro.exp import Runner
    from repro.routing.cache import RouteCache
    from speed import SpeedSampler

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{setup.workload.name}.json"
    body = Body(attempted=setup.n_points)
    # Start every body from the same heap, so the collector does the
    # same work in each (the collections inside the body are timed).
    gc.collect()
    with Probe(clock=clock, express=express) as probe, \
            SpeedSampler() as sampler:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            runner = Runner(cache=RouteCache(), jobs=1)
            body.reports = [runner.run(spec) for spec in setup.specs]
            body.results = {r.spec.experiment: r.result
                            for r in body.reports}
            persist.save_results(
                path, body.results,
                specs={r.spec.experiment: r.spec for r in body.reports})
        except Exception:  # noqa: BLE001  (every point of the body failed)
            body.error = traceback.format_exc()
        body.cpu_s = time.process_time() - c0
        body.wall_s = time.perf_counter() - w0
    body.run_s = sampler.at_reference_speed(body.cpu_s)
    body.speed = sampler.speed()
    body.probe = probe
    if body.error is not None:
        body.failures = [body.error]
        return body
    if len(probe.points) != setup.n_points:
        body.failures.append(f"{len(probe.points)} points ran,"
                             f" {setup.n_points} expected")
    for record in probe.points:
        reason = setup.workload.check(record, setup.topo)
        if reason is not None:
            body.failures.append(reason)
    doc = _canonical(json.loads(path.read_text()))
    body.digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return body


def _failed(body: Body) -> int:
    return body.attempted if not body.ok else min(body.attempted,
                                                  len(body.failures))


# -- reporting --------------------------------------------------------------


def _metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _say(msg: str) -> None:
    for line in msg.splitlines():
        print(f"# {line}", flush=True)


def _environment(args: argparse.Namespace, setup: Setup) -> None:
    s = setup.seeds
    _say(f"workload={args.workload} trace={args.trace} seed={args.seed}"
         f" seconds={args.seconds:g} python={sys.version.split()[0]}"
         f" nproc={os.cpu_count()} load1={os.getloadavg()[0]:.2f}")
    _say(f"inputs: topo_seed={s.topo} traffic_seed={s.traffic}"
         f" noise_seed={s.noise} (fixed; --seed feeds no simulated input)")


def _consistency(name: str, bodies: list[Body]) -> list[str]:
    """Every body of one workload must give the same digest and counts."""
    good = [b for b in bodies if b.ok]
    problems = []
    if len({b.digest for b in good}) > 1:
        problems.append(f"{name}: result digest differs between bodies")
    if len({json.dumps(b.counts(), sort_keys=True) for b in good}) > 1:
        problems.append(f"{name}: work counters differ between bodies")
    return problems


def _report_body(setup: Setup, bodies: list[Body]) -> None:
    name, workload = setup.workload.name, setup.workload
    attempted = sum(b.attempted for b in bodies)
    failed = sum(_failed(b) for b in bodies)
    _say(f"{name}: failed/attempted = {failed}/{attempted}")
    for b in bodies:
        for reason in b.failures:
            _say(f"{name}: FAILED {reason.strip()}")
    last = [b for b in bodies if b.ok]
    if last:
        results = last[-1].results
        counts = " ".join(f"{k}={v}" for k, v in last[-1].counts().items())
        _say(f"{name}: sha256={last[-1].digest} {counts}"
             f" itb_pairs={workload.itb_pairs(results, setup.seeds)}")
        _say(f"{name}: {workload.summary(results)}")


def _emit(kind: str, values: dict[str, float], bodies: list[Body],
          problems: list[str]) -> int:
    units = _metric_units(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: could not measure {missing}", file=sys.stderr)
        return 1
    for problem in problems:
        _say(f"FAILED {problem}")
    failed = sum(_failed(b) for b in bodies)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(b.attempted for b in bodies),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _repeat_until(deadline: float, once: Any) -> list:
    out = [once()]
    while time.perf_counter() < deadline:
        out.append(once())
    return out


# -- the two kinds of run ---------------------------------------------------


def _end_to_end(args: argparse.Namespace, setup: Setup) -> int:
    from workloads import WORKLOADS

    setup_samples = _setup_seconds(args)
    deadline = time.perf_counter() + args.seconds
    bodies = _repeat_until(deadline, lambda: _measure(setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    good = [b for b in bodies if b.ok]
    name = setup.workload.name
    _say(f"{name}: per body, run_s (raw CPU s, host speed) = "
         + " ".join(f"{b.run_s:.4f} ({b.cpu_s:.4f}, {b.speed:.3f})"
                    for b in bodies))
    _say(f"setup_s per interpreter = "
         + " ".join(f"{s:.4f}" for s in setup_samples))
    problems = _consistency(name, bodies)
    all_bodies = list(bodies)
    values: dict[str, float] = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    _report_body(setup, bodies)
    if good:
        values["run_s"] = statistics.median(b.run_s for b in good)
        values.update(setup.workload.metrics(good[-1].results))
    # The other workloads' simulated metrics: one untimed body each,
    # run after peak memory was read so they cannot inflate it.
    for other in WORKLOADS:
        if other == name:
            continue
        other_setup = _setup(other, args)
        body = _measure(other_setup)
        all_bodies.append(body)
        _report_body(other_setup, [body])
        if body.ok:
            values.update(other_setup.workload.metrics(body.results))
    return _emit("end_to_end", values, all_bodies, problems)


def _traced(args: argparse.Namespace, setup: Setup) -> int:
    from layers import LayerClock

    name = setup.workload.name
    imports = {"cli.import_s": _import_seconds("repro.cli"),
               "cli.networkx_import_s": _import_seconds("networkx")}
    deadline = time.perf_counter() + args.seconds
    pairs = _repeat_until(deadline, lambda: (
        _measure(setup), _measure(setup, clock=LayerClock())))
    untraced = [u for u, _t in pairs]
    traced = [t for _u, t in pairs]
    bodies = untraced + traced
    problems = _consistency(name, bodies)
    good_u = [b for b in untraced if b.ok]
    good_t = sorted((b for b in traced if b.ok), key=lambda b: b.wall_s)
    _report_body(setup, bodies)
    if not good_u or not good_t:
        return _emit("per_layer", {}, bodies, problems)
    median = good_t[len(good_t) // 2]
    counts = median.counts()

    # Express-exactness probe: the same points with the lane off.  A
    # point diverges when its statistics change; it is reordered when
    # only the order of its samples (and so its persisted bytes) does.
    divergent = reordered = 0
    if counts["calendar_entries"]:
        off = _measure(setup, express=False)
        bodies.append(off)
        for on_rec, off_rec in zip(median.probe.points, off.probe.points):
            if _point_doc(on_rec.value, ordered=False) != _point_doc(
                    off_rec.value, ordered=False):
                divergent += 1
            elif _point_doc(on_rec.value) != _point_doc(off_rec.value):
                reordered += 1
        _say(f"{name}: express lane off changes the statistics of"
             f" {divergent} and only the sample order of {reordered} of"
             f" {len(median.probe.points)} points")

    layers = median.probe.layer_seconds()
    attempts = (counts["express_hits"] + counts["express_partial"]
                + counts["express_fallbacks"])
    cache = median.reports[-1].cache_stats  # one Runner: running totals
    values: dict[str, float] = {
        "sim.calendar_entries": counts["calendar_entries"],
        "sim.loop_s": layers.get("sim.loop", 0.0),
        "sim.engine_s": layers.get("sim.engine", 0.0),
        "network.worm_s": layers.get("network.worm", 0.0),
        "network.express_hits": counts["express_hits"],
        "network.express_partial": counts["express_partial"],
        "network.express_fallbacks": counts["express_fallbacks"],
        "network.stepped_hops": counts["stepped_hops"],
        "network.express_hit_ratio": (counts["express_hits"] / attempts
                                      if attempts else 0.0),
        "network.express_divergent_points": divergent,
        "network.express_reordered_points": reordered,
        "mcp.firmware_s": layers.get("mcp.firmware", 0.0),
        "mcp.encode_calls": median.probe.clock.calls.get("mcp.encode", 0),
        "mcp.encode_s": layers.get("mcp.encode", 0.0),
        "mcp.itb_reinjections": median.probe.itb_reinjections,
        "nic.recv_blocked_ns": median.probe.recv_blocked_ns,
        "gm.host_s": layers.get("gm.host", 0.0),
        "gm.mapper_s": layers.get("gm.mapper", 0.0),
        "routing.allpairs_s": layers.get("routing.allpairs", 0.0),
        "routing.cache_hits": cache["hits"],
        "routing.cache_misses": cache["misses"],
        "routing.itb_pairs": setup.workload.itb_pairs(median.results,
                                                      setup.seeds),
        "topology.build_s": layers.get("topology.build", 0.0),
        "core.build_s": layers.get("core.build", 0.0),
        "harness.inject_s": layers.get("harness.inject", 0.0),
        "harness.score_s": layers.get("harness.score", 0.0),
        "harness.point_s": layers.get("harness.point", 0.0),
        "exp.persist_s": layers.get("exp.persist", 0.0),
        "obs.trace_overhead_x": (
            statistics.median(b.run_s for b in good_t)
            / statistics.median(b.run_s for b in good_u)),
        "unattributed_s": median.wall_s - sum(layers.values()),
        **imports,
    }
    _say(f"{name}: traced body {median.wall_s:.4f} s wall; layer self"
         " times: " + " ".join(f"{k}={v:.4f}" for k, v in
                                sorted(layers.items(), key=lambda kv: -kv[1])))
    if values["unattributed_s"] < 0:
        problems.append(f"{name}: unattributed_s < 0: layer charges exceed"
                        " the body")
    return _emit("per_layer", values, bodies, problems)


def _point_doc(value: Any, ordered: bool = True) -> str:
    """One point's persisted form; ``ordered=False`` sorts sample lists."""
    from repro.harness.persist import to_document

    return json.dumps(_canonical(to_document(value), ordered=ordered),
                      sort_keys=True)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        from speed import SpeedSampler

        with SpeedSampler() as sampler:
            _setup(args.workload, args)
        print(f"ready {sampler.speed()}", flush=True)
        return 0
    setup = _setup(args.workload, args)
    _environment(args, setup)
    return (_traced if args.trace else _end_to_end)(args, setup)


if __name__ == "__main__":
    sys.exit(main())
