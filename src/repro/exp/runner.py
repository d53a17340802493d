"""The one build→observe→measure→summarize→persist path.

Every experiment — paper figures, throughput sweeps, ablations — runs
through :class:`Runner`: it resolves the registered definition,
expands the spec into independent measurement points, executes them
(serially, or fanned out over a ``multiprocessing`` pool with
``jobs > 1``), merges the results **deterministically by point
index**, and summarizes.  A shared
:class:`~repro.routing.cache.RouteCache` is warmed in the parent
before any fork, so structurally identical route tables are computed
at most once per run regardless of worker count.

Parallel execution notes:

* Workers are forked (``fork`` start method), inheriting the warmed
  route cache and the experiment registry; on platforms without
  ``fork`` the runner falls back to serial execution.
* Point results are merged by index, so a parallel run returns
  byte-identical persisted documents to a serial run of the same spec
  (the simulation itself is deterministic).
* ``jobs`` only sets the pool width; scheduling order never affects
  the result.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.core.builder import BuiltNetwork, build_network
from repro.exp.registry import Experiment, get_experiment
from repro.exp.spec import ExperimentSpec
from repro.routing.cache import RouteCache, default_route_cache

__all__ = ["PointContext", "Runner", "RunReport", "run_experiment"]


class PointContext:
    """Per-point services the runner hands to ``measure``.

    ``ctx.build(...)`` is the uniform build path: it forwards to
    :func:`~repro.core.builder.build_network` with the shared route
    cache injected and — when the spec asks for observation — attaches
    the unified telemetry registry to the built network, recording a
    compact metric summary per build in :attr:`observations`.
    """

    def __init__(self, spec: ExperimentSpec,
                 cache: Optional[RouteCache] = None) -> None:
        self.spec = spec
        self.cache = cache
        self.observations: list[dict] = []
        self._instrumented: list = []
        self._fabrics: list = []

    def build(self, topo: Any = None, **kwargs: Any) -> BuiltNetwork:
        """Build a network for this point through the single shared path."""
        if topo is None:
            topo = self.spec.topology
        kwargs.setdefault("route_cache", self.cache)
        net = build_network(topo, **kwargs)
        self._fabrics.append(net.fabric)
        if self.spec.observe:
            from repro.obs.attach import instrument_network

            telemetry = instrument_network(net, fabric_usage=False,
                                           route_cache=self.cache)
            self._instrumented.append(telemetry)
        return net

    def express_summary(self) -> dict:
        """Worm express-lane counters summed over this point's builds."""
        totals: dict[str, int] = {}
        for fabric in self._fabrics:
            for key, value in fabric.express_stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def span_dumps(self) -> list[str]:
        """Canonical span dumps of every traced build at this point.

        Empty unless span tracing is on (:func:`repro.obs.tracing.configure`
        installs the tracer factory the builder attaches per fabric).
        One JSON string per traced build, in build order.
        """
        dumps: list[str] = []
        for fabric in self._fabrics:
            tracer = getattr(fabric, "tracer", None)
            if tracer is not None:
                dumps.append(tracer.dump_json())
        return dumps

    def finalize_observations(self) -> None:
        """Snapshot nonzero metric totals of every instrumented build."""
        for telemetry in self._instrumented:
            snapshot: dict[str, float] = {}
            for metric in telemetry.registry.collect():
                value = metric.value
                if value:
                    snapshot[metric.name] = snapshot.get(metric.name, 0.0) + value
            self.observations.append(snapshot)
        self._instrumented.clear()


@dataclass
class RunReport:
    """One executed experiment: spec, result, and execution metadata."""

    spec: ExperimentSpec
    result: Any
    n_points: int
    jobs: int
    elapsed_s: float
    cache_stats: dict = field(default_factory=dict)
    observations: list = field(default_factory=list)
    #: Worm express-lane counters summed across every point (execution
    #: metadata — never part of the persisted result document).
    express: dict = field(default_factory=dict)
    #: Canonical span dumps (one JSON string per traced build), merged
    #: in point order — identical for serial and parallel runs.
    span_dumps: list = field(default_factory=list)
    saved_to: Optional[str] = None


# Module-level worker state, inherited by forked pool workers (shared
# synchronization primitives cannot be passed through Pool arguments).
_worker_cache: Optional[RouteCache] = None


def _measure_point(payload: tuple[ExperimentSpec, int, dict]
                   ) -> tuple[int, Any, list, dict, list]:
    """Evaluate one point (entry point for pool workers and the serial
    path alike, so both execute the exact same code)."""
    spec, index, point = payload
    exp = get_experiment(spec.experiment)
    ctx = PointContext(spec, cache=_worker_cache)
    value = exp.measure(spec, point, ctx)
    ctx.finalize_observations()
    return index, value, ctx.observations, ctx.express_summary(), ctx.span_dumps()


class Runner:
    """Executes :class:`ExperimentSpec`\\ s through the shared pipeline."""

    def __init__(self, cache: Optional[RouteCache] = None,
                 jobs: int = 1) -> None:
        self.cache = cache if cache is not None else default_route_cache()
        self.jobs = jobs

    # ------------------------------------------------------------------

    def run(
        self,
        spec: Union[str, ExperimentSpec],
        jobs: Optional[int] = None,
        save: Optional[str] = None,
        on_point: Optional[Callable[[int, Any], None]] = None,
    ) -> RunReport:
        """Run one experiment end to end.

        Parameters
        ----------
        spec:
            A spec, or a registered experiment name (its default spec).
        jobs:
            Process-pool width; ``1`` (default) runs serially.  Results
            are independent of this value.
        save:
            Optional path; the summarized result is persisted as a
            spec-keyed JSON document via
            :func:`repro.harness.persist.save_results`.
        on_point:
            Progress callback ``(index, value)``, invoked in point
            order (in the parent, after merge, when parallel).
        """
        if isinstance(spec, str):
            spec = get_experiment(spec).default_spec()
        exp = get_experiment(spec.experiment)
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")

        t0 = time.perf_counter()
        points = exp.points(spec)
        self._warm_routes(exp, spec)
        payloads = [(spec, i, p) for i, p in enumerate(points)]

        if jobs > 1 and len(points) > 1:
            outcomes = self._run_parallel(payloads, jobs)
        else:
            outcomes = [_measure_point_with(self.cache, p) for p in payloads]

        # Deterministic merge: results ordered by point index.
        outcomes.sort(key=lambda item: item[0])
        values = [value for _i, value, _obs, _ex, _sp in outcomes]
        observations = [obs for _i, _value, obs, _ex, _sp in outcomes]
        span_dumps = [d for _i, _v, _obs, _ex, dumps in outcomes
                      for d in dumps]
        express = {"hits": 0, "partial": 0, "fallbacks": 0,
                   "stepped_hops": 0}
        for _i, _value, _obs, ex, _sp in outcomes:
            for key, v in ex.items():
                express[key] = express.get(key, 0) + v
        if on_point is not None:
            for i, value in enumerate(values):
                on_point(i, value)

        result = exp.summarize(spec, values)
        report = RunReport(
            spec=spec,
            result=result,
            n_points=len(points),
            jobs=jobs,
            elapsed_s=time.perf_counter() - t0,
            cache_stats=self.cache.stats(),
            observations=observations,
            express=express,
            span_dumps=span_dumps,
        )
        if save:
            from repro.harness.persist import save_results

            path = save_results(save, {spec.experiment: result},
                                specs={spec.experiment: spec})
            report.saved_to = str(path)
        return report

    # ------------------------------------------------------------------

    def _warm_routes(self, exp: Experiment, spec: ExperimentSpec) -> None:
        for topo, routing, root in exp.route_requirements(spec):
            self.cache.warm(topo, routing, root=root)

    def _run_parallel(self, payloads: list, jobs: int) -> list:
        global _worker_cache
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platform
            return [_measure_point_with(self.cache, p) for p in payloads]
        _worker_cache = self.cache
        try:
            with mp.Pool(processes=min(jobs, len(payloads))) as pool:
                return pool.map(_measure_point, payloads)
        finally:
            _worker_cache = None


def _measure_point_with(cache: Optional[RouteCache],
                        payload: tuple) -> tuple[int, Any, list, dict, list]:
    """Serial-path helper: run ``_measure_point`` with a bound cache."""
    global _worker_cache
    _worker_cache = cache
    try:
        return _measure_point(payload)
    finally:
        _worker_cache = None


def run_experiment(
    spec: Union[str, ExperimentSpec],
    jobs: int = 1,
    cache: Optional[RouteCache] = None,
    save: Optional[str] = None,
) -> Any:
    """Convenience wrapper: run a spec, return just the result object."""
    runner = Runner(cache=cache)
    return runner.run(spec, jobs=jobs, save=save).result
