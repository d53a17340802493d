"""Outside-in instrumentation of the simulator's layers.

The benchmark never edits the program.  For the length of one measured
body it replaces public entry points of each layer (module functions
and class methods) with wrappers, and restores them afterwards.

Two kinds of wrapper exist:

* **Probes**, installed on every body, traced or not.  They cost one
  extra Python call per build or per measurement point.  They bracket
  each point, keep the point's simulators and NICs until it ends, and
  read the deterministic counters off them: calendar entries,
  re-injections, blocked receive time and ping-pong completion.
* **Timers**, installed only in the traced run.  A :class:`LayerClock`
  charges every wrapped call its *self* time (its duration minus what
  nested wrapped calls and engine dispatches were already charged), so
  no nanosecond is counted twice and the charges inside a body never
  exceed the body.  Each simulator gets a :class:`LayerProfiler`, the
  stock engine profiler reading the same clock, whose per-process
  dispatch times are bucketed into layers by process-name prefix.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.profiler import Profiler

__all__ = ["LayerClock", "LayerProfiler", "PointRecord", "Probe",
           "dispatch_layer"]

#: Firmware state machines of the MCP (process-name kinds).
FIRMWARE_KINDS = frozenset({
    "sdma", "send", "recv", "rdma", "hostdma", "itbfwd", "sendq", "recvq",
    "bufwait", "pool", "senddma", "sendtok", "senddone",
})
#: GM host library processes and the allsize ping-pong processes.
GM_KINDS = frozenset({"gmsend", "gmrecv", "pinger", "ponger"})


def dispatch_layer(kind: str) -> Optional[str]:
    """The layer a dispatched process kind belongs to.

    Kinds come from :meth:`Profiler.by_kind` (``send[host1]`` becomes
    ``send``; worms are named ``worm<id>`` or ``worm<id>-demoted``).
    ``engine`` is the profiler's bucket for dispatches that step no
    process.  Unknown kinds return ``None`` and show up in
    ``unattributed_s``.
    """
    if kind.startswith("worm"):
        return "network.worm"
    if kind in FIRMWARE_KINDS:
        return "mcp.firmware"
    if kind in GM_KINDS:
        return "gm.host"
    if kind == "inject":
        return "harness.inject"
    if kind == "engine":
        return "sim.engine"
    return None


class LayerClock:
    """Charges host wall time to layers as exclusive self time."""

    def __init__(self) -> None:
        self.charged_ns = 0
        self.ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    def now(self) -> int:
        """A clock that stands still while charged work runs.

        An interval read on it is the real interval minus everything
        charged inside it, which is exactly the enclosing call's self
        time.
        """
        return time.perf_counter_ns() - self.charged_ns

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call charges its self time to ``layer``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.now() - t0
                self.ns[layer] = self.ns.get(layer, 0) + dt
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.charged_ns += dt

        return wrapper


class LayerProfiler(Profiler):
    """The engine profiler on a :class:`LayerClock`.

    Dispatch times exclude wrapped calls made inside the dispatch (such
    as ``encode_packet``), and are themselves charged to the clock, so
    the enclosing ``Simulator.run`` keeps only the loop's own time.
    """

    def __init__(self, clock: LayerClock) -> None:
        super().__init__(clock=clock.now)
        self._layer_clock = clock

    def dispatch(self, callback: Callable[[], None]) -> None:
        before = self.wall_ns_total
        try:
            super().dispatch(callback)
        finally:
            self._layer_clock.charged_ns += int(self.wall_ns_total - before)


@dataclass
class PointRecord:
    """What the probes saw while one measurement point ran."""

    value: Any = None
    kwargs: dict = field(default_factory=dict)
    builds: list = field(default_factory=list)
    exchanges: int = 0
    incomplete_exchanges: int = 0


class _Patches:
    """Replace functions everywhere they are bound; undo on exit."""

    def __init__(self) -> None:
        self._functions: list[tuple[str, Any, Any]] = []
        self._methods: list[tuple[type, str, Any]] = []

    @staticmethod
    def _repro_modules() -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "repro"
                                      or name.startswith("repro."))]

    def function(self, module: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        orig = getattr(importlib.import_module(module), attr)
        wrapper = make(orig)
        for mod in self._repro_modules():
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, wrapper)
        self._functions.append((attr, orig, wrapper))

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        self._methods.append((cls, attr, orig))

    def restore(self) -> None:
        modules = self._repro_modules()
        for attr, orig, wrapper in reversed(self._functions):
            for mod in modules:
                if mod.__dict__.get(attr) is wrapper:
                    setattr(mod, attr, orig)
        for cls, attr, orig in reversed(self._methods):
            setattr(cls, attr, orig)
        self._functions.clear()
        self._methods.clear()


class Probe:
    """Probes (always) and layer timers (when ``clock`` is given).

    Use as a context manager around one measured body.  ``express``
    sets ``Fabric.express_enabled`` on every network built inside.
    """

    def __init__(self, clock: Optional[LayerClock] = None,
                 express: bool = True) -> None:
        self.clock = clock
        self.express = express
        self.points: list[PointRecord] = []
        self.profilers: list[LayerProfiler] = []
        self.calendar_entries = 0
        self.itb_reinjections = 0
        self.recv_blocked_ns = 0.0
        self._current: Optional[PointRecord] = None
        self._patches = _Patches()

    # -- probes ------------------------------------------------------------

    def _point(self, layer: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def point(*args: Any, **kwargs: Any) -> Any:
                record = PointRecord(kwargs={
                    k: v for k, v in kwargs.items()
                    if isinstance(v, (str, int, float))})
                self.points.append(record)
                self._current = record
                try:
                    record.value = fn(*args, **kwargs)
                    return record.value
                finally:
                    self._current = None
                    self._harvest(record)
            return self._timed(layer, point)
        return make

    def _harvest(self, record: PointRecord) -> None:
        for sim, nics in record.builds:
            self.calendar_entries += sim._seq
            for nic in nics:
                self.itb_reinjections += nic.stats.packets_forwarded
                self.recv_blocked_ns += nic.stats.recv_blocked_ns
        record.builds.clear()

    def _build(self, fn: Callable) -> Callable:
        def build(*args: Any, **kwargs: Any) -> Any:
            net = fn(*args, **kwargs)
            net.fabric.express_enabled = self.express
            if self.clock is not None:
                self.profilers.append(
                    LayerProfiler(self.clock).install(net.sim))
            if self._current is not None:
                self._current.builds.append((net.sim,
                                             list(net.nics.values())))
            return net
        return self._timed("core.build", build)

    def _ping_pong(self, fn: Callable) -> Callable:
        def ping_pong(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if self._current is not None:
                self._current.exchanges += result.iterations
                done = [s for s in result.half_rtt_ns if math.isfinite(s)]
                self._current.incomplete_exchanges += (
                    result.iterations - len(done))
            return result
        return ping_pong

    # -- timers ------------------------------------------------------------

    def _timed(self, layer: str, fn: Callable) -> Callable:
        return fn if self.clock is None else self.clock.timed(layer, fn)

    def _timer(self, layer: str) -> Callable[[Callable], Callable]:
        return lambda fn: self._timed(layer, fn)

    # -- install -----------------------------------------------------------

    def __enter__(self) -> "Probe":
        p = self._patches
        p.function("repro.core.builder", "build_network", self._build)
        p.function("repro.gm.allsize", "ping_pong", self._ping_pong)
        p.function("repro.harness.fig7", "measure_fig7_point",
                   self._point("harness.point"))
        p.function("repro.harness.fig8", "measure_fig8_point",
                   self._point("harness.point"))
        p.function("repro.harness.throughput", "measure_load_point",
                   self._point("harness.point"))
        p.function("repro.harness.scale_study", "measure_scale_point",
                   self._point("harness.score"))
        if self.clock is not None:
            self._install_timers(p)
        return self

    def _install_timers(self, p: _Patches) -> None:
        from repro.routing.cache import RouteCache
        from repro.routing.itb import ItbRouter
        from repro.routing.updown import UpDownRouter
        from repro.sim.engine import Simulator

        for name in ("run", "run_until_event", "run_window"):
            p.method(Simulator, name, self._timer("sim.loop"))
        p.function("repro.mcp.packet_format", "encode_packet",
                   self._timer("mcp.encode"))
        p.function("repro.gm.mapper", "run_mapper", self._timer("gm.mapper"))
        for cls in (UpDownRouter, ItbRouter):
            for name in ("all_pairs", "itb_all_pairs"):
                p.method(cls, name, self._timer("routing.allpairs"))
        for name in ("warm", "routes_for", "routes_from"):
            p.method(RouteCache, name, self._timer("routing.allpairs"))
        for name in ("fig6_testbed", "random_irregular",
                     "random_irregular_scaled"):
            p.function("repro.topology.generators", name,
                       self._timer("topology.build"))
        p.function("repro.routing.spanning_tree", "build_orientation",
                   self._timer("topology.build"))
        p.function("repro.harness.persist", "save_results",
                   self._timer("exp.persist"))

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()
        for profiler in self.profilers:
            profiler.uninstall()

    # -- results -----------------------------------------------------------

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer: wrapped calls plus bucketed dispatches."""
        ns: dict[str, float] = dict(self.clock.ns)
        for profiler in self.profilers:
            for kind, entry in profiler.by_kind().items():
                layer = dispatch_layer(kind)
                if layer is not None:
                    ns[layer] = ns.get(layer, 0) + entry["wall_ns"]
        return {layer: v / 1e9 for layer, v in ns.items()}
