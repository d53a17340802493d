"""Pluggable, congestion-aware in-transit host selection.

The paper computes ITB placements once at route-build time with the
static lowest-id policy, but its own Figure 8 buffer-occupancy data
shows in-transit hosts become hotspots under load.  This module closes
that loop: a :class:`Selector` chooses among the candidate in-transit
hosts of a violation switch (the hosts ``topo.hosts_on(switch)``
enumerates — exactly the candidates :mod:`repro.routing.itb` already
legalizes against), optionally *fed by a read-only congestion view*
over live buffer occupancy.

Selectors are plain :data:`~repro.routing.itb.HostPolicy` callables, so
they plug straight into :class:`~repro.routing.itb.ItbRouter` — the
selection seam is the router's existing pluggable policy, not a new
code path.  The congestion view is duck-typed (anything with a
``host_load(host) -> float`` method), mirroring how the engine treats
``fabric.tracer``: routing never imports the observability package;
:func:`repro.obs.attach.attach_congestion_view` builds a live view over
the registry's occupancy gauges and hands it in.

**The zero-load oracle contract.**  Every policy degrades to the static
lowest-id choice when its congestion signal is all-zero (no view
attached, or every candidate idle).  Adaptive selection only *engages*
on a live signal — which is what makes the static placement the
provable baseline: at occupancy 0 all five policies pick byte-identical
routes, and the equivalence tier in ``tests/test_adaptive_itb.py``
asserts exactly that.

**Determinism across fork-pool workers.**  Stateless policies decide
from global identifiers only; the ``random`` policy draws from a
globally-keyed RNG stream ``SeedSequence(entropy=seed, spawn_key=
(switch, src, dst, epoch))`` — a fresh generator per decision, seeded
from the decision's own key rather than drawn from a shared stream —
so the decision for a pair is a pure function of the key, independent
of worker count, call order, or which pairs were selected before it.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from repro.routing.routes import RouteError
from repro.topology.graph import Topology

__all__ = [
    "CongestionView",
    "EwmaSelector",
    "LeastLoadedSelector",
    "MapCongestionView",
    "RandomSelector",
    "RoundRobinSelector",
    "SELECTOR_NAMES",
    "Selector",
    "StaticSelector",
    "make_selector",
]


class CongestionView(Protocol):
    """Read-only load signal a selector consults (duck-typed).

    Implementations report the instantaneous congestion of one host's
    receive/ITB buffers as a non-negative float (0.0 = idle).  The
    live implementation reads the obs registry's
    ``nic_recv_buffer_occupancy_bytes`` gauges
    (:func:`repro.obs.attach.attach_congestion_view`); tests use the
    dict-backed :class:`MapCongestionView`.
    """

    def host_load(self, host: int) -> float:
        """Current congestion at ``host`` (0.0 means idle)."""
        ...  # pragma: no cover - protocol


class MapCongestionView:
    """Dict-backed :class:`CongestionView` for tests and simulations.

    Hosts without an explicit entry read 0.0, so a fresh view is the
    zero-load oracle condition by construction.
    """

    def __init__(self, loads: Optional[dict[int, float]] = None) -> None:
        self.loads: dict[int, float] = dict(loads or {})

    def host_load(self, host: int) -> float:
        """Current congestion at ``host`` (0.0 when never set)."""
        return float(self.loads.get(host, 0.0))

    def set_load(self, host: int, load: float) -> None:
        """Set one host's load (negative values are clamped to 0)."""
        self.loads[host] = max(0.0, float(load))


class Selector:
    """Base class: choose an in-transit host among a switch's candidates.

    A selector *is* a :data:`~repro.routing.itb.HostPolicy` — calling
    it with ``(topo, switch, src, dst)`` returns the chosen host — so
    it plugs into :class:`~repro.routing.itb.ItbRouter` unchanged.

    Attributes
    ----------
    view:
        Optional :class:`CongestionView`; ``None`` (or an all-zero
        view) makes every policy behave exactly like ``static``.
    epoch:
        Reselection round counter, bumped by :meth:`begin_epoch` each
        time the mapper re-runs selection.  Policies that vary over
        rounds (``random``, ``roundrobin``) key their decision on it,
        keeping each round deterministic yet distinct.
    decisions / engaged:
        Total choices made, and choices where a live signal diverted
        the pick from the static candidate (telemetry, read by the
        ``itb_reselect_*`` counters).
    """

    name = "base"

    def __init__(self, view: Optional[CongestionView] = None) -> None:
        self.view = view
        self.epoch = 0
        self.decisions = 0
        self.engaged = 0

    def begin_epoch(self) -> int:
        """Start a new reselection round; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    # -- policy hooks ------------------------------------------------------

    def choose(
        self,
        topo: Topology,
        switch: int,
        src: int,
        dst: int,
        candidates: Sequence[int],
        loads: Sequence[float],
    ) -> int:
        """Pick one of ``candidates`` given their (nonzero) loads.

        Only called when at least one candidate reports load; the
        zero-signal case short-circuits to the static choice in
        :meth:`__call__`.
        """
        raise NotImplementedError

    def __call__(self, topo: Topology, switch: int, src: int, dst: int) -> int:
        """The :data:`~repro.routing.itb.HostPolicy` entry point."""
        candidates = topo.hosts_on(switch)
        if not candidates:
            raise RouteError(
                f"switch {switch} has no attached host for an ITB")
        self.decisions += 1
        if self.view is None or len(candidates) == 1:
            return candidates[0]
        loads = [self.view.host_load(h) for h in candidates]
        if not any(loads):
            # Zero-load oracle contract: no signal, static choice.
            return candidates[0]
        chosen = self.choose(topo, switch, src, dst, candidates, loads)
        if chosen not in candidates:
            raise RouteError(
                f"selector {self.name!r} chose host {chosen}, not a"
                f" candidate of switch {switch} ({candidates})")
        if chosen != candidates[0]:
            self.engaged += 1
        return chosen


class StaticSelector(Selector):
    """The paper's placement: lowest-id host, load ignored."""

    name = "static"

    def choose(self, topo, switch, src, dst, candidates, loads):
        """Always the lowest-id candidate."""
        return candidates[0]


class LeastLoadedSelector(Selector):
    """Pick the candidate with the lowest instantaneous load.

    Ties break toward the lowest host id, so an all-equal signal still
    reproduces the static split.
    """

    name = "least-loaded"

    def choose(self, topo, switch, src, dst, candidates, loads):
        """The (load, host-id)-minimal candidate."""
        return min(zip(loads, candidates))[1]


class EwmaSelector(Selector):
    """Least-loaded over an exponentially weighted moving average.

    Each decision folds the candidates' instantaneous loads into
    per-host EWMA state (``ewma = alpha * load + (1 - alpha) * ewma``),
    then picks the EWMA-minimal candidate — the metric-window policy:
    a brief occupancy spike cannot flap the placement the way it can
    under ``least-loaded``.
    """

    name = "ewma"

    def __init__(self, view: Optional[CongestionView] = None,
                 alpha: float = 0.3) -> None:
        super().__init__(view)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._ewma: dict[int, float] = {}

    def choose(self, topo, switch, src, dst, candidates, loads):
        """The candidate with the smallest smoothed load."""
        a = self.alpha
        smoothed = []
        for host, load in zip(candidates, loads):
            prev = self._ewma.get(host, 0.0)
            value = a * load + (1.0 - a) * prev
            self._ewma[host] = value
            smoothed.append(value)
        return min(zip(smoothed, candidates))[1]


class RandomSelector(Selector):
    """Seeded random spread once congestion appears.

    The draw is a globally-keyed RNG stream —
    ``SeedSequence(entropy=seed, spawn_key=(switch, src, dst, epoch))``
    — so the decision for a pair is a pure function of the key:
    identical across fork-pool workers and independent of how many
    other pairs were selected first (no generator state is carried
    from one decision to the next).
    """

    name = "random"

    def __init__(self, view: Optional[CongestionView] = None,
                 seed: int = 2001) -> None:
        super().__init__(view)
        self.seed = seed

    def choose(self, topo, switch, src, dst, candidates, loads):
        """A seeded draw keyed by (seed, switch, src, dst, epoch)."""
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(switch, src, dst, self.epoch)))
        return candidates[int(rng.integers(len(candidates)))]


class RoundRobinSelector(Selector):
    """Stateless rotation of in-transit duty once congestion appears.

    Unlike the legacy stateful
    :class:`~repro.routing.itb.round_robin_policy` (whose counter
    depends on call order and therefore on worker scheduling), the
    rotation index here is ``(src + dst + epoch) % len(candidates)`` —
    a pure function of global identifiers, so different pairs spread
    over the switch's hosts, every epoch advances the rotation, and
    all fork-pool workers agree on every decision.
    """

    name = "roundrobin"

    def choose(self, topo, switch, src, dst, candidates, loads):
        """Globally-keyed rotation over the candidates."""
        return candidates[(src + dst + self.epoch) % len(candidates)]


#: Registered policy names, in documentation order.
SELECTOR_NAMES = ("static", "random", "roundrobin", "least-loaded", "ewma")

_SELECTORS = {
    "static": StaticSelector,
    "random": RandomSelector,
    "roundrobin": RoundRobinSelector,
    "least-loaded": LeastLoadedSelector,
    "ewma": EwmaSelector,
}


def make_selector(
    name: str,
    view: Optional[CongestionView] = None,
    seed: int = 2001,
    alpha: float = 0.3,
) -> Selector:
    """Build a selector by policy name.

    ``seed`` keys the ``random`` policy's RNG streams; ``alpha`` is the
    ``ewma`` smoothing factor; both are ignored by the other policies.
    """
    cls = _SELECTORS.get(name)
    if cls is None:
        raise RouteError(
            f"unknown selector {name!r}; known: {', '.join(SELECTOR_NAMES)}")
    if cls is RandomSelector:
        return cls(view, seed=seed)
    if cls is EwmaSelector:
        return cls(view, alpha=alpha)
    return cls(view)
