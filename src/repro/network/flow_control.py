"""Byte-level Stop&Go flow control: the reference model.

The main simulator models a wormhole packet at *packet granularity*:
a blocked worm holds every channel between its tail and head, and the
body streams behind the head with no per-byte bookkeeping.  That is an
approximation of Myrinet's real mechanism — **Stop&Go**: each receiver
maintains a small slack buffer; when its occupancy crosses the STOP
threshold it sends a STOP control symbol upstream, and a GO symbol
when it drains below the GO threshold.  The slack absorbs the
round-trip of those symbols, so the sender never overruns the buffer
and no byte is lost.

This module implements the byte-level mechanism for a single channel
(sender -> receiver over a cable with propagation delay), which lets
tests *quantify* the approximation:

* an unblocked transfer finishes in exactly ``bytes x byte_time``
  (identical to the packet-granularity model), and
* when the receiver stalls mid-packet, the sender keeps transmitting
  only for the slack's worth of bytes and then stops — the extra
  "progress" a blocked packet makes versus the whole-path-holding
  approximation is bounded by the slack size (tens of bytes on real
  Myrinet, i.e. well under one packet).

Burst advancement
-----------------
Earlier revisions drove the byte dynamics with two generator processes
waking every byte time on the main event calendar — two engine
dispatches per simulated byte, and an idle (blocked) channel still
burned calendar slots polling.  The model now advances *virtually*:
the per-byte dynamics run on a private micro-calendar
(:class:`_Micro`) that is replayed lazily up to each observation point
(a ``stats`` read, ``block_receiver`` / ``unblock_receiver``), and
long uniform stretches — steady flow, or a fully stalled sender — are
skipped in one closed-form step when a whole byte-time cycle repeats
exactly (guarded by a dyadic float-exactness check, so skipped cycles
produce bit-identical times to stepping them).  The only thing ever
placed on the real calendar is the single projected completion
callback; an idle channel schedules *nothing*.

The micro-calendar replicates the retired generator model event for
event — same wake grid, same (time, seq) FIFO tie-breaking, same
scheduling order within an instant — so every
:class:`StopGoStats` field, including ``sender_stalled_ns`` and
``max_slack_occupancy``, is bit-identical to the per-byte
implementation (``tests/test_stopgo_equivalence.py`` checks this
against a preserved copy of the generator model).

The Myrinet slack-buffer sizing rule also lives here
(:func:`required_slack_bytes`): the buffer must cover the bytes in
flight during one control-symbol round trip.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from repro.sim.engine import Event, Simulator

__all__ = ["StopGoChannel", "StopGoStats", "required_slack_bytes"]


def required_slack_bytes(
    prop_ns: float, byte_ns: float, hysteresis_bytes: int = 8
) -> int:
    """Minimum slack so Stop&Go never overruns or starves.

    One round trip of control symbols (2 x propagation) of in-flight
    bytes, plus the stop/go hysteresis band.
    """
    in_flight = int(2.0 * prop_ns / byte_ns) + 1
    return in_flight + hysteresis_bytes


@dataclass
class StopGoStats:
    """Counters for one byte-level transfer."""

    bytes_sent: int = 0
    bytes_delivered: int = 0
    stops_sent: int = 0
    gos_sent: int = 0
    sender_stalled_ns: float = 0.0
    max_slack_occupancy: int = 0


# Micro-calendar event kinds.  The integer values never enter the heap
# ordering (the key is ``(time, seq)``); they only select a handler.
_SENDER = 0
_RECEIVER = 1
_ARRIVE = 2
_SET_STOP = 3
_SET_GO = 4

#: Minimum number of repeating cycles worth skipping in one jump.
_MIN_JUMP = 4

_STATS_UNCHANGED = (0, 0, 0, 0, 0, 0.0)
_STATS_ONE_BYTE = (1, 1, 0, 0, 0, 0.0)


def _shifted_times(times: list[float], step: float, m: int) -> Optional[list[float]]:
    """``t + m*step`` for each ``t`` — only if provably equal to ``m``
    repeated float additions of ``step``.

    All floats are dyadic rationals; a sum on the common dyadic grid is
    exact whenever the result's numerator fits in 53 bits, and then
    every intermediate partial sum (which is smaller) is exact too.
    Returns ``None`` when exactness cannot be guaranteed — the caller
    falls back to stepping cycle by cycle.
    """
    fstep = Fraction(step)
    out: list[float] = []
    for t in times:
        ft = Fraction(t)
        target = ft + m * fstep
        scale = max(ft.denominator, fstep.denominator)  # both powers of two
        if target * scale >= (1 << 53):
            return None
        out.append(float(target))
    return out


class _Micro:
    """Virtual replay of the per-byte Stop&Go dynamics.

    Replicates the retired generator model exactly: sender and
    receiver wake every ``byte_ns`` on a shared grid; a sent byte
    lands in the slack buffer one propagation later; STOP/GO symbols
    take effect one propagation after being emitted.  Events live on a
    private ``(time, seq)`` heap with the engine's FIFO tie-break, and
    handlers schedule in the same order the generator bodies did, so
    the interleaving — and therefore every stats field — is
    bit-identical.
    """

    __slots__ = (
        "byte_ns", "prop_ns", "slack", "stop_thr", "go_thr", "n_target",
        "heap", "seq", "now", "occ", "stopped", "blocked", "stall_started",
        "sent_pending", "drain_pending", "sender_alive", "receiver_alive",
        "complete_time", "frozen", "stats", "prev_cycle",
    )

    def __init__(
        self,
        start: float,
        byte_ns: float,
        prop_ns: float,
        slack: int,
        stop_thr: int,
        go_thr: int,
        n_target: int,
        occ: int,
        stopped: bool,
        blocked: bool,
        stats: StopGoStats,
    ) -> None:
        self.byte_ns = byte_ns
        self.prop_ns = prop_ns
        self.slack = slack
        self.stop_thr = stop_thr
        self.go_thr = go_thr
        self.n_target = n_target
        self.heap: list[tuple[float, int, int]] = []
        self.seq = 0
        self.now = start
        self.occ = occ
        self.stopped = stopped
        self.blocked = blocked
        self.stall_started: Optional[float] = None
        self.sent_pending = False
        self.drain_pending = False
        self.sender_alive = True
        self.receiver_alive = True
        self.complete_time: Optional[float] = None
        self.frozen: Optional[tuple[float, str]] = None
        self.stats = stats
        self.prev_cycle: Optional[tuple[float, tuple, tuple]] = None
        # Same start order as the old ``sim.process`` pair: sender
        # first, receiver second, both at the transfer instant.
        self._schedule(0.0, _SENDER)
        self._schedule(0.0, _RECEIVER)

    # -- plumbing -------------------------------------------------------

    def _schedule(self, delay: float, kind: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, kind))

    def clone(self) -> "_Micro":
        twin = _Micro.__new__(_Micro)
        for name in _Micro.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.heap = list(self.heap)
        twin.stats = replace(self.stats)
        return twin

    def _stats_tuple(self) -> tuple:
        s = self.stats
        return (s.bytes_sent, s.bytes_delivered, s.stops_sent, s.gos_sent,
                s.max_slack_occupancy, s.sender_stalled_ns)

    # -- event handlers (transliterated generator bodies) ---------------

    def _dispatch(self, kind: int) -> None:
        if kind == _ARRIVE:
            self._on_arrive()
        elif kind == _SENDER:
            self._sender_wake()
        elif kind == _RECEIVER:
            self._receiver_wake()
        elif kind == _SET_STOP:
            self.stopped = True
        else:
            self.stopped = False

    def _sender_wake(self) -> None:
        st = self.stats
        if self.sent_pending:
            self.sent_pending = False
            st.bytes_sent += 1
            # The byte lands in the slack buffer one propagation later.
            self._schedule(self.prop_ns, _ARRIVE)
        if st.bytes_sent >= self.n_target:
            self.sender_alive = False
            return
        if self.stopped:
            if self.stall_started is None:
                self.stall_started = self.now
        else:
            if self.stall_started is not None:
                st.sender_stalled_ns += self.now - self.stall_started
                self.stall_started = None
            self.sent_pending = True
        self._schedule(self.byte_ns, _SENDER)

    def _on_arrive(self) -> None:
        self.occ += 1
        st = self.stats
        if self.occ > st.max_slack_occupancy:
            st.max_slack_occupancy = self.occ
        if self.occ > self.slack:
            self.frozen = (self.now, (
                "slack overrun: Stop&Go failed to protect the buffer"
                f" (occupancy {self.occ} > {self.slack})"
            ))
            return
        if self.occ >= self.stop_thr and not self.stopped:
            # STOP symbol travels upstream one propagation delay.
            st.stops_sent += 1
            self._schedule(self.prop_ns, _SET_STOP)

    def _receiver_wake(self) -> None:
        st = self.stats
        if self.drain_pending:
            self.drain_pending = False
            if not (self.blocked or self.occ == 0):
                self.occ -= 1
                st.bytes_delivered += 1
                if self.stopped and self.occ <= self.go_thr:
                    st.gos_sent += 1
                    self._schedule(self.prop_ns, _SET_GO)
        if st.bytes_delivered >= self.n_target:
            self.receiver_alive = False
            self.complete_time = self.now
            return
        if not (self.blocked or self.occ == 0):
            self.drain_pending = True
        self._schedule(self.byte_ns, _RECEIVER)

    # -- the drive loop -------------------------------------------------

    def advance(self, target: Optional[float]) -> Optional[str]:
        """Replay dynamics up to ``target`` (strictly before it), or to
        quiescence when ``target`` is ``None``.

        Returns ``"complete"``, ``"overrun"``, ``"stalled"`` (can never
        finish without outside intervention), or ``None`` (ran into
        ``target`` with work remaining).
        """
        heap = self.heap
        while self.receiver_alive and self.frozen is None:
            if not heap:  # pragma: no cover - receiver always reschedules
                return "stalled"
            t, _seq, kind = heap[0]
            if target is not None and t >= target:
                return None
            if kind == (_SENDER if self.sender_alive else _RECEIVER):
                action = self._maybe_jump(t, target)
                if action == "stalled":
                    return "stalled"
                if action == "jumped":
                    continue
            heapq.heappop(heap)
            self.now = t
            self._dispatch(kind)
        if self.frozen is not None:
            return "overrun"
        return "complete"

    def _maybe_jump(self, anchor: float, target: Optional[float]) -> Optional[str]:
        """Detect a repeating one-byte-time cycle at an anchor wake and
        skip ahead in closed form.

        A cycle repeats when the heap (as relative offsets from the
        anchor, in dispatch order) and all scalar state match the
        previous anchor exactly and the stats moved by either one
        sent+delivered byte (steady flow) or nothing (stalled/idle).
        """
        sig = self._signature(anchor)
        stats_now = self._stats_tuple()
        prev, self.prev_cycle = self.prev_cycle, (anchor, sig, stats_now)
        if prev is None:
            return None
        prev_anchor, prev_sig, prev_stats = prev
        if prev_anchor + self.byte_ns != anchor or prev_sig != sig:
            return None
        delta = tuple(a - b for a, b in zip(stats_now, prev_stats))
        if delta == _STATS_ONE_BYTE:
            flowing = True
        elif delta == _STATS_UNCHANGED:
            flowing = False
        else:
            return None
        if not flowing and target is None:
            # Nothing in flight, nothing changing: without an external
            # unblock this state persists forever.
            return "stalled"
        # How many whole cycles may be skipped.
        fb = Fraction(self.byte_ns)
        bounds = []
        if target is not None:
            bounds.append(int((Fraction(target) - Fraction(anchor)) // fb))
        if flowing:
            st = self.stats
            bounds.append(self.n_target - 1 - st.bytes_sent)
            bounds.append(self.n_target - 1 - st.bytes_delivered)
        m = min(bounds)
        if m < _MIN_JUMP:
            return None
        times = [entry[0] for entry in self.heap]
        shifted = _shifted_times(times, self.byte_ns, m)
        if shifted is None:
            return None
        self.heap[:] = [
            (new_t, seq, kind)
            for new_t, (_t, seq, kind) in zip(shifted, self.heap)
        ]
        # A uniform exact shift preserves (time, seq) order, so the
        # list is still a valid heap.
        if flowing:
            self.stats.bytes_sent += m
            self.stats.bytes_delivered += m
        self.prev_cycle = None
        return "jumped"

    def _signature(self, anchor: float) -> tuple:
        rel = tuple((t - anchor, kind) for t, _seq, kind in sorted(self.heap))
        return (rel, self.occ, self.stopped, self.blocked,
                self.sent_pending, self.drain_pending,
                self.sender_alive, self.stall_started)


class StopGoChannel:
    """One directed cable with byte-level Stop&Go flow control.

    The receiver drains the slack buffer at one byte per byte time
    while unblocked; calling :meth:`block_receiver` /
    :meth:`unblock_receiver` models downstream wormhole blocking.

    The byte dynamics are replayed lazily on a private micro-calendar
    (see the module docstring): observable state — :attr:`stats`,
    :attr:`slack_occupancy` — is synchronized to the simulation clock
    on access, and the only real calendar entry is the projected
    completion callback.  Synchronization processes micro-events
    *strictly before* the current instant, matching the engine order
    for control callbacks scheduled ahead of time (their ``seq``
    precedes any same-time channel event).
    """

    def __init__(
        self,
        sim: Simulator,
        prop_ns: float,
        byte_ns: float,
        slack_bytes: Optional[int] = None,
        stop_threshold: Optional[int] = None,
        go_threshold: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.prop_ns = prop_ns
        self.byte_ns = byte_ns
        self.slack_bytes = slack_bytes if slack_bytes is not None else \
            required_slack_bytes(prop_ns, byte_ns)
        self.stop_threshold = (stop_threshold if stop_threshold is not None
                               else max(1, self.slack_bytes // 2))
        self.go_threshold = (go_threshold if go_threshold is not None
                             else max(0, self.stop_threshold // 2))
        if not (0 <= self.go_threshold < self.stop_threshold
                <= self.slack_bytes):
            raise ValueError("need 0 <= go < stop <= slack")
        self._stats = StopGoStats()
        self._blocked = False
        self._stopped = False
        self._micro: Optional[_Micro] = None
        self._done: Optional[Event] = None
        self._generation = 0

    # -- receiver-side control ------------------------------------------

    def block_receiver(self) -> None:
        """Model downstream wormhole blocking: stop draining."""
        self._sync()
        self._blocked = True
        if self._micro is not None:
            self._micro.blocked = True
        self._reproject()

    def unblock_receiver(self) -> None:
        """Downstream unblocked: resume draining the slack buffer."""
        self._sync()
        self._blocked = False
        if self._micro is not None:
            self._micro.blocked = False
        self._reproject()

    @property
    def stats(self) -> StopGoStats:
        """Transfer counters, synchronized to the current sim time."""
        self._sync()
        return self._stats

    @property
    def slack_occupancy(self) -> int:
        self._sync()
        if self._micro is not None:
            return self._micro.occ
        return 0

    # -- the transfer ------------------------------------------------------

    def transfer(self, n_bytes: int) -> Event:
        """Send ``n_bytes``; the event fires when the last byte has
        been *delivered* (drained past the slack buffer)."""
        if self._done is not None:
            raise RuntimeError("one transfer at a time on this channel")
        self._sync()
        occ = self._micro.occ if self._micro is not None else 0
        stopped = self._micro.stopped if self._micro is not None else False
        self._done = Event(self.sim, name="stopgo-done")
        self._micro = _Micro(
            start=self.sim.now,
            byte_ns=self.byte_ns,
            prop_ns=self.prop_ns,
            slack=self.slack_bytes,
            stop_thr=self.stop_threshold,
            go_thr=self.go_threshold,
            n_target=n_bytes,
            occ=occ,
            stopped=stopped,
            blocked=self._blocked,
            stats=self._stats,
        )
        self._reproject()
        return self._done

    # -- internal synchronization ---------------------------------------

    def _sync(self) -> None:
        if self._micro is not None:
            self._micro.advance(self.sim.now)

    def _reproject(self) -> None:
        """Recompute when (whether) the active transfer finishes and
        schedule exactly one real-calendar callback for it."""
        self._generation += 1
        if self._done is None or self._micro is None:
            return
        probe = self._micro.clone()
        outcome = probe.advance(None)
        gen = self._generation
        if outcome == "complete":
            delay = probe.complete_time - self.sim.now
            self.sim.schedule(delay, lambda: self._on_complete(gen))
        elif outcome == "overrun":
            when, message = probe.frozen
            self.sim.schedule(when - self.sim.now,
                              lambda: self._on_overrun(gen, message))
        # "stalled": no callback — an idle channel schedules nothing.

    def _on_complete(self, gen: int) -> None:
        if gen != self._generation or self._done is None:
            return
        self._micro.advance(None)
        done, self._done = self._done, None
        if not done.triggered:
            done.succeed(self._stats)

    def _on_overrun(self, gen: int, message: str) -> None:
        if gen != self._generation:
            return
        self._micro.advance(None)
        raise RuntimeError(message)
