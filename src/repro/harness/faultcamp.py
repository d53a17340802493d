"""EXP-FC: the fault campaign — GM reliability under injected faults.

The paper's Section 3 premise is that GM provides "reliable and
ordered packet delivery in presence of network faults"; the in-transit
buffer mechanism must not break that.  This harness measures it: a
bidirectional staggered message workload on the Figure 6 testbed runs
under a grid of probabilistic packet-fault rates crossed with dynamic
fault schedules (cables dying, the in-transit host going down), and
the campaign reports what the reliability layer did about it —
retransmissions, timeouts, route remaps, and whether every message was
either delivered or failed gracefully with ``GmSendError``.

Every point is deterministic: packet fates are keyed by
``(seed, packet id)`` (see :mod:`repro.network.faults`), host noise is
seeded, and the schedule is fixed simulated times — so a campaign run
is byte-reproducible and diffable as a golden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.builder import BuiltNetwork, build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.gm.host import GM_MTU, GmSendError
from repro.network.faults import FaultEvent, FaultPlan, install_fault_plan
from repro.sim.engine import Event, Timeout

__all__ = [
    "SCHEDULES",
    "FaultCampaignResult",
    "FaultCampaignRow",
    "measure_fault_point",
]

#: Named dynamic-fault schedules (JSON-able event specs; ``target``
#: and ``between`` entries name fig6 roles, resolved at build time).
SCHEDULES: dict[str, tuple] = {
    # Probabilistic faults only.
    "none": (),
    # The in-transit host dies mid-run and comes back; later one of
    # the parallel inter-switch cables dies and is re-cabled.  Both
    # faults cut in-flight worms and trigger a route remap.
    "campaign": (
        {"kind": "host-down", "target": "itb",
         "at_ns": 150_000.0, "repair_ns": 400_000.0},
        {"kind": "link-down", "between": ["sw1", "sw2"],
         "at_ns": 800_000.0, "repair_ns": 300_000.0},
    ),
    # Switch 1 loses its crossbar state and recovers.
    "switch-reset": (
        {"kind": "switch-reset", "target": "sw1",
         "at_ns": 300_000.0, "repair_ns": 200_000.0},
    ),
}


@dataclass
class FaultCampaignRow:
    """One campaign grid cell: fault configuration and what happened."""

    loss: float
    corrupt: float
    schedule: str
    messages: int           # messages attempted (both directions)
    delivered: int          # received in order by the application
    completed: int          # send-completion events that succeeded
    failed: int             # send-completion events failed (GmSendError)
    retransmissions: int
    timeouts: int
    nacks: int
    packets_lost: int
    packets_corrupted: int
    killed_in_flight: int
    faults_injected: int
    repairs: int
    remap_events: int

    @property
    def accounted(self) -> bool:
        """Every accepted message either completed or failed cleanly."""
        return self.completed + self.failed == self.messages

    @property
    def lost_messages(self) -> int:
        """Messages neither delivered nor failed — must be zero."""
        return self.messages - self.completed - self.failed


@dataclass
class FaultCampaignResult:
    rows: list[FaultCampaignRow] = field(default_factory=list)
    n_messages: int = 0
    message_size: int = 0

    @property
    def all_accounted(self) -> bool:
        """The headline claim: no message is ever silently lost."""
        return all(row.accounted for row in self.rows)

    @property
    def total_retransmissions(self) -> int:
        return sum(row.retransmissions for row in self.rows)


def _resolve_events(net: BuiltNetwork, schedule: tuple) -> tuple:
    """Resolve JSON-able event specs into :class:`FaultEvent`\\ s."""
    events = []
    for ev in schedule:
        target = ev.get("target")
        if isinstance(target, str):
            target = net.roles[target]
        if "between" in ev:
            a, b = (net.roles[x] if isinstance(x, str) else x
                    for x in ev["between"])
            for link in net.topo.links:
                if {link.node_a, link.node_b} == {a, b}:
                    target = link.link_id
                    break
            else:
                raise ValueError(f"no cable between {ev['between']}")
        events.append(FaultEvent(
            kind=ev["kind"], target=target, at_ns=float(ev["at_ns"]),
            repair_ns=ev.get("repair_ns"),
        ))
    return tuple(events)


def measure_fault_point(
    loss: float,
    corrupt: float,
    schedule: str,
    n_messages: int,
    message_size: int,
    seed: int,
    timings: Optional[Timings] = None,
    gap_ns: float = 30_000.0,
    horizon_ns: float = 50_000_000.0,
    build: Callable = build_network,
) -> FaultCampaignRow:
    """Run one campaign grid cell and account for every message.

    ``n_messages`` staggered sends (one every ``gap_ns``) run in each
    direction between hosts 1 and 2 while the named ``schedule``'s
    dynamic faults strike; the run ends at ``horizon_ns``, long after
    quiesce.  If a send is still unresolved then, the run goes on until
    the last one resolves, but no further than GM's failure bound
    (:meth:`~repro.gm.host.GmHost.failure_bound_ns`) past the later of
    the last send and the last fault (its repair, when it has one); a
    send unresolved at that deadline is a genuine breach.  Returns the
    row of reliability counters.
    """
    config = NetworkConfig(firmware="itb", routing="itb", reliable=True,
                           seed=seed)
    if timings is not None:
        config.timings = timings
    net = build("fig6", config=config)
    plan = FaultPlan(
        loss_probability=loss, corrupt_probability=corrupt, seed=seed,
        events=_resolve_events(net, SCHEDULES[schedule]),
    )
    install_fault_plan(net, plan)
    sim = net.sim
    a, b = net.gm("host1"), net.gm("host2")
    delivered = {"n": 0}
    completed = {"n": 0}
    failed = {"n": 0}
    # Set only when the run is extended past the horizon, so the
    # horizon run itself schedules exactly what it always did.
    all_resolved: Optional[Event] = None

    def receiver(gm):
        while True:
            yield gm.receive()
            delivered["n"] += 1

    def waiter(done):
        try:
            yield done
            completed["n"] += 1
        except GmSendError:
            failed["n"] += 1
        if (all_resolved is not None and not all_resolved.triggered
                and completed["n"] + failed["n"] == 2 * n_messages):
            all_resolved.succeed()

    def sender(gm, dst):
        for i in range(n_messages):
            sim.process(waiter(gm.send(dst, message_size, tag=i)),
                        name="fc-wait")
            yield Timeout(gap_ns)

    sim.process(receiver(a), name="fc-rx-a")
    sim.process(receiver(b), name="fc-rx-b")
    sim.process(sender(a, b.host), name="fc-tx-a")
    sim.process(sender(b, a.host), name="fc-tx-b")
    sim.run(until=horizon_ns)
    if completed["n"] + failed["n"] < 2 * n_messages:
        last_fault = max((ev.at_ns + (ev.repair_ns or 0.0)
                          for ev in plan.events), default=0.0)
        last_send = (n_messages - 1) * gap_ns
        packets = n_messages * max(1, -(-message_size // GM_MTU))
        deadline = max(last_fault, last_send) + max(
            gm.failure_bound_ns(packets) for gm in (a, b))
        if deadline > sim.now:
            all_resolved = Event(sim, name="fc-all-resolved")

            def give_up():
                if not all_resolved.triggered:
                    all_resolved.succeed()

            sim.schedule_at(deadline, give_up)
            sim.run_until_event(all_resolved)
    return FaultCampaignRow(
        loss=loss, corrupt=corrupt, schedule=schedule,
        messages=2 * n_messages,
        delivered=delivered["n"],
        completed=completed["n"],
        failed=failed["n"],
        retransmissions=a.retransmissions + b.retransmissions,
        timeouts=a.timeouts + b.timeouts,
        nacks=a.nacks_sent + b.nacks_sent,
        packets_lost=plan.lost,
        packets_corrupted=plan.corrupted,
        killed_in_flight=plan.killed_in_flight,
        faults_injected=plan.faults_injected,
        repairs=plan.repairs,
        remap_events=plan.remap_events,
    )
