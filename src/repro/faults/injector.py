"""Seeded fault injection at the network boundary.

The :class:`FaultInjector` is a send policy: attaching installs it in
the ``faults`` slot of *one machine's* fabric, where ``Network.send``
hands it every packet before injecting. It perturbs eligible packets
according to a :class:`FaultPlan`, and the fabric's send probes (and
so any tracer or sampler) see only what it really injects:

* **drop** — the packet vanishes at injection; nothing is delivered.
* **duplicate** — the packet is delivered normally *and* a clone is
  injected again a few cycles later.
* **delay** — injection is postponed by a drawn number of cycles.
* **reorder** — a short hold-back that lets later packets overtake.
* **outage** — every eligible packet routed across a dead link during
  its window is dropped (no randomness).
* **stall** — a node's processor spins with interrupts masked for an
  interval, so message handling backs up behind it.

All randomness comes from one ``random.Random(plan.seed)`` stream
drawn in simulator order, so identical plans reproduce identical
fault schedules. Every injected fault is logged, counted on
``NetworkStats`` and fired at the fabric's ``after_fault`` probe (so a
tracer records it as a ``"fault"`` event, whichever was attached
first).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.plan import FaultPlan, FaultRates
from repro.machine.machine import Machine
from repro.network.packet import Packet


@dataclass
class FaultEvent:
    """One injected fault, for post-mortem analysis."""

    time: int
    node: int          # packet source (or stalled node)
    fault: str         # drop | duplicate | delay | reorder | outage | stall
    detail: str = ""
    pid: int = -1      # packet id (-1 for stalls)


class FaultInjector:
    """Applies a :class:`FaultPlan` to one machine's fabric."""

    def __init__(self, machine: Machine, plan: FaultPlan) -> None:
        self.machine = machine
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.log: list[FaultEvent] = []
        #: pids of packets this policy itself re-injects later (a held
        #: back packet, a duplicate's clone): they pass without a roll
        self._released: set[int] = set()
        self._stall_handles: list = []
        self.attach()

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.machine.network.faults is self

    def attach(self) -> None:
        net = self.machine.network
        if net.faults is not None:
            raise RuntimeError("a fault policy is already installed on this fabric")
        net.faults = self
        sim = self.machine.sim
        for stall in self.plan.stalls:
            handle = sim.schedule(
                max(0, stall.start - sim.now),
                lambda stall=stall: self._begin_stall(stall),
            )
            self._stall_handles.append(handle)

    def detach(self) -> None:
        """Uninstall the policy; pending stall triggers are cancelled
        (faults already in flight still land). Idempotent."""
        if self.attached:
            self.machine.network.faults = None
        for handle in self._stall_handles:
            handle.cancel()
        self._stall_handles.clear()

    def __enter__(self) -> FaultInjector:
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _record(self, node: int, fault: str, detail: str, pid: int = -1) -> None:
        self.log.append(
            FaultEvent(self.machine.sim.now, node, fault, detail, pid)
        )
        for fn in self.machine.network.after_fault:
            fn(node, fault, detail)

    def _roll(self, rates: FaultRates) -> str | None:
        """One fate draw against ``rates`` (fixed category order)."""
        for name in ("drop", "duplicate", "delay", "reorder"):
            p = getattr(rates, name)
            if p and self.rng.random() < p:
                return name
        return None

    def route(self, packet: Packet) -> int | None:
        """Decide ``packet``'s fate (called by ``Network.send``): None
        lets the fabric inject it now; otherwise it was dropped or held
        back, and the returned cycle is what ``send`` reports."""
        if packet.pid in self._released:
            self._released.discard(packet.pid)
            return None
        plan = self.plan
        if not plan.eligible(packet.kind):
            return None
        net = self.machine.network
        sim = self.machine.sim
        # only outages and per-link rates look at the route
        route = (
            net.mesh.route(packet.src, packet.dst)
            if (plan.outages or plan.link_rates) and packet.src != packet.dst
            else []
        )
        dead = plan.dead_link(route, sim.now)
        if dead is not None:
            net.stats.outage_drops += 1
            self._record(
                packet.src, "outage",
                f"{packet.kind.value}->{packet.dst} on link {dead[0]}->{dead[1]}",
                packet.pid,
            )
            return sim.now  # lost: nothing arrives
        fate = self._roll(plan.rates_for(packet.kind))
        if fate is None:
            for link in route:
                extra = plan.link_rates.get(link)
                if extra is not None:
                    fate = self._roll(extra)
                    if fate is not None:
                        break
        if fate is None:
            return None
        what = f"{packet.kind.value}->{packet.dst}"
        if fate == "drop":
            net.stats.dropped += 1
            self._record(packet.src, "drop", what, packet.pid)
            return sim.now  # lost: nothing arrives
        if fate == "duplicate":
            net.stats.duplicated += 1
            lag = self.rng.randint(*plan.duplicate_lag)
            clone = Packet(
                src=packet.src,
                dst=packet.dst,
                kind=packet.kind,
                size_words=packet.size_words,
                payload=packet.payload,
                cycles_per_word_override=packet.cycles_per_word_override,
            )
            self._record(
                packet.src, "duplicate", f"{what} +{lag}cyc", packet.pid
            )
            self._reinject(lag, clone)
            return None
        # delay and reorder are both hold-backs; they differ in scale
        if fate == "delay":
            hold = self.rng.randint(*plan.delay_range)
            net.stats.delayed += 1
        else:
            hold = self.rng.randint(*plan.reorder_range)
            net.stats.reordered += 1
        self._record(packet.src, fate, f"{what} +{hold}cyc", packet.pid)
        self._reinject(hold, packet)
        return sim.now + hold  # injection time; real arrival is later

    def _reinject(self, delay: int, packet: Packet) -> None:
        self._released.add(packet.pid)
        net = self.machine.network
        self.machine.sim.schedule(delay, lambda: net.send(packet))

    # ------------------------------------------------------------------
    def _begin_stall(self, stall) -> None:
        from repro.proc.effects import Compute, SetIMask

        self.machine.network.stats.stalls += 1
        self._record(stall.node, "stall", f"{stall.duration}cyc")

        def stall_body():
            yield SetIMask(True)
            yield Compute(stall.duration)
            yield SetIMask(False)

        self.machine.processor(stall.node).run_thread(
            stall_body(), label=f"fault-stall@{stall.node}", front=True
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        s = self.machine.network.stats
        return (
            f"faults: {s.faults_injected} injected "
            f"(drop={s.dropped} dup={s.duplicated} delay={s.delayed} "
            f"reorder={s.reordered} outage={s.outage_drops} stalls={s.stalls})"
        )
