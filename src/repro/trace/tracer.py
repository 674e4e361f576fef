"""Execution tracing.

Attach a :class:`Tracer` to a machine to capture a timestamped event
stream — effects executed, packets injected, coherence transactions,
message-handler entries — for post-mortem analysis of an experiment
(the simulator-side equivalent of Alewife's hardware event probes).

The tracer subscribes to the probe points (:mod:`repro.sim.probe`)
*of that machine's components only*; an untraced machine runs no
tracer code, and :meth:`Tracer.detach` unsubscribes again so the
machine can be re-used untraced (``with Tracer(m) as t: ...``
detaches automatically).

    tracer = Tracer(machine, kinds={"packet", "handler"})
    ... run ...
    print(tracer.summarize())
    tracer.to_jsonl("run.jsonl")

The ``"fault"`` kind records what an installed
:class:`~repro.faults.FaultInjector` fires at the fabric's
``after_fault`` probe.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable

from repro.machine.machine import Machine
from repro.sim.probe import Subscriptions

ALL_KINDS = frozenset(
    {"effect", "packet", "txn", "handler", "context", "fault", "check"}
)


@dataclass(slots=True)
class TraceEvent:
    # slots: traces routinely hold 10^6 events; slotted instances
    # measure ~27% smaller than dict-backed ones (152 MB -> 112 MB
    # per million events; see docs/OBSERVABILITY.md)
    time: int
    node: int
    kind: str
    what: str
    detail: str = ""

    def __str__(self) -> str:
        d = f" {self.detail}" if self.detail else ""
        return f"[{self.time:>10}] n{self.node:<3} {self.kind:<8} {self.what}{d}"


class Tracer:
    """Event recorder for one machine."""

    def __init__(
        self,
        machine: Machine,
        kinds: Iterable[str] | None = None,
        max_events: int = 1_000_000,
    ) -> None:
        kinds = set(kinds) if kinds is not None else set(ALL_KINDS)
        unknown = kinds - ALL_KINDS
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
        self.machine = machine
        self.kinds = kinds
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._subs = Subscriptions()
        self.attach()

    # ------------------------------------------------------------------
    def record(self, node: int, kind: str, what: str, detail: str = "") -> None:
        if kind not in self.kinds:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(self.machine.sim.now, node, kind, what, detail)
        )

    @property
    def attached(self) -> bool:
        return self._subs.active

    def attach(self) -> None:
        """Subscribe to the probe points (done by ``__init__``)."""
        if self.attached:
            raise RuntimeError("tracer is already attached")
        m, kinds = self.machine, self.kinds
        record, sub = self.record, self._subs.add
        if "packet" in kinds:
            def sent(packet):
                record(packet.src, "packet", packet.kind.value,
                       f"->{packet.dst} {packet.size_words}w")

            sub(m.network, "before_send", sent)
        if "fault" in kinds:
            def fault(node, what, detail):
                record(node, "fault", what, detail)

            sub(m.network, "after_fault", fault)
        if "txn" in kinds:
            def access(node, addr, kind):
                record(node, "txn", kind.value, f"@{addr:#x}")

            sub(m.coherence, "before_access", access)
        for node_obj in m.nodes:
            proc, node = node_obj.processor, node_obj.node_id
            if "effect" in kinds:
                def execute(ctx, eff, node=node):
                    record(node, "effect", type(eff).__name__, ctx.label)

                sub(proc, "before_execute", execute)
            if "handler" in kinds:
                def enter(msg, node=node):
                    record(node, "handler", msg.mtype, f"from n{msg.src}")

                sub(proc, "before_handler", enter)
            if "context" in kinds:
                def spawn(ctx, node=node):
                    record(node, "context", "spawn", f"{ctx.cid}:{ctx.label}")

                sub(proc, "after_spawn", spawn)
            if "context" in kinds or "handler" in kinds:
                # end-of-life events so exporters can render duration
                # spans: handler return (closes the entry recorded on
                # handler entry) and context finish (closes the
                # ``spawn`` with the same cid)
                def finish(ctx, node=node):
                    if ctx.is_handler:
                        if "handler" in kinds:
                            record(node, "handler",
                                   ctx.msg.mtype if ctx.msg else ctx.label,
                                   "return")
                    elif "context" in kinds:
                        record(node, "context", "finish",
                               f"{ctx.cid}:{ctx.label}")

                sub(proc, "before_finish", finish)

    def detach(self) -> None:
        """Unsubscribe; the machine runs no tracer code again. Recorded
        events stay available. Idempotent."""
        self._subs.clear()

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Queries and rendering
    # ------------------------------------------------------------------
    def filter(
        self,
        node: int | None = None,
        kind: str | None = None,
        since: int = 0,
        until: int | None = None,
    ) -> list[TraceEvent]:
        out = []
        for ev in self.events:
            if node is not None and ev.node != node:
                continue
            if kind is not None and ev.kind != kind:
                continue
            if ev.time < since:
                continue
            if until is not None and ev.time > until:
                continue
            out.append(ev)
        return out

    def timeline(self, node: int, limit: int = 50) -> str:
        lines = [str(ev) for ev in self.filter(node=node)[:limit]]
        return "\n".join(lines) if lines else f"(no events for node {node})"

    def summarize(self) -> str:
        by_kind = Counter(ev.kind for ev in self.events)
        by_what = Counter((ev.kind, ev.what) for ev in self.events)
        lines = [f"trace: {len(self.events)} events"
                 + (f" (+{self.dropped} dropped)" if self.dropped else "")]
        for kind, count in by_kind.most_common():
            lines.append(f"  {kind}: {count}")
            for (k, what), c in by_what.most_common():
                if k == kind and c > 1:
                    lines.append(f"    {what}: {c}")
        return "\n".join(lines)

    def to_jsonl(self, path: str) -> int:
        """Write the trace: a metadata line first (event/drop counts,
        so a consumer can tell a truncated capture from a complete
        one), then one JSON object per event. Returns the event count."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": {
                "events": len(self.events),
                "dropped": self.dropped,
                "max_events": self.max_events,
                "kinds": sorted(self.kinds),
                "complete": self.dropped == 0,
            }}) + "\n")
            for ev in self.events:
                fh.write(json.dumps(asdict(ev)) + "\n")
        return len(self.events)


def from_jsonl(path: str) -> tuple[list[TraceEvent], dict]:
    """Parse a :meth:`Tracer.to_jsonl` file back into events + meta.

    Tolerates traces written before the metadata line existed (every
    line is an event; meta comes back empty)."""
    events: list[TraceEvent] = []
    meta: dict = {}
    with open(path) as fh:
        for i, line in enumerate(fh):
            rec = json.loads(line)
            if i == 0 and "meta" in rec:
                meta = rec["meta"]
                continue
            events.append(TraceEvent(**rec))
    return events, meta
