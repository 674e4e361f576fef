"""Cycle-attribution profiler: where did every simulated cycle go?

The paper's argument is a mechanism-cost story — per-transaction
coherence overhead vs per-message fixed cost vs DMA streaming. This
profiler *measures* it: every simulated cycle of every node is
attributed to exactly one bucket, so per node the buckets sum to the
total simulated cycles (a property the tests and the ``run.json``
validator both enforce).

Mechanism: a per-node state machine driven from the processor's
dict-dispatch hot path. The profiler subscribes to three probe points
of each node's processor (:mod:`repro.sim.probe`) — exactly like the
tracer, so an unprofiled machine runs no profiler code:

* ``after_execute`` — effect dispatch: each effect moves the node into
  the bucket for that effect class (``Load``/``Store``/``FetchOp``
  resolve to ``cache_hit`` or ``miss_stall`` from the post-dispatch
  ``ctx.miss_pending`` flag; effects inside a message handler charge
  the ``handler`` bucket). The probe fires with the effect's class,
  once per element whether the element came from a program's own
  yield, a macro-effect's batch runner or its ``micro()`` program,
  so a profiled processor keeps the batch runners and the profile
  does not depend on the path.
* ``before_handler`` — interrupt entry: moves into ``handler``.
* ``after_dispatch`` — when the dispatcher finds nothing to run, moves
  into ``idle``.

On every transition the interval since the previous transition is
charged to the outgoing bucket (and, in parallel, to the outgoing
effect class), so coverage is exact by construction: overlapped work
(a handler borrowing the pipeline during a remote-miss stall, a
Sparcle context switch running other work during a miss) charges the
cycles to whatever the pipeline was *actually doing*, which is the
latency-tolerance story Figs. 9-11 tell.

Buckets:

========== =====================================================
compute     ``Compute`` effects (application work)
cache_hit   loads/stores/atomics satisfied locally (incl. the
            store buffer and prefetch issue slots)
miss_stall  cycles the pipeline sat in a remote/local cache miss
handler     message-handler execution + interrupt entry/exit
msg_send    describe/launch cycles of the ``Send`` effect
dma         ``Storeback`` (destination DMA scatter) cycles
runtime     fences, interrupt masking, yields, suspends
idle        nothing to run
========== =====================================================

Network link and DMA-engine *occupancy* are deliberately not buckets
(they overlap processor time on other nodes); they are reported
separately by the metrics registry (``net.link_busy_cycles``,
``cmmu.dma_busy_cycles``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.proc import effects as fx
from repro.sim.probe import Subscriptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: every bucket a cycle can land in, in report order
BUCKETS = (
    "compute",
    "cache_hit",
    "miss_stall",
    "handler",
    "msg_send",
    "dma",
    "runtime",
    "idle",
)

#: effect class -> bucket; None means "resolve hit/miss after dispatch"
_EFFECT_BUCKET = {
    fx.Compute: "compute",
    fx.Load: None,
    fx.Store: None,
    fx.LoadAcquire: None,
    fx.StoreRelease: None,
    fx.FetchOp: None,
    fx.Prefetch: "cache_hit",
    fx.Send: "msg_send",
    fx.Storeback: "dma",
    fx.Fence: "runtime",
    fx.SetIMask: "runtime",
    fx.Suspend: "runtime",
    fx.Yield: "runtime",
}


class _NodeAccount:
    """Charge-on-transition accountant for one node's pipeline."""

    __slots__ = ("sim", "proc", "buckets", "by_effect", "state", "effect", "last")

    def __init__(self, sim, proc) -> None:
        self.sim = sim
        self.proc = proc
        self.buckets = dict.fromkeys(BUCKETS, 0)
        self.by_effect: dict[str, int] = {}
        self.state = "idle"
        self.effect = ""
        self.last = sim.now

    def transition(self, bucket: str, effect: str = "") -> None:
        now = self.sim.now
        elapsed = now - self.last
        if elapsed:
            self.buckets[self.state] += elapsed
            if self.effect:
                self.by_effect[self.effect] = (
                    self.by_effect.get(self.effect, 0) + elapsed
                )
            self.last = now
        self.state = bucket
        self.effect = effect

    def settle(self) -> None:
        """Charge the open interval through ``sim.now`` (idempotent)."""
        self.transition(self.state, self.effect)

    # -- probe callbacks -------------------------------------------------
    def executed(self, ctx, cls) -> None:
        if ctx.is_handler:
            self.transition("handler", cls.__name__)
            return
        bucket = _EFFECT_BUCKET.get(cls)
        if bucket is None:
            bucket = "miss_stall" if ctx.miss_pending else "cache_hit"
        self.transition(bucket, cls.__name__)

    def handler_entered(self, msg) -> None:
        self.transition("handler", "interrupt_entry")

    def dispatched(self) -> None:
        if self.proc.current is None and not self.proc.in_handler:
            self.transition("idle")


class CycleProfiler:
    """Attributes every simulated cycle of a machine to a bucket.

    Attach at machine construction time (before any cycles elapse) so
    the per-node invariant ``sum(buckets) == sim.now`` holds exactly::

        prof = CycleProfiler(machine)
        ... run ...
        print(prof.format_table())

    Detachable and re-entrant like the tracer; ``with`` detaches.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.accounts = [
            _NodeAccount(machine.sim, n.processor) for n in machine.nodes
        ]
        self._subs = Subscriptions()
        self.attach()

    @property
    def attached(self) -> bool:
        return self._subs.active

    def attach(self) -> None:
        if self.attached:
            raise RuntimeError("profiler is already attached")
        for acct in self.accounts:
            self._subs.add(acct.proc, "after_execute", acct.executed)
            self._subs.add(acct.proc, "before_handler", acct.handler_entered)
            self._subs.add(acct.proc, "after_dispatch", acct.dispatched)

    def detach(self) -> None:
        """Unsubscribe and settle open intervals. Idempotent."""
        for acct in self.accounts:
            acct.settle()
        self._subs.clear()

    def __enter__(self) -> "CycleProfiler":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def per_node(self) -> dict[int, dict]:
        """``{node: {"total", "buckets", "by_effect"}}`` — buckets sum
        to the node's total simulated cycles."""
        out = {}
        for node, acct in enumerate(self.accounts):
            acct.settle()
            out[node] = {
                "total": sum(acct.buckets.values()),
                "buckets": dict(acct.buckets),
                "by_effect": dict(sorted(acct.by_effect.items())),
            }
        return out

    def totals(self) -> dict[str, int]:
        """Machine-wide cycles per bucket (summed over nodes)."""
        out = dict.fromkeys(BUCKETS, 0)
        for acct in self.accounts:
            acct.settle()
            for bucket, cycles in acct.buckets.items():
                out[bucket] += cycles
        return out

    def format_table(self) -> str:
        """The "where did the cycles go" table, one row per node."""
        from repro.analysis.tables import format_table

        rows = []
        for node, rec in self.per_node().items():
            row = {"node": node, "total": rec["total"]}
            total = rec["total"] or 1
            for bucket in BUCKETS:
                row[bucket] = f"{100.0 * rec['buckets'][bucket] / total:.1f}%"
            rows.append(row)
        return format_table(
            "cycle attribution (% of node cycles)",
            ["node", "total", *BUCKETS],
            rows,
        )

    def as_dict(self) -> dict:
        """Plain data for ``run.json`` (picklable, mergeable)."""
        per_node = self.per_node()
        return {
            "machines": 1,
            "per_node": {
                str(node): {
                    "total": rec["total"],
                    "buckets": rec["buckets"],
                    "by_effect": rec["by_effect"],
                }
                for node, rec in per_node.items()
            },
            "total_cycles": sum(rec["total"] for rec in per_node.values()),
        }


def merge_attribution(into: dict, other: dict) -> dict:
    """Merge two :meth:`CycleProfiler.as_dict` payloads (summing
    buckets per node id) — used when folding SweepRunner workers'
    observations together. Node ids align across machines of the same
    sweep; totals stay the sum of the merged buckets."""
    into["machines"] += other["machines"]
    into["total_cycles"] += other["total_cycles"]
    per_node = into["per_node"]
    for node, rec in other["per_node"].items():
        mine = per_node.get(node)
        if mine is None:
            per_node[node] = {
                "total": rec["total"],
                "buckets": dict(rec["buckets"]),
                "by_effect": dict(rec["by_effect"]),
            }
            continue
        mine["total"] += rec["total"]
        for bucket, cycles in rec["buckets"].items():
            mine["buckets"][bucket] = mine["buckets"].get(bucket, 0) + cycles
        for eff, cycles in rec["by_effect"].items():
            mine["by_effect"][eff] = mine["by_effect"].get(eff, 0) + cycles
    return into
