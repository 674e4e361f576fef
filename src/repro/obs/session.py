"""Process-wide observation session.

Ties the four pillars together behind one switch: open a session
(:func:`session`), and every machine built through
``experiments.common.make_machine`` while it is active gets the
configured observers attached at construction time — no experiment
needs observability plumbing of its own. A sweep
(:meth:`~repro.perf.sweep.SweepRunner.map`) observes each point it
runs in a fresh session of its own, inline or in a worker process,
and the enclosing session absorbs the plain-data payloads in input
order, cached or fresh. Machines are labelled ``m0, m1, ...`` by their
place in the session that ends up holding them, so a run's records
are the same at any job count and cache state.

    cfg = ObsConfig(sample_interval=1000, trace=True)
    with session(cfg) as s:
        run_experiment(...)
    data = s.data()   # records + merged metrics + cycle attribution
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.metrics import MetricsSnapshot, collect_machine
from repro.obs.profiler import CycleProfiler, merge_attribution
from repro.obs.sampler import TimeSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.check import CheckReport
    from repro.machine.machine import Machine

#: caps on what one machine's observers keep (counts go on past them)
MAX_TRACE_EVENTS = 200_000
MAX_SAMPLES = 100_000
MAX_FINDINGS = 1000


@dataclass(frozen=True)
class ObsConfig:
    """What to attach to each machine besides the metrics snapshot and
    the cycle-attribution profiler, which every observed machine gets.
    Frozen + plain data so it pickles into sweep workers unchanged."""

    #: cycles between time-series samples; 0 disables the sampler
    sample_interval: int = 0
    #: record a trace (kinds below) for Perfetto export
    trace: bool = False
    #: trace kinds to capture; the default set is what the exporter
    #: renders as tracks ("effect"/"txn" traces are huge — opt in)
    trace_kinds: tuple[str, ...] = ("packet", "handler", "context")
    #: dynamic checkers to attach ("race", "coherence", "deadlock");
    #: empty tuple disables checking entirely
    check: tuple[str, ...] = ()


class ObsSession:
    """Accumulates observations from every machine built while active.

    Live observers stay attached until :meth:`data` (or the machine is
    garbage-collected); collected results are plain data — a list of
    per-machine records plus a merged metrics snapshot and merged
    cycle attribution.
    """

    def __init__(self, cfg: ObsConfig) -> None:
        self.cfg = cfg
        self._observed: list[tuple[Any, ...]] = []
        self.records: list[dict] = []
        self.metrics: MetricsSnapshot | None = None
        self.attribution: dict | None = None
        self.check: "CheckReport | None" = None
        self.cache_stats: dict[str, int] | None = None
        self._cache_rows_added = False

    def note_cache(self, stats: dict[str, int]) -> None:
        """Fold one sweep's run-cache counter movement (hits, misses,
        invalidations, ...) into the session (called by SweepRunner)."""
        if self.cache_stats is None:
            self.cache_stats = dict(stats)
            return
        for key, value in stats.items():
            self.cache_stats[key] = self.cache_stats.get(key, 0) + value

    # ------------------------------------------------------------------
    def _next_label(self) -> str:
        return f"m{len(self._observed) + len(self.records)}"

    def observe(self, machine: "Machine") -> None:
        """Attach the configured observers to a freshly-built machine."""
        cfg = self.cfg
        tracer = checkers = None
        if cfg.check:
            from repro.check import CheckerSet

            # subscribed ahead of the tracer, so a finding raised as an
            # effect issues is traced before that effect's own record
            # (``tracer`` is bound below, before the machine runs)
            on_finding = None
            if cfg.trace:
                def on_finding(f):
                    tracer.record(f.node, "check", f.kind, f.message)
            checkers = CheckerSet(
                machine,
                checks=cfg.check,
                max_findings=MAX_FINDINGS,
                on_finding=on_finding,
            )
        profiler = CycleProfiler(machine)
        sampler = (
            TimeSampler(machine, cfg.sample_interval, MAX_SAMPLES)
            if cfg.sample_interval
            else None
        )
        if cfg.trace:
            from repro.trace.tracer import Tracer

            tracer = Tracer(machine, kinds=cfg.trace_kinds, max_events=MAX_TRACE_EVENTS)
        self._observed.append(
            (machine, self._next_label(), tracer, profiler, sampler, checkers)
        )

    def _finalize(self, rec: tuple[Any, ...]) -> None:
        machine, label, tracer, profiler, sampler, checkers = rec
        out: dict[str, Any] = {
            "label": label,
            "n_nodes": machine.n_nodes,
            "cycles": machine.sim.now,
        }
        if checkers is not None:
            # quiescence findings still reach the live tracer
            report = checkers.finalize()
            out["check"] = report.as_dict()
            if self.check is None:
                from repro.check import CheckReport

                self.check = CheckReport(max_findings=MAX_FINDINGS)
            self.check.merge(report)
        if tracer is not None:
            out["trace"] = [
                (e.time, e.node, e.kind, e.what, e.detail) for e in tracer.events
            ]
            out["trace_dropped"] = tracer.dropped
            tracer.detach()
        if sampler is not None:
            out["samples"] = sampler.as_dict()
            sampler.detach()
        prof = profiler.as_dict()
        out["profile"] = prof
        profiler.detach()
        if self.attribution is None:
            # deep-ish copy: merge_attribution mutates its target
            self.attribution = {
                "machines": 0,
                "total_cycles": 0,
                "per_node": {},
            }
        merge_attribution(self.attribution, prof)
        snap = collect_machine(machine, extra=sampler.histograms if sampler else ())
        if self.metrics is None:
            self.metrics = snap
        else:
            self.metrics.merge(snap)
        self.records.append(out)

    # ------------------------------------------------------------------
    def absorb(self, data: dict) -> None:
        """Fold another session's :meth:`data` payload into this one
        (SweepRunner calls it in input order). Its machines are
        renamed by their place in this one."""
        for rec in data["records"]:
            self.records.append({**rec, "label": self._next_label()})
        if data.get("metrics") is not None:
            snap = MetricsSnapshot.from_dict(data["metrics"])
            if self.metrics is None:
                self.metrics = snap
            else:
                self.metrics.merge(snap)
        if data.get("cycle_attribution") is not None:
            if self.attribution is None:
                self.attribution = {
                    "machines": 0,
                    "total_cycles": 0,
                    "per_node": {},
                }
            merge_attribution(self.attribution, data["cycle_attribution"])
        if data.get("check") is not None:
            from repro.check import CheckReport

            report = CheckReport.from_dict(data["check"])
            if self.check is None:
                self.check = CheckReport(max_findings=MAX_FINDINGS)
            self.check.merge(report)
        if data.get("cache") is not None:
            self.note_cache(data["cache"])

    def data(self) -> dict:
        """Finalize any still-live observers and return everything as
        plain (picklable, JSON-able) data. Idempotent."""
        pending, self._observed = self._observed, []
        for rec in pending:
            self._finalize(rec)
        if (
            self.cache_stats is not None
            and self.metrics is not None
            and not self._cache_rows_added
        ):
            # surface run-cache counters in the metrics snapshot, so
            # run.json carries them alongside the component metrics
            self._cache_rows_added = True
            self.metrics.rows.extend(
                {"name": f"sweep.cache.{key}", "kind": "counter",
                 "labels": {}, "value": value}
                for key, value in sorted(self.cache_stats.items())
            )
        if self.check is not None and self.metrics is not None:
            # surface per-checker finding counts as metrics rows so
            # run.json and /metrics carry them, not just the findings
            # list. Replace, don't append: worker payloads already
            # carry their own check.findings rows (their data() added
            # them), and the merged CheckReport is the authority —
            # summing both would double-count every worker finding.
            self.metrics.rows = [
                r for r in self.metrics.rows if r["name"] != "check.findings"
            ]
            self.metrics.rows.extend(
                {"name": "check.findings", "kind": "counter",
                 "labels": {"checker": checker}, "value": count}
                for checker, count in sorted(self.check.counts.items())
            )
        return {
            "records": self.records,
            "metrics": self.metrics.as_dict() if self.metrics else None,
            "cycle_attribution": self.attribution,
            "check": self.check.as_dict() if self.check else None,
            "cache": dict(self.cache_stats) if self.cache_stats else None,
        }


# ----------------------------------------------------------------------
# The active session. Thread-local so concurrent repro.serve job
# workers can each run an observed experiment on their own thread —
# every machine built by a thread attaches to that thread's session,
# never to a neighbouring job's.
# ----------------------------------------------------------------------
_TLS = threading.local()


def current() -> ObsSession | None:
    """The active session, if any (checked by ``make_machine``)."""
    return getattr(_TLS, "session", None)


@contextmanager
def session(cfg: ObsConfig) -> Iterator[ObsSession]:
    """Open an observation session on the calling thread for the
    duration of the block."""
    prev = getattr(_TLS, "session", None)
    s = ObsSession(cfg)
    _TLS.session = s
    try:
        yield s
    finally:
        _TLS.session = prev

