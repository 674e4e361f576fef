"""The job orchestrator: FIFO queue, state machine, dedup, drain.

Jobs move through a strict state machine::

    queued ──────────► running ──► done
       │                  │   └──► failed
       └──► cancelled ◄───┘

A job is the fold of its own lifecycle events through
:meth:`Job.apply`, live (:meth:`JobOrchestrator._emit`) or replayed
from the journal (:func:`replay`).

* **Submission** first consults the run store: if the job's key is
  already published, the job is born ``done`` with ``dedup=True`` —
  it never touches the queue or the worker pool (the acceptance
  contract: a resubmitted sweep costs a directory read, not a
  recompute).
* **Order**: jobs start in submission order, from one FIFO queue.
* **Cancellation** of a queued job is immediate. Cancellation of a
  running job is cooperative: the worker's ``should_cancel`` probe is
  checked by the executor between phases, and a cancel that lands too
  late to interrupt simply discards the result instead of publishing
  it (the run store never sees a cancelled run).
* **Graceful shutdown** (``shutdown(drain=True)``) stops workers from
  *starting* anything new, lets in-flight jobs run to completion and
  publish, and leaves still-queued jobs queued — the daemon's exit
  path, so a busy service never tears a half-run experiment down.

* **Durability + observability** ride one mechanism: every lifecycle
  event is appended to the :class:`~repro.serve.journal.JobJournal`
  (when one is attached) *and* to the job's event list that
  :meth:`JobOrchestrator.stream_events` serves live to SSE clients.
  On startup :meth:`JobOrchestrator.recover` replays the journal:
  queued jobs are re-queued in submission order, jobs that were
  running when the daemon died are marked interrupted, terminal jobs
  are re-registered so their ids keep answering status and artifact
  requests, and each keeps its journaled events.

Workers are threads, not processes: one experiment's sweep points
already fan out over the shared ``repro.perf`` process pool when the
sweep is large enough, so the orchestrator only needs enough workers
to overlap small jobs with big ones. The thread-local activation
switches in :mod:`repro.perf.cache` / :mod:`repro.obs.session` /
:mod:`repro.perf.progress` keep concurrent workers' cache,
observation, and progress contexts independent.
"""

from __future__ import annotations

import threading
import time
import traceback
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

from repro.serve.journal import spec_hash

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: lifecycle event -> (the state it leaves a job in, the stamp it sets)
_TRANSITIONS = {
    "submitted": (QUEUED, "submitted"),
    "started": (RUNNING, "started"),
    DONE: (DONE, "finished"),
    FAILED: (FAILED, "finished"),
    CANCELLED: (CANCELLED, "finished"),
    "interrupted": (FAILED, "finished"),
}

#: event keys that stamp an event rather than carry its payload
_STAMPS = ("t", "wall", "mono", "job")


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancellation was
    requested; the job lands in ``cancelled`` and nothing is
    published."""


class OrchestratorClosed(RuntimeError):
    """Submission after :meth:`JobOrchestrator.shutdown` began."""


class Executor(Protocol):  # pragma: no cover - typing only
    def key_for(self, spec: dict) -> str: ...

    def execute(
        self, spec: dict, should_cancel: Any, progress: Any, job_info: dict
    ) -> tuple[dict, dict[str, bytes]]: ...


@dataclass
class Job:
    """One submission: the fold of its lifecycle events.

    ``*_at`` are wall-clock epochs (humans, cross-host correlation).
    Durations come from monotonic stamps, so they survive NTP steps;
    another process's monotonic clock does not compare with this
    one's, so a duration is None unless this process stamped both of
    its ends."""

    id: str
    spec: dict
    key: str
    state: str = QUEUED
    submitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: answered from the run store without dispatching any work
    dedup: bool = False
    #: live sweep progress: done / total / cache_hits / point
    progress: dict[str, Any] | None = None
    #: recovered from a journal after a daemon restart
    recovered: bool = False
    #: every event folded so far, as journaled (what stream_events serves)
    events: list = field(default_factory=list, repr=False)
    #: this process's monotonic stamps: submitted / started / finished
    mono: dict[str, float] = field(default_factory=dict, repr=False)
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def apply(self, event: dict[str, Any]) -> None:
        """The one transition function: fold one lifecycle event (a
        journal record: ``t``, ``wall``, ``mono`` when this process
        stamped it, then its payload) into this job."""
        t = event["t"]
        if t == "progress":
            self.progress = {
                k: v for k, v in event.items() if k not in _STAMPS
            }
        else:
            self.state, stamp = _TRANSITIONS[t]
            setattr(self, f"{stamp}_at", event["wall"])
            if "mono" in event:
                self.mono[stamp] = event["mono"]
            if stamp == "finished":
                self.error = event.get("error")
                self.dedup = bool(event.get("dedup"))
        self.events.append(event)

    def _seconds(self, start: str, end: str) -> float | None:
        if start in self.mono and end in self.mono:
            return self.mono[end] - self.mono[start]
        return None

    def queue_seconds(self) -> float | None:
        """Submission → start latency (None while queued)."""
        return self._seconds("submitted", "started")

    def run_seconds(self) -> float | None:
        """Start → finish latency (None until terminal)."""
        return self._seconds("started", "finished")

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "key": self.key,
            "spec": self.spec,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": self.queue_seconds(),
            "run_seconds": self.run_seconds(),
            "error": self.error,
            "dedup": self.dedup,
            # the Perfetto trace of a job is correlated by its id
            "trace_id": self.id,
            "progress": dict(self.progress) if self.progress else None,
            "recovered": self.recovered,
        }


def replay(journal: Any) -> dict[str, Job]:
    """Fold a journal's events into jobs through :meth:`Job.apply`, in
    first-submission order. A replayed event keeps its wall clock but
    not its monotonic stamp, which another process took; events of
    jobs submitted before the journal began are skipped."""
    jobs: dict[str, Job] = {}
    for event in journal.replay():
        job_id = event.get("job")
        if event["t"] == "submitted":
            jobs[job_id] = Job(
                id=job_id, spec=event.get("spec") or {},
                key=event.get("key") or "", recovered=True,
            )
        if job_id in jobs:
            event.pop("mono", None)
            jobs[job_id].apply(event)
    return jobs


#: queue/run latency histogram bounds (seconds)
LATENCY_BOUNDS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)


class JobOrchestrator:
    """Job execution in submission order over a run store."""

    def __init__(
        self, executor: Executor, store: Any, workers: int = 1,
        journal: Any = None,
    ) -> None:
        from repro.obs.metrics import Histogram

        self.executor = executor
        self.store = store
        self.journal = journal
        self.n_workers = max(1, int(workers))
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: ids of the queued jobs, oldest first: exactly the jobs in
        #: state queued
        self._queue: deque[str] = deque()
        self._jobs: dict[str, Job] = {}
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self.counters = {
            "submitted": 0,
            "dedup_hits": 0,
            "executed": 0,
            "failed": 0,
            "cancelled": 0,
            "recovered": 0,
            "interrupted": 0,
        }
        #: queued→start and start→done latency distributions (observed
        #: under the lock; exposed via register_metrics / GET /metrics)
        self.queue_latency = Histogram(
            "serve.job_queue_seconds", LATENCY_BOUNDS, {}
        )
        self.run_latency = Histogram(
            "serve.job_run_seconds", LATENCY_BOUNDS, {}
        )

    # -- events --------------------------------------------------------
    def _emit(self, job: Job, t: str, **fields: Any) -> None:
        """The live transition: stamp one lifecycle event, fold it into
        the job, journal it (if a journal is attached), count it, then
        wake streamers/waiters. Takes the (re-entrant) condition lock."""
        with self._cond:
            event = {
                "t": t, "wall": time.time(), "mono": time.monotonic(),
                "job": job.id, **fields,
            }
            job.apply(event)
            if self.journal is not None:
                self.journal.record(**event)
            # counters are named after the events they count, except
            # that a done job was executed or answered by the store
            counter = {DONE: "dedup_hits" if job.dedup else "executed"}.get(t, t)
            if counter in self.counters:
                self.counters[counter] += 1
            if t == "started" and job.queue_seconds() is not None:
                self.queue_latency.observe(job.queue_seconds())
            elif t in TERMINAL and job.run_seconds() is not None:
                self.run_latency.observe(job.run_seconds())
            self._cond.notify_all()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._worker, name=f"serve-worker-{i}", daemon=True
                )
                for i in range(self.n_workers)
            ]
        for t in self._threads:
            t.start()

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the workers. ``drain=True`` lets running jobs finish
        (and publish); ``drain=False`` also requests cancellation of
        everything in flight. Queued jobs stay queued either way —
        shutdown loses no submissions, it only stops serving them."""
        with self._cond:
            self._stopping = True
            if not drain:
                for job in self._jobs.values():
                    if job.state == RUNNING:
                        job.cancel_event.set()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout)
        with self._lock:
            self._threads = []

    # -- submission / queries ------------------------------------------
    def submit(self, spec: dict) -> Job:
        key = self.executor.key_for(spec)
        with self._cond:
            if self._stopping:
                raise OrchestratorClosed("orchestrator is shutting down")
            job = Job(id=uuid.uuid4().hex[:12], spec=spec, key=key)
            self._jobs[job.id] = job
            self._emit(
                job, "submitted", key=key, spec=spec, spec_hash=spec_hash(spec)
            )
            if self.store.get(key) is not None:
                # already materialized: answer from the store, never
                # touching the queue or the worker pool
                self._emit(job, DONE, dedup=True)
            else:
                # _emit's notify_all wakes a worker once the lock is free
                self._queue.append(job.id)
            return job

    # -- restart recovery ----------------------------------------------
    def recover(self) -> dict[str, int]:
        """Replay the attached journal into this (fresh) orchestrator.

        * jobs whose last journaled state was **queued** are re-queued
          in their original submission order — a daemon restart loses
          no accepted work;
        * jobs that were **running** when the daemon died get an
          ``interrupted`` event (state ``failed``, error says so) —
          their specs are preserved, so resubmitting retries them;
        * **terminal** jobs are re-registered in their final state so
          their ids keep answering status and artifact requests.

        Returns counts per category. Call before :meth:`start`.
        """
        counts = {"requeued": 0, "interrupted": 0, "terminal": 0}
        if self.journal is None:
            return counts
        jobs = replay(self.journal)
        self.journal.mark_daemon_start()
        with self._cond:
            for job in jobs.values():
                self._jobs[job.id] = job
                if job.state == QUEUED:
                    self._queue.append(job.id)
                    self.counters["recovered"] += 1
                    counts["requeued"] += 1
                elif job.state == RUNNING:
                    # the daemon died mid-run: the journal has no
                    # terminal event, so the run never published
                    self._emit(
                        job, "interrupted",
                        error="interrupted by daemon restart",
                    )
                    counts["interrupted"] += 1
                else:
                    counts["terminal"] += 1
        return counts

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Cancel a job. Queued → cancelled immediately; running →
        cancellation requested (takes effect at the executor's next
        probe, or at completion by discarding the result). Terminal
        jobs are returned unchanged (cancel is idempotent)."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            if job.state == QUEUED:
                self._queue.remove(job.id)
                self._emit(job, CANCELLED)
            elif job.state == RUNNING:
                job.cancel_event.set()
            return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            while job.state not in TERMINAL:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return job

    # -- live event streaming ------------------------------------------
    def queue_position(self, job_id: str) -> int | None:
        """1-based position of a queued job in the queue (the order
        workers start jobs in); None when the job is not queued."""
        with self._lock:
            if job_id not in self._queue:
                return None
            return self._queue.index(job_id) + 1

    def stream_events(
        self, job_id: str, poll: float = 0.5,
        timeout: float | None = None, heartbeat: float = 10.0,
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's lifecycle events live, in order.

        First yields a ``snapshot`` event (current job state + queue
        position), then every event already folded (a recovered job's
        journaled history included), then new events as they land;
        ends once the job is terminal (after yielding its terminal
        event) or ``timeout`` seconds pass. ``poll`` bounds how long a
        waiter sleeps between condition checks — streamers are woken
        eagerly by ``_emit``, the poll is only a backstop. A
        ``heartbeat`` event is injected when nothing has been yielded
        for that many seconds (a deep-queued job would otherwise
        starve SSE clients into read timeouts).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
        yield {
            "event": "snapshot",
            "wall": time.time(),
            "job": job.as_dict(),
            "queue_position": self.queue_position(job_id),
        }
        cursor = 0
        last_yield = time.monotonic()
        while True:
            with self._cond:
                events = list(job.events[cursor:])
                cursor += len(events)
                terminal = job.state in TERMINAL
                if not events and not terminal:
                    remaining = poll
                    if deadline is not None:
                        remaining = min(poll, deadline - time.monotonic())
                        if remaining <= 0:
                            return
                    self._cond.wait(remaining)
            if not events and not terminal:
                if time.monotonic() - last_yield >= heartbeat:
                    last_yield = time.monotonic()
                    yield {
                        "event": "heartbeat",
                        "wall": time.time(),
                        "queue_position": self.queue_position(job_id),
                    }
                continue
            for event in events:
                # SSE names the event type ``event``; the monotonic
                # stamp and job id stay in the journal
                yield {"event": event["t"], **{
                    k: v for k, v in event.items()
                    if k not in ("t", "mono", "job")
                }}
            last_yield = time.monotonic()
            if terminal:
                return

    # -- introspection (the serve.* metrics read these) ----------------
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def jobs_by_state(self) -> dict[str, int]:
        """Job counts per state; every state key is present (all zero
        when no job was ever submitted)."""
        with self._lock:
            counts = dict.fromkeys(STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def dedup_hit_ratio(self) -> float:
        """Dedup hits / submissions; 0.0 (not NaN/ZeroDivisionError)
        when nothing was ever submitted."""
        with self._lock:
            submitted = self.counters["submitted"]
            if not submitted:
                return 0.0
            return self.counters["dedup_hits"] / submitted

    def register_metrics(self, registry: Any) -> None:
        """Register the orchestrator's instruments on a
        :class:`~repro.obs.metrics.MetricsRegistry` — the single
        definition both ``GET /v1/metrics`` (snapshot JSON) and
        ``GET /metrics`` (Prometheus text) collect from."""
        registry.gauge("serve.queue_depth", self.queue_depth)
        for state in STATES:
            registry.gauge(
                "serve.jobs",
                lambda s=state: self.jobs_by_state()[s],
                state=state,
            )
        for name in self.counters:
            registry.counter(
                f"serve.{name}", lambda n=name: self.counters[n]
            )
        registry.gauge("serve.dedup_hit_ratio", self.dedup_hit_ratio)
        registry.attach(self.queue_latency)
        registry.attach(self.run_latency)

    # -- the worker loop -----------------------------------------------
    def _next_job(self) -> Job | None:
        """Start the oldest queued job; None = stop. Holds the
        condition while waiting."""
        with self._cond:
            # never *start* work while stopping — queued jobs stay
            # queued for a future restart
            while not self._stopping:
                if self._queue:
                    job = self._jobs[self._queue.popleft()]
                    self._emit(job, "started")
                    return job
                self._cond.wait()
            return None

    def _worker(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                if job.cancel_event.is_set():
                    raise JobCancelled()
                meta, artifacts = self.executor.execute(
                    job.spec,
                    should_cancel=job.cancel_event.is_set,
                    progress=lambda update, job=job: self._emit(
                        job, "progress", **update
                    ),
                    job_info={
                        "trace_id": job.id,
                        "submitted_mono": job.mono.get("submitted"),
                        "started_mono": job.mono.get("started"),
                    },
                )
                if job.cancel_event.is_set():
                    # cancelled too late to interrupt: discard, never
                    # publish a run the client asked to kill
                    raise JobCancelled()
                self.store.publish(job.key, meta, artifacts)
            except JobCancelled:
                self._emit(job, CANCELLED)
            except Exception:
                self._emit(job, FAILED, error=traceback.format_exc(limit=8))
            else:
                self._emit(job, DONE)
