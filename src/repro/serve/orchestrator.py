"""The job orchestrator: priority queue, state machine, dedup, drain.

Jobs move through a strict state machine::

    queued ──────────► running ──► done
       │                  │   └──► failed
       └──► cancelled ◄───┘

* **Submission** first consults the run store: if the job's key is
  already published, the job is born ``done`` with ``dedup=True`` —
  it never touches the queue or the worker pool (the acceptance
  contract: a resubmitted sweep costs a directory read, not a
  recompute).
* **Priority**: higher ``priority`` runs first; ties run in
  submission order (a monotone sequence number keeps the heap
  deterministic and starvation-free within a priority band).
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
  transition is appended to the :class:`~repro.serve.journal.JobJournal`
  (when one is attached) *and* to the job's in-memory event list that
  :meth:`JobOrchestrator.stream_events` serves live to SSE clients.
  On startup :meth:`JobOrchestrator.recover` replays the journal:
  queued jobs are re-queued (priority order preserved), jobs that
  were running when the daemon died are marked interrupted, terminal
  jobs are re-registered so their ids keep answering status and
  artifact requests.

Workers are threads, not processes: one experiment's sweep points
already fan out over the shared ``repro.perf`` process pool when the
sweep is large enough, so the orchestrator only needs enough workers
to overlap small jobs with big ones. The thread-local activation
switches in :mod:`repro.perf.cache` / :mod:`repro.obs.session` /
:mod:`repro.perf.progress` keep concurrent workers' cache,
observation, and progress contexts independent.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL = frozenset({DONE, FAILED, CANCELLED})


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
    """One submission and its lifecycle.

    Two clocks per transition: ``*_at`` wall-clock epochs (humans,
    cross-host correlation) and ``*_mono`` monotonic stamps (duration
    arithmetic that survives NTP steps). ``created``/``started``/
    ``finished`` remain as wall-clock aliases for older clients."""

    id: str
    spec: dict
    key: str
    priority: int
    state: str = QUEUED
    created: float = field(default_factory=time.time)
    created_mono: float = field(default_factory=time.monotonic)
    started: float | None = None
    started_mono: float | None = None
    finished: float | None = None
    finished_mono: float | None = None
    error: str | None = None
    #: answered from the run store without dispatching any work
    dedup: bool = False
    #: correlation id carried into journal events and the Perfetto
    #: trace (host spans and sim spans land under one trace)
    trace_id: str = ""
    #: live sweep progress: done / total / cache_hits / point
    progress: dict[str, Any] | None = None
    #: recovered from a journal after a daemon restart
    recovered: bool = False
    #: append-only lifecycle event log (what stream_events serves)
    events: list = field(default_factory=list, repr=False)
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def __post_init__(self) -> None:
        if not self.trace_id:
            self.trace_id = self.id

    def queue_seconds(self) -> float | None:
        """Submission → start latency (monotonic; None while queued)."""
        if self.started_mono is None:
            return None
        return self.started_mono - self.created_mono

    def run_seconds(self) -> float | None:
        """Start → finish latency (monotonic; None until terminal)."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "key": self.key,
            "spec": self.spec,
            "priority": self.priority,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "submitted_at": self.created,
            "submitted_mono": self.created_mono,
            "started_at": self.started,
            "started_mono": self.started_mono,
            "finished_at": self.finished,
            "finished_mono": self.finished_mono,
            "queue_seconds": self.queue_seconds(),
            "run_seconds": self.run_seconds(),
            "error": self.error,
            "dedup": self.dedup,
            "trace_id": self.trace_id,
            "progress": dict(self.progress) if self.progress else None,
            "recovered": self.recovered,
        }


#: queue/run latency histogram bounds (seconds)
LATENCY_BOUNDS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)


class JobOrchestrator:
    """Priority-ordered job execution over a run store."""

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
        self._heap: list[tuple[int, int, str]] = []
        self._jobs: dict[str, Job] = {}
        self._seq = itertools.count()
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
    def _emit(self, job: Job, event_type: str, **fields: Any) -> None:
        """Append one lifecycle event to the job's live event log and
        the journal (if attached), then wake streamers/waiters. Caller
        must hold the condition lock."""
        event = {"event": event_type, "wall": time.time(), **fields}
        job.events.append(event)
        if self.journal is not None:
            self.journal.record(event_type, job=job.id, **fields)
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
    def submit(self, spec: dict, priority: int = 0) -> Job:
        key = self.executor.key_for(spec)
        with self._cond:
            if self._stopping:
                raise OrchestratorClosed("orchestrator is shutting down")
            job = Job(
                id=uuid.uuid4().hex[:12], spec=spec, key=key,
                priority=int(priority),
            )
            self.counters["submitted"] += 1
            self._jobs[job.id] = job
            self._record_submitted(job)
            if self.store.get(key) is not None:
                # already materialized: answer from the store, never
                # touching the queue or the worker pool
                job.state = DONE
                job.dedup = True
                job.finished = job.created
                job.finished_mono = job.created_mono
                self.counters["dedup_hits"] += 1
                self._emit(job, DONE, dedup=True)
            else:
                self._enqueue(job)
            return job

    def _record_submitted(self, job: Job) -> None:
        from repro.serve.journal import spec_hash

        self._emit(
            job, "submitted", key=job.key, spec=job.spec,
            priority=job.priority, trace_id=job.trace_id,
            spec_hash=spec_hash(job.spec), dedup=job.dedup,
            recovered=job.recovered,
        )

    def _enqueue(self, job: Job) -> None:
        import heapq

        heapq.heappush(
            self._heap, (-job.priority, next(self._seq), job.id)
        )
        self._cond.notify()

    # -- restart recovery ----------------------------------------------
    def recover(self) -> dict[str, int]:
        """Replay the attached journal into this (fresh) orchestrator.

        * jobs whose last journaled state was **queued** are re-queued
          with their original priority, in original submission order
          within each priority band — a daemon restart loses no
          accepted work;
        * jobs that were **running** when the daemon died are marked
          interrupted (state ``failed``, error says so) — their specs
          are preserved, so resubmitting retries them;
        * **terminal** jobs are re-registered in their final state so
          their ids keep answering status and artifact requests.

        Returns counts per category. Call before :meth:`start`.
        """
        counts = {"requeued": 0, "interrupted": 0, "terminal": 0}
        if self.journal is None:
            return counts
        records = self.journal.reconstruct()
        self.journal.mark_daemon_start()
        with self._cond:
            for rec in records.values():
                job = Job(
                    id=rec["job"],
                    spec=rec.get("spec") or {},
                    key=rec.get("key") or "",
                    priority=int(rec.get("priority") or 0),
                    created=rec.get("submitted_wall") or time.time(),
                    trace_id=rec.get("trace_id") or rec["job"],
                    dedup=bool(rec.get("dedup")),
                    recovered=True,
                )
                job.started = rec.get("started_wall")
                job.finished = rec.get("finished_wall")
                job.progress = rec.get("progress")
                job.error = rec.get("error")
                state = rec["state"]
                if state == QUEUED:
                    job.state = QUEUED
                    self.counters["recovered"] += 1
                    self._enqueue(job)
                    counts["requeued"] += 1
                elif state == RUNNING:
                    # the daemon died mid-run: the journal has no
                    # terminal event, so the run never published
                    job.state = FAILED
                    job.error = "interrupted by daemon restart"
                    job.finished = time.time()
                    self.counters["interrupted"] += 1
                    self._emit(
                        job, "interrupted",
                        error="interrupted by daemon restart",
                    )
                    counts["interrupted"] += 1
                else:
                    job.state = state
                    counts["terminal"] += 1
                self._jobs[job.id] = job
        return counts

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created)

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
                job.state = CANCELLED
                job.finished = time.time()
                job.finished_mono = time.monotonic()
                self.counters["cancelled"] += 1
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
        """1-based position of a queued job among queued jobs (heap
        order: priority desc, then submission order); None when the
        job is not queued."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                return None
            queued = sorted(
                (
                    (-j.priority, j.created_mono, j.id)
                    for j in self._jobs.values()
                    if j.state == QUEUED
                ),
            )
            for pos, (_, _, jid) in enumerate(queued, start=1):
                if jid == job_id:
                    return pos
            return None  # pragma: no cover - state raced terminal

    def stream_events(
        self, job_id: str, poll: float = 0.5,
        timeout: float | None = None, heartbeat: float = 10.0,
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's lifecycle events live, in order.

        First yields a ``snapshot`` event (current job state + queue
        position), then every event already logged, then new events as
        they land; ends once the job is terminal (after yielding its
        terminal event) or ``timeout`` seconds pass. ``poll`` bounds
        how long a waiter sleeps between condition checks — streamers
        are woken eagerly by ``_emit``, the poll is only a backstop.
        A ``heartbeat`` event is injected when nothing has been
        yielded for that many seconds (a deep-queued job would
        otherwise starve SSE clients into read timeouts).
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
                yield event
            last_yield = time.monotonic()
            if terminal:
                return

    # -- introspection (the serve.* metrics read these) ----------------
    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == QUEUED)

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
        """Pop the highest-priority queued job; None = stop. Holds the
        condition while waiting."""
        import heapq

        with self._cond:
            while True:
                if self._stopping:
                    # never *start* work while stopping — queued jobs
                    # stay queued for a future restart
                    return None
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs[job_id]
                    if job.state == QUEUED:  # skip lazily-cancelled entries
                        job.state = RUNNING
                        job.started = time.time()
                        job.started_mono = time.monotonic()
                        self.queue_latency.observe(job.queue_seconds() or 0.0)
                        self._emit(job, "started")
                        return job
                if self._stopping:
                    return None
                self._cond.wait()

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        with self._cond:
            job.state = state
            job.error = error
            job.finished = time.time()
            job.finished_mono = time.monotonic()
            counter = {DONE: "executed", FAILED: "failed", CANCELLED: "cancelled"}
            self.counters[counter[state]] += 1
            run_seconds = job.run_seconds()
            if run_seconds is not None:
                self.run_latency.observe(run_seconds)
            self._emit(job, state, **({"error": error} if error else {}))

    def _note_progress(self, job: Job, update: dict[str, Any]) -> None:
        """Executor-side progress callback target: update the job's
        live progress and fan the event out to streamers/journal."""
        with self._cond:
            job.progress = dict(update)
            self._emit(job, "progress", **update)

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
                    progress=lambda update, job=job: self._note_progress(
                        job, update
                    ),
                    job_info={
                        "trace_id": job.trace_id,
                        "job_id": job.id,
                        "submitted_wall": job.created,
                        "submitted_mono": job.created_mono,
                        "started_mono": job.started_mono,
                    },
                )
                if job.cancel_event.is_set():
                    # cancelled too late to interrupt: discard, never
                    # publish a run the client asked to kill
                    raise JobCancelled()
                self.store.publish(job.key, meta, artifacts)
            except JobCancelled:
                self._finish(job, CANCELLED)
            except Exception:
                self._finish(job, FAILED, error=traceback.format_exc(limit=8))
            else:
                self._finish(job, DONE)
