"""Simulation-as-a-service: a long-lived daemon over the sweep runner.

``repro.serve`` wraps the deterministic experiment drivers, the
persistent worker pool (:mod:`repro.perf.sweep`), and the
content-addressed run cache (:mod:`repro.perf.cache`) in a job
service:

* :mod:`repro.serve.store` — the **run store**: completed runs keyed
  by descriptor-hash × code-fingerprint × observation key, artifacts
  (``run.json``, report text, table rows, Perfetto trace) published
  atomically.
* :mod:`repro.serve.orchestrator` — the **job orchestrator**: a
  FIFO queue feeding worker threads, a per-job state machine
  (queued → running → done/failed/cancelled) folded from the job's
  own events, dedup against the run store, and graceful shutdown that
  drains in-flight jobs.
* :mod:`repro.serve.journal` — the **job journal**: an append-only
  JSONL event log of every lifecycle transition, replayed on startup
  so queued jobs survive a daemon restart and any job's history can
  be reconstructed offline.
* :mod:`repro.serve.executor` — turns a job spec into an experiment
  run (under the shared run cache and an observation session) and its
  artifact set, streaming per-sweep-point progress back to the
  orchestrator and stitching host-side spans into the job's trace.
* :mod:`repro.serve.api` / :mod:`repro.serve.server` — the REST
  routing table and the stdlib ``ThreadingHTTPServer`` carrying it.
* :mod:`repro.serve.client` — a stdlib HTTP client for the API (the
  ``alewife-repro submit/status/fetch`` subcommands).

Everything is stdlib: the daemon adds no dependency beyond what the
package already ships.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.executor import ExperimentExecutor
from repro.serve.journal import JobJournal, default_journal_path
from repro.serve.orchestrator import (
    Job,
    JobCancelled,
    JobOrchestrator,
    OrchestratorClosed,
)
from repro.serve.store import RunStore

__all__ = [
    "ExperimentExecutor",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JobOrchestrator",
    "OrchestratorClosed",
    "RunStore",
    "ServeClient",
    "ServeError",
    "default_journal_path",
]
