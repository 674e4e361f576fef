"""The job event journal: append-only JSONL, observability artifact
and durability mechanism in one.

Every job lifecycle event the orchestrator folds into a job is
appended as one JSON line *before* the daemon acts on it:

    {"t": "submitted", "wall": ..., "mono": ..., "job": "ab12...",
     "key": "...", "spec": {...}, "spec_hash": "..."}
    {"t": "started",  "wall": ..., "mono": ..., "job": "ab12..."}
    {"t": "progress", "wall": ..., "mono": ..., "job": "ab12...",
     "done": 3, "total": 8, "cache_hits": 1, "point": "fig8[3]"}
    {"t": "done" | "failed" | "cancelled" | "interrupted", ...}

plus a ``daemon_start`` boundary marker per process so restarts are
visible in the record. A dedup hit's ``done`` event carries
``"dedup": true``, a failure's its ``error``. Two clocks ride every
event: ``wall`` (``time.time``, for humans and cross-host
correlation) and ``mono`` (``time.monotonic``, for durations that
survive NTP steps). Within one daemon process the two share an epoch
pair, so queue/run latency is exact; across restarts only ``wall`` is
comparable.

**Replay** (:func:`repro.serve.orchestrator.replay`) folds the event
stream through ``Job.apply``, the same transition function the live
daemon uses, which is how the orchestrator survives a restart: jobs
whose events leave them ``queued`` are re-queued in original
submission order, jobs that were ``running`` when the daemon died are
marked ``interrupted`` (state ``failed``, the spec preserved so a
resubmission retries), and terminal jobs are re-registered so their
ids — and their run-store keys — keep answering ``GET /v1/jobs/<id>``
and artifact fetches after the restart.

The journal is the source of truth for "what happened": a job's full
lifecycle (submit → queue → per-sweep-point progress → done) is
reconstructable from this file alone, with no daemon running
(:meth:`JobJournal.reconstruct`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator

JOURNAL_NAME = "journal.jsonl"

#: journal line schema version (bump on incompatible event changes)
JOURNAL_SCHEMA = 1


def spec_hash(spec: Any) -> str:
    """A stable short hash of a job spec (sorted-key JSON), carried on
    every ``submitted`` event so journals can be grepped by workload
    without parsing specs."""
    blob = json.dumps(spec, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class JobJournal:
    """Append-only JSONL journal of job lifecycle events.

    Thread-safe: orchestrator workers and the submit path append
    concurrently under one lock, each event flushed as a complete
    line, so a reader (``alewife-repro tail``, ``tail -f``) never sees
    a torn record and a crash loses at most the line being written.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: io.TextIOWrapper | None = None

    # -- write ---------------------------------------------------------
    def _handle(self) -> io.TextIOWrapper:
        if self._fh is None or self._fh.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            if not _ends_with_newline(self.path):
                # a torn final line (crash mid-write) ends where the
                # next record would start: begin a new line, so replay
                # drops only the fragment
                self._fh.write("\n")
        return self._fh

    def record(self, t: str, **fields: Any) -> None:
        """Append one event, stamped with wall + monotonic clocks
        unless ``fields`` carries its own."""
        event = {
            "t": t,
            "wall": time.time(),
            "mono": time.monotonic(),
            **fields,
        }
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            fh = self._handle()
            fh.write(line + "\n")
            fh.flush()

    def mark_daemon_start(self) -> None:
        """The per-process boundary marker (schema, pid)."""
        self.record(
            "daemon_start", schema=JOURNAL_SCHEMA, pid=os.getpid()
        )

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()

    # -- read ----------------------------------------------------------
    def replay(self) -> Iterator[dict[str, Any]]:
        """Yield every decodable event in append order. A torn final
        line (crash mid-write) is skipped, not fatal."""
        if not self.path.is_file():
            return
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn/corrupt line: skip
                if isinstance(event, dict) and "t" in event:
                    yield event

    def reconstruct(self) -> dict[str, dict[str, Any]]:
        """Every journaled job's status dict (``Job.as_dict``), folded
        by the replay the daemon recovers with, in first-submission
        order. A job that was running when its daemon died stays
        ``running`` until a daemon recovers it."""
        from repro.serve.orchestrator import replay

        return {job_id: job.as_dict() for job_id, job in replay(self).items()}


def _ends_with_newline(path: Path) -> bool:
    """True for an empty file or one whose last byte is a newline."""
    with open(path, "rb") as fh:
        if not fh.seek(0, os.SEEK_END):
            return True
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def default_journal_path(store_root: str | Path) -> Path:
    """The journal's home: alongside the run store it describes."""
    return Path(store_root) / JOURNAL_NAME
