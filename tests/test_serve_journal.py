"""Job journal tests (ISSUE 8): append/replay semantics and daemon
restart recovery.

The acceptance contract under test: a daemon killed with jobs queued
and running can be restarted on the same journal and (a) re-queues
every accepted-but-unstarted job in submission order, (b) marks the
job that was mid-run as interrupted, (c) keeps answering status for
jobs that already finished, with what the live daemon reported — and
a job's full lifecycle is reconstructable from the journal file alone,
with no daemon running.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.serve.journal import JobJournal, default_journal_path, spec_hash
from repro.serve.orchestrator import (
    DONE,
    FAILED,
    QUEUED,
    JobCancelled,
    JobOrchestrator,
)
from repro.serve.store import RunStore

POLL = 0.005

#: the smallest real experiment spec (2 sweep points)
TINY_SPEC = {"experiment": "fig8", "params": {"block_sizes": [64]}}


def _spin_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(POLL)


class FakeExecutor:
    """Deterministic executor that can hold jobs 'running' on a gate
    and reports fake sweep progress through the observer kwarg."""

    def __init__(self) -> None:
        self.executed: list[str] = []
        self.gates: dict[str, threading.Event] = {}
        self.started: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    def hold(self, name: str) -> threading.Event:
        self.gates[name] = threading.Event()
        self.started[name] = threading.Event()
        return self.gates[name]

    def key_for(self, spec: dict) -> str:
        return f"key-{spec['name']}"

    def execute(self, spec, should_cancel, progress=None, job_info=None):
        name = spec["name"]
        started = self.started.get(name)
        if started is not None:
            started.set()
        gate = self.gates.get(name)
        while gate is not None and not gate.is_set():
            if should_cancel():
                raise JobCancelled()
            time.sleep(POLL)
        if progress is not None:
            for done in (1, 2):
                progress({
                    "done": done, "total": 2, "cache_hits": 0,
                    "point": f"{name}[{done - 1}]",
                })
        with self._lock:
            self.executed.append(name)
        return {"experiment": name}, {"report.txt": f"out {name}\n".encode()}


# ----------------------------------------------------------------------
# Journal primitives
# ----------------------------------------------------------------------
class TestJournalPrimitives:
    def test_record_replay_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record("submitted", job="a", key="k", priority=2)
        journal.record("started", job="a")
        journal.record("done", job="a")
        journal.close()
        events = list(JobJournal(journal.path).replay())
        assert [e["t"] for e in events] == ["submitted", "started", "done"]
        # both clocks stamped, monotonic nondecreasing within a process
        for event in events:
            assert event["wall"] > 0 and event["mono"] > 0
        monos = [e["mono"] for e in events]
        assert monos == sorted(monos)
        assert events[0]["priority"] == 2

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record("submitted", job="a", key="k")
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"t": "started", "job": "a", "wal')  # crash mid-write
        events = list(JobJournal(journal.path).replay())
        assert [e["t"] for e in events] == ["submitted"]

    def test_append_after_torn_final_line_starts_a_new_line(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record("submitted", job="a", key="k")
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"t": "started", "job": "a", "wal')  # crash mid-write
        restarted = JobJournal(journal.path)
        restarted.mark_daemon_start()
        restarted.record("submitted", job="b", key="k")
        restarted.close()
        events = list(JobJournal(journal.path).replay())
        assert [e["t"] for e in events] == [
            "submitted", "daemon_start", "submitted"
        ]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert list(JobJournal(tmp_path / "absent.jsonl").replay()) == []

    def test_spec_hash_stable_and_key_order_insensitive(self):
        a = spec_hash({"experiment": "fig8", "params": {"n": 1}})
        b = spec_hash({"params": {"n": 1}, "experiment": "fig8"})
        assert a == b and len(a) == 16
        assert a != spec_hash({"experiment": "fig8", "params": {"n": 2}})

    def test_reconstruct_folds_lifecycle(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.mark_daemon_start()  # markers must not confuse replay
        # older journals carry priority and trace_id: replay ignores them
        journal.record(
            "submitted", job="a", key="ka", spec={"name": "a"},
            priority=5, trace_id="a",
        )
        journal.record("submitted", job="b", key="kb", spec={"name": "b"},
                       priority=0, trace_id="b")
        journal.record("started", job="a")
        journal.record("progress", job="a", done=1, total=2, cache_hits=1,
                       point="a[0]")
        journal.record("done", job="a")
        journal.close()
        jobs = JobJournal(journal.path).reconstruct()
        assert list(jobs) == ["a", "b"]  # first-submission order
        assert jobs["a"]["state"] == "done"
        assert jobs["a"]["progress"] == {
            "done": 1, "total": 2, "cache_hits": 1, "point": "a[0]",
        }
        assert jobs["a"]["finished_at"] >= jobs["a"]["submitted_at"]
        assert jobs["a"]["trace_id"] == "a"
        assert jobs["b"]["state"] == "queued"

    def test_reconstruct_marks_interrupted_as_failed(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record("submitted", job="a", key="ka", spec={})
        journal.record("started", job="a")
        journal.record(
            "interrupted", job="a", error="interrupted by daemon restart"
        )
        journal.close()
        rec = JobJournal(journal.path).reconstruct()["a"]
        assert rec["state"] == "failed"
        assert "interrupted" in rec["error"]

    def test_default_journal_path_lives_with_the_store(self, tmp_path):
        assert default_journal_path(tmp_path) == tmp_path / "journal.jsonl"


# ----------------------------------------------------------------------
# Restart recovery through the orchestrator
# ----------------------------------------------------------------------
class TestRestartRecovery:
    def test_crash_requeues_queued_and_marks_running_interrupted(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        store = RunStore(tmp_path / "store")

        # daemon #1: one job running (held on a gate), two queued
        executor_a = FakeExecutor()
        gate = executor_a.hold("stuck")
        orch_a = JobOrchestrator(
            executor_a, store, workers=1, journal=JobJournal(path)
        )
        orch_a.start()
        stuck = orch_a.submit({"name": "stuck"})
        executor_a.started["stuck"].wait(5.0)
        first = orch_a.submit({"name": "first"})
        second = orch_a.submit({"name": "second"})
        assert orch_a.get(first.id).state == QUEUED

        # daemon #2 on the same journal — #1 is simply abandoned, as a
        # kill -9 would leave it (no terminal events were journaled)
        executor_b = FakeExecutor()
        orch_b = JobOrchestrator(
            executor_b, store, workers=1, journal=JobJournal(path)
        )
        counts = orch_b.recover()
        assert counts == {"requeued": 2, "interrupted": 1, "terminal": 0}
        assert orch_b.counters["recovered"] == 2
        assert orch_b.counters["interrupted"] == 1

        # the mid-run job is honestly failed, spec preserved for retry
        revived = orch_b.get(stuck.id)
        assert revived.state == FAILED
        assert "interrupted" in revived.error
        assert revived.recovered is True
        assert revived.spec == {"name": "stuck"}

        # queued jobs survived in submission order
        assert orch_b.get(first.id).state == QUEUED
        assert orch_b.get(second.id).state == QUEUED
        orch_b.start()
        _spin_until(lambda: len(executor_b.executed) == 2)
        assert executor_b.executed == ["first", "second"]
        orch_b.wait(second.id, timeout=10.0)
        assert orch_b.get(first.id).state == DONE
        assert store.get(orch_b.get(first.id).key) is not None

        # cleanup: unstick daemon #1's worker
        gate.set()
        orch_a.shutdown(drain=False, timeout=10.0)
        orch_b.shutdown(drain=False, timeout=10.0)

    def test_terminal_jobs_keep_answering_after_restart(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = RunStore(tmp_path / "store")
        orch_a = JobOrchestrator(
            FakeExecutor(), store, workers=1, journal=JobJournal(path)
        )
        orch_a.start()
        job = orch_a.submit({"name": "j"})
        orch_a.wait(job.id, timeout=10.0)
        orch_a.shutdown(drain=True, timeout=10.0)

        orch_b = JobOrchestrator(
            FakeExecutor(), store, workers=1, journal=JobJournal(path)
        )
        counts = orch_b.recover()
        assert counts == {"requeued": 0, "interrupted": 0, "terminal": 1}
        revived = orch_b.get(job.id)
        assert revived.state == DONE
        assert revived.key == job.key
        assert revived.as_dict()["trace_id"] == job.id
        # ...and its artifacts are still fetchable through the store
        assert store.read_artifact(revived.key, "report.txt") == b"out j\n"
        # resubmission of the same work dedups against the store
        again = orch_b.submit({"name": "j"})
        assert again.dedup is True
        orch_b.shutdown(drain=False, timeout=10.0)

    def test_replay_keeps_what_the_live_daemon_reported(self, tmp_path):
        """A dedup hit's flag rides its ``done`` event, journaled after
        ``submitted``: replay must read it from there."""
        path = tmp_path / "journal.jsonl"
        store = RunStore(tmp_path / "store")
        orch_a = JobOrchestrator(
            FakeExecutor(), store, workers=1, journal=JobJournal(path)
        )
        orch_a.start()
        first = orch_a.submit({"name": "j"})
        orch_a.wait(first.id, timeout=10.0)
        hit = orch_a.submit({"name": "j"})
        assert hit.dedup is True
        orch_a.shutdown(drain=True, timeout=10.0)
        orch_a.journal.close()

        orch_b = JobOrchestrator(
            FakeExecutor(), store, workers=1, journal=JobJournal(path)
        )
        orch_b.recover()
        assert orch_b.get(hit.id).dedup is True
        assert orch_b.get(first.id).dedup is False
        records = JobJournal(path).reconstruct()
        assert records[hit.id]["dedup"] is True
        assert records[first.id]["dedup"] is False
        for job in (first, hit):
            live, replayed = job.as_dict(), orch_b.get(job.id).as_dict()
            for key in ("state", "key", "spec", "submitted_at", "started_at",
                        "finished_at", "error", "progress", "trace_id"):
                assert replayed[key] == live[key], key

    def test_recovered_job_streams_its_journaled_history(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = RunStore(tmp_path / "store")
        orch_a = JobOrchestrator(
            FakeExecutor(), store, workers=1, journal=JobJournal(path)
        )
        orch_a.start()
        job = orch_a.submit({"name": "j"})
        orch_a.wait(job.id, timeout=10.0)
        orch_a.shutdown(drain=True, timeout=10.0)
        orch_a.journal.close()
        live = list(orch_a.stream_events(job.id, timeout=1.0))[1:]

        orch_b = JobOrchestrator(
            FakeExecutor(), store, workers=1, journal=JobJournal(path)
        )
        orch_b.recover()
        events = list(orch_b.stream_events(job.id, poll=POLL, timeout=1.0))
        assert [e["event"] for e in events] == [
            "snapshot", "submitted", "started", "progress", "progress",
            "done",
        ]
        assert events[1:] == live

    def test_lifecycle_reconstructable_from_journal_alone(self, tmp_path):
        """The journal file by itself — daemon gone — tells the whole
        story: submit, start, per-point progress, completion."""
        path = tmp_path / "journal.jsonl"
        orch = JobOrchestrator(
            FakeExecutor(), RunStore(tmp_path / "store"), workers=1,
            journal=JobJournal(path),
        )
        orch.start()
        job = orch.submit({"name": "j"})
        orch.wait(job.id, timeout=10.0)
        orch.shutdown(drain=True, timeout=10.0)
        orch.journal.close()

        # raw JSONL: every line decodes on its own
        lines = path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["t"] for e in events] == [
            "submitted", "started", "progress", "progress", "done",
        ]
        submitted = events[0]
        assert submitted["job"] == job.id
        assert submitted["spec"] == {"name": "j"}
        assert len(submitted["spec_hash"]) == 16

        rec = JobJournal(path).reconstruct()[job.id]
        assert rec["state"] == "done"
        assert rec["progress"]["done"] == rec["progress"]["total"] == 2
        assert rec["submitted_at"] <= rec["started_at"] <= rec["finished_at"]

    def test_journaled_partitions_job_fails_cleanly(self, tmp_path):
        """An older daemon accepted a ``partitions`` spec key (split a
        run across shard processes). Simulation is serial now, so a
        journaled job carrying it must fail on replay with an error
        naming the key, and the daemon must go on serving."""
        from repro.serve.executor import ExperimentExecutor

        path = tmp_path / "journal.jsonl"
        old_spec = {"experiment": "fig11", "quick": True, "partitions": 2}
        JobJournal(path).record(
            "submitted", job="old", key="0" * 64, spec=old_spec,
            spec_hash=spec_hash(old_spec),
        )
        orch = JobOrchestrator(
            ExperimentExecutor(), RunStore(tmp_path / "store"), workers=1,
            journal=JobJournal(path),
        )
        assert orch.recover()["requeued"] == 1
        orch.start()
        try:
            old = orch.wait("old", timeout=60.0)
            assert old.state == FAILED
            assert "partitions" in old.error
            fresh = orch.submit(TINY_SPEC)
            assert orch.wait(fresh.id, timeout=60.0).state == DONE
        finally:
            orch.shutdown(drain=False, timeout=10.0)

    def test_recover_without_journal_is_a_noop(self, tmp_path):
        orch = JobOrchestrator(FakeExecutor(), RunStore(tmp_path / "s"))
        assert orch.recover() == {
            "requeued": 0, "interrupted": 0, "terminal": 0,
        }


# ----------------------------------------------------------------------
# Live event streaming (what the SSE endpoint serves)
# ----------------------------------------------------------------------
class TestStreamEvents:
    def test_stream_replays_history_then_follows_to_terminal(
        self, tmp_path
    ):
        executor = FakeExecutor()
        gate = executor.hold("j")
        orch = JobOrchestrator(executor, RunStore(tmp_path / "s"), workers=1)
        orch.start()
        job = orch.submit({"name": "j"})
        executor.started["j"].wait(5.0)

        collected: list[dict] = []

        def follow():
            for event in orch.stream_events(job.id, poll=POLL, timeout=10.0):
                collected.append(event)

        follower = threading.Thread(target=follow)
        follower.start()
        _spin_until(lambda: any(
            e["event"] == "started" for e in collected
        ))
        gate.set()
        follower.join(10.0)
        assert not follower.is_alive()

        kinds = [e["event"] for e in collected]
        assert kinds[0] == "snapshot"
        assert kinds[-1] == "done"  # the stream ends at the terminal event
        # strict lifecycle order with progress in between
        assert (
            kinds.index("submitted")
            < kinds.index("started")
            < kinds.index("progress")
            < kinds.index("done")
        )
        dones = [e["done"] for e in collected if e["event"] == "progress"]
        assert dones == [1, 2]
        orch.shutdown(drain=False, timeout=10.0)

    def test_snapshot_reports_queue_position(self, tmp_path):
        orch = JobOrchestrator(
            FakeExecutor(), RunStore(tmp_path / "s"), workers=1
        )
        # workers never started: all three stay queued
        orch.submit({"name": "a"})
        orch.submit({"name": "b"})
        third = orch.submit({"name": "c"})
        stream = orch.stream_events(third.id, timeout=0.1)
        snapshot = next(stream)
        assert snapshot["event"] == "snapshot"
        assert snapshot["queue_position"] == 3
        assert snapshot["job"]["state"] == QUEUED
        stream.close()

    def test_stream_unknown_job_raises(self, tmp_path):
        orch = JobOrchestrator(
            FakeExecutor(), RunStore(tmp_path / "s"), workers=1
        )
        with pytest.raises(KeyError):
            next(orch.stream_events("nope"))

    def test_stream_timeout_ends_without_terminal(self, tmp_path):
        orch = JobOrchestrator(
            FakeExecutor(), RunStore(tmp_path / "s"), workers=1
        )
        job = orch.submit({"name": "j"})  # never runs: no workers
        events = list(orch.stream_events(job.id, poll=POLL, timeout=0.1))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "snapshot"
        assert "done" not in kinds
