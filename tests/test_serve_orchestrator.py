"""Orchestrator lifecycle tests (ISSUE 6 satellite).

Covered: priority ordering, cancellation of queued and of running
jobs, dedup hit on resubmission (no re-execution), failure capture,
and graceful shutdown with jobs in flight.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.orchestrator import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    JobCancelled,
    JobOrchestrator,
    OrchestratorClosed,
)
from repro.serve.store import RunStore

POLL = 0.005


def _spin_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(POLL)


class FakeExecutor:
    """Deterministic executor: records execution order, optionally
    blocks on a gate (to hold a job 'running') and polls
    ``should_cancel`` while blocked (cooperative cancellation)."""

    def __init__(self) -> None:
        self.executed: list[str] = []
        self.gates: dict[str, threading.Event] = {}
        self.started: dict[str, threading.Event] = {}
        self.fail: set[str] = set()
        self._lock = threading.Lock()

    def hold(self, name: str) -> threading.Event:
        """Make job ``name`` block until the returned event is set."""
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
        if name in self.fail:
            raise RuntimeError(f"boom {name}")
        with self._lock:
            self.executed.append(name)
        meta = {"experiment": name}
        return meta, {"report.txt": f"result of {name}\n".encode()}


@pytest.fixture()
def rig(tmp_path):
    executor = FakeExecutor()
    store = RunStore(tmp_path / "store")
    orch = JobOrchestrator(executor, store, workers=1)
    yield executor, store, orch
    orch.shutdown(drain=False, timeout=10.0)


class TestPriority:
    def test_higher_priority_runs_first_ties_fifo(self, rig):
        executor, _, orch = rig
        # submit before starting workers so the queue order is decided
        # purely by (priority, submission sequence)
        orch.submit({"name": "low-a"}, priority=0)
        orch.submit({"name": "high"}, priority=5)
        orch.submit({"name": "low-b"}, priority=0)
        orch.submit({"name": "mid"}, priority=3)
        orch.start()
        _spin_until(lambda: len(executor.executed) == 4)
        assert executor.executed == ["high", "mid", "low-a", "low-b"]


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, rig):
        executor, store, orch = rig
        blocker_gate = executor.hold("blocker")
        orch.start()
        blocker = orch.submit({"name": "blocker"})
        executor.started["blocker"].wait(5.0)
        victim = orch.submit({"name": "victim"})
        assert victim.state == QUEUED
        assert orch.cancel(victim.id).state == CANCELLED
        blocker_gate.set()
        _spin_until(lambda: orch.get(blocker.id).state == DONE)
        assert orch.get(victim.id).state == CANCELLED
        assert "victim" not in executor.executed
        assert store.get(victim.key) is None
        assert orch.counters["cancelled"] == 1

    def test_cancel_running_job_cooperatively(self, rig):
        executor, store, orch = rig
        executor.hold("runner")  # never released: cancel must break it
        orch.start()
        job = orch.submit({"name": "runner"})
        executor.started["runner"].wait(5.0)
        assert orch.get(job.id).state == "running"
        orch.cancel(job.id)
        finished = orch.wait(job.id, timeout=10.0)
        assert finished.state == CANCELLED
        assert store.get(job.key) is None  # never published
        assert "runner" not in executor.executed

    def test_cancel_unknown_job_raises(self, rig):
        _, _, orch = rig
        with pytest.raises(KeyError):
            orch.cancel("nope")

    def test_cancel_done_job_is_idempotent_noop(self, rig):
        executor, _, orch = rig
        orch.start()
        job = orch.submit({"name": "j"})
        orch.wait(job.id, timeout=10.0)
        assert orch.cancel(job.id).state == DONE


class TestDedup:
    def test_resubmission_served_from_store_without_dispatch(self, rig):
        executor, store, orch = rig
        orch.start()
        first = orch.submit({"name": "job"})
        orch.wait(first.id, timeout=10.0)
        assert first.state == DONE and not first.dedup
        assert store.read_artifact(first.key, "report.txt") == b"result of job\n"

        second = orch.submit({"name": "job"})
        # answered at submission: terminal immediately, never queued
        assert second.state == DONE
        assert second.dedup is True
        assert second.key == first.key
        assert executor.executed == ["job"]  # exactly one real execution
        assert orch.counters["dedup_hits"] == 1
        assert orch.counters["executed"] == 1
        assert orch.dedup_hit_ratio() == 0.5

    def test_different_spec_is_not_deduped(self, rig):
        executor, _, orch = rig
        orch.start()
        a = orch.submit({"name": "a"})
        orch.wait(a.id, timeout=10.0)
        b = orch.submit({"name": "b"})
        orch.wait(b.id, timeout=10.0)
        assert not b.dedup
        assert executor.executed == ["a", "b"]


class TestFailure:
    def test_failed_job_captures_error_and_publishes_nothing(self, rig):
        executor, store, orch = rig
        executor.fail.add("bad")
        orch.start()
        job = orch.submit({"name": "bad"})
        finished = orch.wait(job.id, timeout=10.0)
        assert finished.state == FAILED
        assert "boom bad" in finished.error
        assert store.get(job.key) is None
        assert orch.counters["failed"] == 1
        # a failed run was never stored, so a resubmission retries
        retry = orch.submit({"name": "bad"})
        assert not retry.dedup


class TestGracefulShutdown:
    def test_drain_finishes_in_flight_and_keeps_queue(self, rig):
        executor, store, orch = rig
        gate = executor.hold("slow")
        orch.start()
        slow = orch.submit({"name": "slow"})
        executor.started["slow"].wait(5.0)
        queued = orch.submit({"name": "queued"})

        done = threading.Event()

        def stop():
            orch.shutdown(drain=True, timeout=30.0)
            done.set()

        stopper = threading.Thread(target=stop)
        stopper.start()
        time.sleep(5 * POLL)
        assert not done.is_set()  # draining: blocked on the slow job
        gate.set()
        stopper.join(30.0)
        assert done.is_set()
        # in-flight work completed and published; queued work survived
        assert orch.get(slow.id).state == DONE
        assert store.get(slow.key) is not None
        assert orch.get(queued.id).state == QUEUED
        assert "queued" not in executor.executed

    def test_submit_after_shutdown_rejected(self, rig):
        _, _, orch = rig
        orch.start()
        orch.shutdown(drain=True, timeout=10.0)
        with pytest.raises(OrchestratorClosed):
            orch.submit({"name": "late"})

    def test_non_drain_shutdown_cancels_in_flight(self, rig):
        executor, store, orch = rig
        executor.hold("stuck")  # never released
        orch.start()
        job = orch.submit({"name": "stuck"})
        executor.started["stuck"].wait(5.0)
        orch.shutdown(drain=False, timeout=30.0)
        assert orch.get(job.id).state == CANCELLED
        assert store.get(job.key) is None
