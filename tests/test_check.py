"""Tests for the ``repro.check`` dynamic-analysis subsystem."""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    CHECKER_NAMES,
    CheckerSet,
    CheckReport,
    Finding,
    hooks,
    validate_checks,
)
from repro.check.validate import main as validate_main
from repro.machine import Machine, MachineConfig
from repro.memory.address import home_of
from repro.memory.cache import LineState
from repro.proc import Compute, Load, Store
from repro.runtime.sync import Future, SpinLock
from repro.sim.engine import SimulationError


def checked_machine(n_nodes=2, checks=CHECKER_NAMES, **kw):
    m = Machine(MachineConfig(n_nodes=n_nodes))
    return m, CheckerSet(m, checks=checks, **kw)


# ----------------------------------------------------------------------
# Race detector: detection
# ----------------------------------------------------------------------
class TestRaceDetection:
    def test_unsynchronized_write_read_detected(self):
        m, cs = checked_machine(checks=("race",))
        addr = m.alloc(0, 8)

        def writer():
            yield Store(addr, 7)

        def reader():
            yield Compute(200)  # run after the write, with no HB edge
            v = yield Load(addr)
            assert v == 7

        m.processor(0).run_thread(writer(), label="writer")
        m.processor(1).run_thread(reader(), label="reader")
        m.run()
        rep = cs.finalize()
        assert rep.total == 1
        f = rep.findings[0]
        assert f.checker == "race"
        assert f.kind == "write-read"
        assert f.addr == addr
        # both conflicting source sites are reported
        assert len(f.sites) == 2
        assert all("test_check.py" in s for s in f.sites)
        assert "(writer)" in f.sites[0] and "(reader)" in f.sites[1]

    def test_write_write_race_detected(self):
        m, cs = checked_machine(checks=("race",))
        addr = m.alloc(0, 8)

        def bump(node):
            v = yield Load(addr)
            yield Compute(50)
            yield Store(addr, v + 1)

        m.processor(0).run_thread(bump(0), label="a")
        m.processor(1).run_thread(bump(1), label="b")
        m.run()
        rep = cs.finalize()
        kinds = {f.kind for f in rep.findings}
        assert kinds & {"write-write", "read-write", "write-read"}
        assert all(f.addr == addr for f in rep.findings)

    def test_future_orders_the_same_pair(self):
        m, cs = checked_machine(checks=("race",))
        addr = m.alloc(0, 8)
        fut = Future()

        def writer():
            yield Store(addr, 7)
            fut.resolve(None)

        def reader():
            yield from fut.wait()
            yield Load(addr)

        m.processor(0).run_thread(writer(), label="writer")
        m.processor(1).run_thread(reader(), label="reader")
        m.run()
        assert cs.finalize().total == 0

    def test_spinlock_orders_critical_sections(self):
        m, cs = checked_machine(checks=("race",))
        addr = m.alloc(0, 8)
        lock = SpinLock(m.alloc(0, 8))

        def bump(node):
            yield from lock.acquire()
            v = yield Load(addr)
            yield Compute(30)
            yield Store(addr, v + 1)
            yield from lock.release()

        for node in (0, 1):
            m.processor(node).run_thread(bump(node), label=f"bump{node}")
        m.run()
        assert cs.finalize().total == 0, cs.report.summarize()
        assert m.store.read(addr) == 2

    def test_same_context_never_races_with_itself(self):
        m, cs = checked_machine(checks=("race",))
        addr = m.alloc(0, 8)

        def worker():
            for i in range(4):
                yield Store(addr, i)
                yield Load(addr)

        m.processor(0).run_thread(worker(), label="w")
        m.run()
        assert cs.finalize().total == 0

    def test_duplicate_race_reported_once(self):
        """The same (addr, kind, site-pair) is deduplicated."""
        m, cs = checked_machine(checks=("race",))
        addr = m.alloc(0, 8)

        def writer():
            yield Store(addr, 1)

        def reader():
            yield Compute(200)
            for _ in range(5):
                yield Load(addr)

        m.processor(0).run_thread(writer(), label="w")
        m.processor(1).run_thread(reader(), label="r")
        m.run()
        assert cs.finalize().total == 1


# ----------------------------------------------------------------------
# Seeded mutations of the shipped workloads: removing the
# synchronization from a correct program must surface as findings.
# ----------------------------------------------------------------------
def _accum_workload(m, synchronized):
    """Fig.8-style accumulate, folded into a *shared* total word; the
    mutation removes the lock around the read-modify-write."""
    from repro.apps.accum import fill_array

    n = 8
    array = m.alloc(0, n * 8)
    fill_array(m, array, n)
    total = m.alloc(0, 8)
    lock = SpinLock(m.alloc(0, 8))

    def summer(node, lo, hi):
        acc = 0
        for i in range(lo, hi):
            v = yield Load(array + i * 8)
            acc += v
            yield Compute(2)
        if synchronized:
            yield from lock.acquire()
        t = yield Load(total)
        yield Compute(2)
        yield Store(total, t + acc)
        if synchronized:
            yield from lock.release()

    m.processor(0).run_thread(summer(0, 0, n // 2), label="sum0")
    m.processor(1).run_thread(summer(1, n // 2, n), label="sum1")
    return total


def _barrier_workload(m, synchronized):
    """Barrier-phased writer/readers; the mutation removes the barrier."""
    from repro.runtime.barrier import SMTreeBarrier

    barrier = SMTreeBarrier(m, arity=2) if synchronized else None
    addr = m.alloc(0, 8)

    def member(node):
        if node == 0:
            yield Store(addr, 42)
        if barrier is not None:
            yield from barrier.enter(node)
        else:
            yield Compute(1)  # the mutation: no barrier between phases
        if node != 0:
            yield Load(addr)

    for node in range(m.n_nodes):
        m.processor(node).run_thread(member(node), label=f"n{node}")
    return addr


class TestSeededMutations:
    @pytest.mark.parametrize("workload,n_nodes", [
        (_accum_workload, 2),
        (_barrier_workload, 4),
    ])
    def test_desynchronized_variant_is_flagged(self, workload, n_nodes):
        m, cs = checked_machine(n_nodes=n_nodes, checks=("race",))
        addr = workload(m, synchronized=False)
        m.run()
        rep = cs.finalize()
        assert rep.total >= 1, "mutation removed sync but no race reported"
        assert all(f.addr == addr for f in rep.findings)
        assert all(
            all("test_check.py" in s for s in f.sites) for f in rep.findings
        )

    @pytest.mark.parametrize("workload,n_nodes", [
        (_accum_workload, 2),
        (_barrier_workload, 4),
    ])
    def test_synchronized_variant_is_clean(self, workload, n_nodes):
        m, cs = checked_machine(n_nodes=n_nodes, checks=CHECKER_NAMES)
        workload(m, synchronized=True)
        m.run()
        rep = cs.finalize()
        assert rep.total == 0, rep.summarize()


# ----------------------------------------------------------------------
# Coherence sanitizer (violations require corrupting protocol state by
# hand — the real protocol maintains the invariants)
# ----------------------------------------------------------------------
def _dirty_line(m):
    """Run a store on node 0; return its (MODIFIED) cache line."""
    addr = m.alloc(0, 8)

    def writer():
        yield Store(addr, 1)

    m.processor(0).run_thread(writer(), label="w")
    m.run()
    lines = [
        ln for ln in m.nodes[0].cache.resident_lines()
        if m.nodes[0].cache.state(ln) in (LineState.MODIFIED, LineState.EXCLUSIVE)
    ]
    assert lines
    return lines[0]


class TestCoherenceSanitizer:
    def test_clean_run_no_findings(self):
        m, cs = checked_machine(n_nodes=4, checks=("coherence",))
        addr = m.alloc(0, 8)

        def worker(node):
            yield Store(addr, node)
            yield Load(addr)

        for node in range(4):
            m.processor(node).run_thread(worker(node))
        m.run()
        assert cs.finalize().total == 0

    def test_stale_dirty_line_at_quiescence(self):
        m, cs = checked_machine(checks=("coherence",))
        line = _dirty_line(m)
        entry = m.nodes[home_of(line)].directory.peek(line)
        entry.owner = 1  # corrupt: home now credits the wrong node
        rep = cs.finalize()
        assert any(
            f.kind == "stale-dirty-line" and f.addr == line for f in rep.findings
        )

    def test_live_swmr_violation(self):
        m, cs = checked_machine(checks=("coherence",))
        line = _dirty_line(m)
        # corrupt: a second cache claims ownership of the same line
        m.nodes[1].cache.fill(line, LineState.MODIFIED)
        assert any(f.kind == "multiple-owners" for f in cs.report.findings)
        cs.finalize()

    def test_live_directory_entry_inconsistency(self):
        m, cs = checked_machine(checks=("coherence",))
        line = _dirty_line(m)
        directory = m.nodes[home_of(line)].directory
        directory.peek(line).sharers.add(1)  # EXCLUSIVE entry with a sharer
        directory.drop_sharer(line, 3)  # any mutation triggers the check
        assert any(
            f.kind == "directory-inconsistent" for f in cs.report.findings
        )
        cs.finalize()


# ----------------------------------------------------------------------
# Deadlock / livelock watchdog
# ----------------------------------------------------------------------
class TestDeadlockWatchdog:
    def test_spin_starvation_flagged_once(self):
        m, cs = checked_machine(checks=("deadlock",), spin_limit=50)
        addr = m.alloc(0, 8)

        def spinner():
            for _ in range(120):
                yield Load(addr)  # never-satisfied condition poll

        m.processor(0).run_thread(spinner(), label="spinner")
        m.run()
        rep = cs.finalize()
        spins = [f for f in rep.findings if f.kind == "spin-starvation"]
        assert len(spins) == 1
        assert spins[0].addr == addr
        assert "test_check.py" in spins[0].sites[0]

    def test_productive_loop_not_flagged(self):
        m, cs = checked_machine(checks=("deadlock",), spin_limit=50)
        addr = m.alloc(0, 8)

        def worker():
            for i in range(120):
                yield Load(addr)
                yield Store(addr, i)  # a store resets the spin counter

        m.processor(0).run_thread(worker(), label="w")
        m.run()
        assert cs.finalize().total == 0

    def test_unresolved_future_reported_at_quiescence(self):
        m, cs = checked_machine(checks=("deadlock",))
        fut = Future()  # nobody ever resolves this

        def waiter():
            yield from fut.wait()

        m.processor(1).run_thread(waiter(), label="waiter")
        m.run()
        rep = cs.finalize()
        stuck = [f for f in rep.findings if f.kind == "suspended-at-quiescence"]
        assert len(stuck) == 1
        assert stuck[0].node == 1
        assert "waiter" in stuck[0].message
        assert "sync.py" in stuck[0].sites[0]  # parked inside Future.wait

    def test_resumed_suspension_is_clean(self):
        m, cs = checked_machine(checks=("deadlock",))
        fut = Future()

        def waiter():
            yield from fut.wait()

        def resolver():
            yield Compute(100)
            fut.resolve(1)

        m.processor(0).run_thread(waiter(), label="waiter")
        m.processor(1).run_thread(resolver(), label="resolver")
        m.run()
        assert cs.finalize().total == 0


# ----------------------------------------------------------------------
# Future double-resolution guard (satellite of the checker work)
# ----------------------------------------------------------------------
class TestFutureDoubleResolve:
    def test_double_resolve_reports_both_sites(self):
        fut = Future()
        fut.resolve(1)
        with pytest.raises(SimulationError) as ei:
            fut.resolve(2)
        msg = str(ei.value)
        assert "resolved twice" in msg
        assert msg.count("test_check.py") == 2  # first AND second site
        assert "first value 1" in msg and "second 2" in msg


# ----------------------------------------------------------------------
# CheckerSet mechanics
# ----------------------------------------------------------------------
class TestCheckerSet:
    def test_finalize_idempotent_and_detaches(self):
        m, cs = checked_machine()
        proc = m.processor(0)
        assert proc.before_execute  # subscribed
        rep = cs.finalize()
        assert cs.finalize() is rep
        assert proc.before_execute == ()  # unsubscribed
        assert hooks.SINKS == []

    def test_context_manager_finalizes(self):
        m = Machine(MachineConfig(n_nodes=2))
        with CheckerSet(m, checks=("race",)) as cs:
            assert hooks.SINKS
        assert hooks.SINKS == []

    def test_on_finding_callback(self):
        seen = []
        m, cs = checked_machine(checks=("race",), on_finding=seen.append)
        addr = m.alloc(0, 8)

        def writer():
            yield Store(addr, 1)

        def reader():
            yield Compute(100)
            yield Load(addr)

        m.processor(0).run_thread(writer())
        m.processor(1).run_thread(reader())
        m.run()
        cs.finalize()
        assert len(seen) == 1 and isinstance(seen[0], Finding)

    def test_checkers_do_not_perturb_simulated_time(self):
        def run(checked):
            m = Machine(MachineConfig(n_nodes=2))
            cs = CheckerSet(m) if checked else None
            addr = m.alloc(0, 8)
            lock = SpinLock(m.alloc(0, 8))

            def bump(node):
                yield from lock.acquire()
                v = yield Load(addr)
                yield Store(addr, v + 1)
                yield from lock.release()

            for node in (0, 1):
                m.processor(node).run_thread(bump(node))
            m.run()
            if cs is not None:
                assert cs.finalize().total == 0
            return m.sim.now

        assert run(False) == run(True)

    def test_validate_checks(self):
        assert validate_checks(["deadlock", "race", "race"]) == ("race", "deadlock")
        assert validate_checks(CHECKER_NAMES) == CHECKER_NAMES
        with pytest.raises(ValueError, match="bogus"):
            validate_checks(["race", "bogus"])


# ----------------------------------------------------------------------
# Hook sinks act per machine thread
# ----------------------------------------------------------------------
class TestHookIsolation:
    def test_sink_ignores_hook_calls_of_another_threads_machine(self):
        # machine A is mid-step in a program that signals no hook while
        # machine B, checked on another thread, runs a hybrid grain
        # whose futures and tasks signal and observe hooks
        from repro.apps.grain import grain_parallel
        from repro.runtime import Runtime

        a_stepping, b_done = threading.Event(), threading.Event()
        detectors, errors = {}, []

        def program():
            yield Compute(10)
            a_stepping.set()
            assert b_done.wait(timeout=60)
            yield Compute(10)

        def run_a():
            m, cs = checked_machine(checks=("race",))
            detectors["a"] = cs.checkers[0]
            m.processor(0).run_thread(program())
            m.run()
            cs.finalize()

        def run_b():
            try:
                assert a_stepping.wait(timeout=60)
                m, cs = checked_machine(n_nodes=4, checks=("race",))
                detectors["b"] = cs.checkers[0]
                rt = Runtime(m, scheduler="hybrid")
                rt.run_to_completion(0, lambda rt, nd: grain_parallel(rt, nd, 4, 0))
                cs.finalize()
            finally:
                b_done.set()

        def guarded(fn):
            try:
                fn()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(fn,)) for fn in (run_a, run_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == [] and not any(t.is_alive() for t in threads)
        assert detectors["b"]._slots  # B's detector took B's hook calls
        assert detectors["a"]._slots == {}
        assert hooks.SINKS == []

    def test_hook_calls_reach_every_sink_while_others_register(self):
        # one thread unregistering its sink must not make another
        # thread's call skip a sink it holds
        class Sink:
            def __init__(self):
                self.thread, self.calls = threading.get_ident(), 0

            def signal(self, key):
                self.calls += threading.get_ident() == self.thread
                time.sleep(0)  # hand the interpreter lock over mid-loop

        missed, errors = [], []

        def worker():
            try:
                for _ in range(500):
                    sink = Sink()
                    hooks.register(sink)
                    hooks.signal(("k",))
                    hooks.unregister(sink)
                    if sink.calls != 1:
                        missed.append(sink.calls)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and not any(t.is_alive() for t in threads)
        assert missed == []
        assert hooks.SINKS == []


# ----------------------------------------------------------------------
# CheckReport: merging, caps, serialization
# ----------------------------------------------------------------------
def _finding(i=0, checker="race"):
    return Finding(
        checker=checker, kind="write-write", time=i, node=0,
        message=f"f{i}", addr=0x10 + i, sites=(f"a.py:{i}", f"b.py:{i}"),
    )


class TestCheckReport:
    def test_cap_counts_dropped(self):
        rep = CheckReport(max_findings=2)
        for i in range(5):
            rep.add(_finding(i))
        assert len(rep.findings) == 2
        assert rep.dropped == 3
        assert rep.total == 5
        assert rep.counts == {"race": 5}

    def test_merge_preserves_order_and_counts(self):
        a, b = CheckReport(), CheckReport()
        a.add(_finding(0))
        b.add(_finding(1, checker="deadlock"))
        a.merge(b)
        assert [f.message for f in a.findings] == ["f0", "f1"]
        assert a.counts == {"race": 1, "deadlock": 1}

    def test_dict_round_trip(self):
        rep = CheckReport()
        rep.add(_finding(3))
        back = CheckReport.from_dict(
            json.loads(json.dumps(rep.as_dict()))
        )
        assert back.findings == rep.findings
        assert back.counts == rep.counts
        assert isinstance(back.findings[0].sites, tuple)

    def test_summarize(self):
        rep = CheckReport()
        assert rep.summarize() == "check: no findings"
        rep.add(_finding(1))
        text = rep.summarize()
        assert "1 finding" in text and "0x11" in text and "a.py:1" in text


# ----------------------------------------------------------------------
# The findings gate: python -m repro.check over run.json manifests
# ----------------------------------------------------------------------
class TestValidateCli:
    def _manifest(self, tmp_path, name, check):
        p = tmp_path / name
        p.write_text(json.dumps({"experiment": "x", "check": check}))
        return str(p)

    def test_clean_manifests_exit_zero(self, tmp_path, capsys):
        clean = CheckReport().as_dict()
        p = self._manifest(tmp_path, "run1.json", clean)
        assert validate_main([p]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_nonzero_and_write_artifact(self, tmp_path, capsys):
        rep = CheckReport()
        rep.add(_finding(0))
        p1 = self._manifest(tmp_path, "run1.json", rep.as_dict())
        p2 = self._manifest(tmp_path, "run2.json", CheckReport().as_dict())
        out = tmp_path / "findings.json"
        assert validate_main([p1, p2, "--out", str(out)]) == 1
        merged = json.loads(out.read_text())
        assert merged["total"] == 1
        assert capsys.readouterr().out.startswith("check: 1 finding")

    def test_unchecked_manifest_noted(self, tmp_path, capsys):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"experiment": "x"}))
        assert validate_main([str(p)]) == 0
        assert "no check section" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert validate_main([]) == 2
        assert validate_main(["--out"]) == 2
        assert validate_main(["--bogus", "x.json"]) == 2
        assert "usage:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Observability-session + trace wiring
# ----------------------------------------------------------------------
class TestSessionWiring:
    def test_session_collects_findings_and_mirrors_to_trace(self):
        from repro.experiments.common import make_machine
        from repro.obs.session import ObsConfig, session

        cfg = ObsConfig(check=("race",), trace=True, trace_kinds=("check",))
        with session(cfg) as s:
            m = make_machine(2)
            addr = m.alloc(0, 8)

            def writer():
                yield Store(addr, 1)

            def reader():
                yield Compute(100)
                yield Load(addr)

            m.processor(0).run_thread(writer(), label="w")
            m.processor(1).run_thread(reader(), label="r")
            m.run()
            data = s.data()
        assert data["check"]["total"] == 1
        rec = data["records"][0]
        assert rec["check"]["total"] == 1
        check_events = [ev for ev in rec["trace"] if ev[2] == "check"]
        assert check_events and check_events[0][3] == "write-read"

    def test_absorb_merges_worker_findings(self):
        from repro.obs.session import ObsConfig, ObsSession

        rep = CheckReport()
        rep.add(_finding(0))
        s = ObsSession(ObsConfig(check=("race",)))
        s.absorb({"records": [], "metrics": None,
                  "cycle_attribution": None, "check": rep.as_dict()})
        s.absorb({"records": [], "metrics": None,
                  "cycle_attribution": None, "check": rep.as_dict()})
        assert s.check.total == 2

    def test_cli_run_experiment_with_checkers(self, tmp_path):
        from repro.cli import run_experiment

        out = run_experiment(
            "barrier", quick=True,
            metrics_out=str(tmp_path / "run.json"),
            check="race,coherence,deadlock",
        )
        assert "check: no findings" in out
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["check"]["total"] == 0
        # the manifest gates cleanly through the validator
        assert validate_main([str(tmp_path / "run.json")]) == 0

    def test_cli_rejects_unknown_checker(self):
        from repro.cli import run_experiment

        with pytest.raises(SystemExit, match="bogus"):
            run_experiment("barrier", quick=True, check="race,bogus")


# ----------------------------------------------------------------------
# All shipped experiments: zero findings AND cycle-identical when fully
# checked (the checkers must never perturb simulated time)
# ----------------------------------------------------------------------
GOLDEN = Path(__file__).parent / "golden" / "cycle_identity.json"

CONFIGS = {
    "barrier": dict(n_nodes=16),
    "rti": dict(n_nodes=16, trials=3),
    "fig7": dict(block_sizes=(64, 256, 1024)),
    "fig8": dict(block_sizes=(64, 256, 1024)),
    "fig9": dict(delays=(0, 1000), depth=9, n_nodes=16),
    "fig10": dict(tols=(3e-3, 1e-3), n_nodes=16),
    "fig11": dict(grid_sizes=(32,), n_nodes=16, iters=3),
    "faults": dict(loss_rates=(0.0, 0.05), nbytes=512, n_nodes=16, episodes=2),
}


@pytest.mark.parametrize("exp_id", sorted(CONFIGS))
def test_checked_experiment_clean_and_cycle_identical(exp_id):
    from repro.experiments import ALL_EXPERIMENTS
    from repro.obs.session import ObsConfig, session

    golden = json.loads(GOLDEN.read_text())
    cfg = ObsConfig(check=CHECKER_NAMES)
    with session(cfg) as s:
        res = ALL_EXPERIMENTS[exp_id](**CONFIGS[exp_id])
        data = s.data()
    assert data["check"]["total"] == 0, (
        f"{exp_id}: checkers flagged a shipped experiment:\n"
        + CheckReport.from_dict(data["check"]).summarize()
    )
    normalized = json.loads(json.dumps(res.rows, default=str))
    assert normalized == golden[exp_id]["rows"], (
        f"{exp_id}: attaching checkers changed simulated cycle counts — "
        "the zero-overhead contract is broken"
    )


# ----------------------------------------------------------------------
# Property: fully-synchronized random programs never produce findings
# ----------------------------------------------------------------------
@given(
    st.integers(2, 4),
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
)
@settings(max_examples=15, deadline=None)
def test_future_synchronized_programs_have_no_findings(n_nodes, delays):
    m = Machine(MachineConfig(n_nodes=n_nodes))
    cs = CheckerSet(m, checks=CHECKER_NAMES)
    addrs = [m.alloc(i % n_nodes, 8) for i in range(len(delays))]
    futs = [Future() for _ in delays]

    def producer(i):
        yield Compute(delays[i])
        yield Store(addrs[i], i + 1)
        futs[i].resolve(i)

    def consumer():
        total = 0
        for i in range(len(delays)):
            yield from futs[i].wait()
            v = yield Load(addrs[i])
            total += v
        return total

    for i in range(len(delays)):
        m.processor(i % n_nodes).run_thread(producer(i), label=f"p{i}")
    m.processor(n_nodes - 1).run_thread(consumer(), label="c")
    m.run()
    rep = cs.finalize()
    assert rep.total == 0, rep.summarize()
