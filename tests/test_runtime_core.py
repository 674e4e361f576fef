"""Tests for futures, locks, and the two task schedulers."""

import pytest

from repro.machine import Machine, MachineConfig
from repro.proc import Compute, Load, Store
from repro.runtime import Future, Runtime, RuntimeParams, SpinLock, TaskState
from repro.sim import SimulationError


def machine(n=4):
    return Machine(MachineConfig(n_nodes=n))


class TestFuture:
    def test_resolve_then_wait(self):
        m = machine()
        fut = Future()
        fut.resolve(5)

        def t():
            v = yield from fut.wait()
            return v

        res = []
        m.processor(0).run_thread(t(), on_finish=res.append)
        m.run()
        assert res == [5]

    def test_wait_then_resolve(self):
        m = machine()
        fut = Future()

        def waiter():
            v = yield from fut.wait()
            return v

        def resolver():
            yield Compute(100)
            fut.resolve("late")

        res = []
        m.processor(0).run_thread(waiter(), on_finish=res.append)
        m.processor(1).run_thread(resolver())
        m.run()
        assert res == ["late"]

    def test_multiple_waiters_all_wake(self):
        m = machine()
        fut = Future()
        res = []
        for node in range(3):
            def waiter():
                v = yield from fut.wait()
                return v

            m.processor(node).run_thread(waiter(), on_finish=res.append)

        def resolver():
            yield Compute(50)
            fut.resolve(9)

        m.processor(3).run_thread(resolver())
        m.run()
        assert res == [9, 9, 9]

    def test_double_resolve_rejected(self):
        fut = Future()
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.resolve(2)

    def test_add_waiter_after_resolution_fires_immediately(self):
        fut = Future()
        fut.resolve(3)
        got = []
        fut.add_waiter(got.append)
        assert got == [3]


class TestSpinLock:
    def test_mutual_exclusion_across_nodes(self):
        m = machine()
        lock = SpinLock(m.alloc(0, 8))
        counter_addr = m.alloc(0, 8)
        in_cs = []

        def worker(tag):
            for _ in range(5):
                yield from lock.acquire()
                v = yield Load(counter_addr)
                in_cs.append(tag)
                yield Compute(20)  # widen the race window
                yield Store(counter_addr, v + 1)
                yield from lock.release()

        for n in range(4):
            m.processor(n).run_thread(worker(n))
        m.run()
        assert m.store.read(counter_addr) == 20

    def test_lock_uncontended_is_cheap(self):
        m = machine()
        lock = SpinLock(m.alloc(0, 8))
        times = []

        def t():
            # warm the line into M state
            yield from lock.acquire()
            yield from lock.release()
            t0 = m.sim.now
            yield from lock.acquire()
            times.append(m.sim.now - t0)
            yield from lock.release()

        m.processor(0).run_thread(t())
        m.run()
        assert times[0] < 20


class TestSchedulers:
    @pytest.mark.parametrize("kind", ["hybrid", "sm"])
    def test_forkjoin_tree_correct(self, kind):
        m = machine(8)
        rt = Runtime(m, scheduler=kind)

        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(30)
                return 1
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left + right

        result, cycles = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 6))
        assert result == 64
        assert cycles > 0

    @pytest.mark.parametrize("kind", ["hybrid", "sm"])
    def test_work_actually_distributes(self, kind):
        m = machine(8)
        rt = Runtime(m, scheduler=kind)

        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(500)
                return node  # which node ran this leaf
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left | right if isinstance(left, int) else None

        # collect the set of nodes leaves ran on via task records
        result, _ = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 7))
        ran_on = {t.ran_on for t in rt.tasks.values() if t.state is TaskState.DONE}
        assert len(ran_on) > 1, "no task ever migrated"
        _att, won = rt.total_steals()
        assert won > 0

    @pytest.mark.parametrize("kind", ["hybrid", "sm"])
    def test_parallel_faster_than_one_node(self, kind):
        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(400)
                return 1
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left + right

        times = {}
        for n in (1, 8):
            m = machine(n)
            rt = Runtime(m, scheduler=kind)
            _res, cycles = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 7))
            times[n] = cycles
        assert times[8] < times[1] / 2.5

    def test_hybrid_beats_sm_at_fine_grain(self):
        """The paper's headline scheduler result (§4.5)."""
        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(10)
                return 1
            yield Compute(28)
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left + right

        cycles = {}
        for kind in ("hybrid", "sm"):
            m = machine(16)
            rt = Runtime(m, scheduler=kind)
            _res, cycles[kind] = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 9))
        assert cycles["hybrid"] < cycles["sm"]

    @pytest.mark.parametrize("kind", ["hybrid", "sm"])
    def test_spawn_to_runs_on_target(self, kind):
        m = machine(4)
        rt = Runtime(m, scheduler=kind)
        ran_on = []

        def remote_body(rt, node):
            yield Compute(5)
            ran_on.append(node)
            return node

        def invoker(rt, node):
            fut = yield from rt.spawn_to(2, remote_body)
            v = yield from rt.join(node, fut)
            return v

        result, _ = rt.run_to_completion(0, invoker)
        assert result == 2
        assert ran_on == [2]

    def test_unknown_scheduler_kind(self):
        with pytest.raises(ValueError):
            Runtime(machine(), scheduler="bogus")

    @pytest.mark.parametrize("kind", ["hybrid", "sm"])
    def test_deterministic_across_runs(self, kind):
        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(50)
                return 1
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left + right

        runs = []
        for _ in range(2):
            m = machine(8)
            rt = Runtime(m, scheduler=kind, seed=7)
            runs.append(rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 6)))
        assert runs[0] == runs[1]

    def test_seed_changes_schedule(self):
        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(50)
                return 1
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left + right

        cycles = []
        for seed in (0, 1):
            m = machine(8)
            rt = Runtime(m, scheduler="hybrid", seed=seed)
            _r, c = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 6))
            cycles.append(c)
        # results equal, schedules (almost surely) differ
        assert cycles[0] != cycles[1]


class TestRuntimeParams:
    # each would livelock the idle loop: a zero quantum polls without
    # the clock advancing, a zero backoff doubles to zero forever
    @pytest.mark.parametrize("kw, match", [
        ({"poll_quantum": 0}, "poll_quantum must be >= 1"),
        ({"steal_backoff": 0}, "steal_backoff must be >= 1"),
        ({"steal_backoff": 100, "steal_backoff_max": 50}, "below steal_backoff"),
    ], ids=["poll_quantum", "steal_backoff", "steal_backoff_max"])
    def test_idle_loop_livelocks_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            RuntimeParams(**kw)
