"""Tests for Sparcle fast context switching on cache misses."""

import pytest

from repro.machine import Machine, MachineConfig
from repro.params import ProcessorParams
from repro.proc import Compute, Load, Store


def machine(hw_contexts=2, n=4):
    return Machine(
        MachineConfig(
            n_nodes=n, processor=ProcessorParams(hw_contexts=hw_contexts)
        )
    )


def miss_heavy(m, base, count, stride=64):
    """A thread taking a remote miss per iteration (strided, no reuse)."""
    def gen():
        total = 0
        for i in range(count):
            v = yield Load(base + i * stride)
            total += v
            yield Compute(2)
        return total

    return gen()


class TestMissSwitching:
    def test_switches_happen_with_two_threads(self):
        m = machine(hw_contexts=2)
        base1 = m.alloc(1, 64 * 64)
        base2 = m.alloc(2, 64 * 64)
        m.processor(0).run_thread(miss_heavy(m, base1, 20))
        m.processor(0).run_thread(miss_heavy(m, base2, 20))
        m.run()
        assert m.processor(0).stats.miss_switches > 0

    def test_no_switches_with_one_context(self):
        m = machine(hw_contexts=1)
        base1 = m.alloc(1, 64 * 64)
        base2 = m.alloc(2, 64 * 64)
        m.processor(0).run_thread(miss_heavy(m, base1, 20))
        m.processor(0).run_thread(miss_heavy(m, base2, 20))
        m.run()
        assert m.processor(0).stats.miss_switches == 0

    def test_no_switch_without_other_work(self):
        m = machine(hw_contexts=4)
        base = m.alloc(1, 64 * 64)
        m.processor(0).run_thread(miss_heavy(m, base, 20))
        m.run()
        assert m.processor(0).stats.miss_switches == 0

    def test_multithreading_hides_latency(self):
        """Two miss-bound threads on one processor overlap their misses
        with 2 hardware contexts; with 1 they serialize."""
        times = {}
        for hw in (1, 2):
            m = machine(hw_contexts=hw)
            base1 = m.alloc(1, 64 * 64)
            base2 = m.alloc(2, 64 * 64)
            m.processor(0).run_thread(miss_heavy(m, base1, 30))
            m.processor(0).run_thread(miss_heavy(m, base2, 30))
            m.run()
            times[hw] = m.sim.now
        assert times[2] < times[1] * 0.8

    def test_results_identical_across_context_counts(self):
        sums = {}
        for hw in (1, 2, 4):
            m = machine(hw_contexts=hw)
            base1 = m.alloc(1, 64 * 64)
            base2 = m.alloc(2, 64 * 64)
            for i in range(30):
                m.store.write(base1 + i * 64, i)
                m.store.write(base2 + i * 64, i * 2)
            out = []
            m.processor(0).run_thread(miss_heavy(m, base1, 30), on_finish=out.append)
            m.processor(0).run_thread(miss_heavy(m, base2, 30), on_finish=out.append)
            m.run()
            sums[hw] = sorted(out)
        assert sums[1] == sums[2] == sums[4]

    def test_stalled_contexts_bounded_by_hw_contexts(self):
        m = machine(hw_contexts=2)
        bases = [m.alloc(node, 64 * 64) for node in range(1, 4)]
        for b in bases:
            m.processor(0).run_thread(miss_heavy(m, b, 15))
        stalled = []

        def tick():  # a daemon: samples every cycle, never extends the run
            stalled.append(len(m.processor(0)._stalled))
            m.sim.call_daemon(1, tick)

        m.sim.call_daemon(1, tick)
        m.run()
        assert max(stalled) == 1  # hw_contexts - 1, and reached

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ProcessorParams(hw_contexts=0)

    def test_stores_also_switch(self):
        m = machine(hw_contexts=2)
        dst1 = m.alloc(1, 64 * 64)
        dst2 = m.alloc(2, 64 * 64)

        def writer(base):
            for i in range(15):
                yield Store(base + i * 64, i)

        m.processor(0).run_thread(writer(dst1))
        m.processor(0).run_thread(writer(dst2))
        m.run()
        assert m.processor(0).stats.miss_switches > 0
        assert m.store.read(dst1 + 64) == 1
