"""Tests for combining-tree reductions (all-reduce)."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, MachineConfig
from repro.proc import Compute
from repro.runtime.reduce import MPTreeReduce, SMTreeReduce


def machine(n):
    return Machine(MachineConfig(n_nodes=n))


def run_reduce(m, red, values, op=operator.add, episodes=1, skews=None):
    """Every node contributes values[node]; returns per-node results."""
    n = m.n_nodes
    skews = skews or [0] * n
    results = {node: [] for node in range(n)}

    def participant(node):
        yield Compute(skews[node])
        for ep in range(episodes):
            total = yield from red.reduce(node, values[node] + ep, op)
            results[node].append(total)
            yield Compute(3)

    for node in range(n):
        m.processor(node).run_thread(participant(node))
    m.run()
    return results


@pytest.mark.parametrize("make", [
    lambda m, op: SMTreeReduce(m, arity=2),
    lambda m, op: MPTreeReduce(m, op, fanout=8),
], ids=["sm", "mp"])
class TestReduceSemantics:
    def test_sum_all_nodes(self, make):
        m = machine(16)
        red = make(m, operator.add)
        values = [3 * node + 1 for node in range(16)]
        res = run_reduce(m, red, values)
        expected = sum(values)
        assert all(r == [expected] for r in res.values())

    def test_max_reduction(self, make):
        m = machine(8)
        red = make(m, max)
        values = [(node * 37) % 23 for node in range(8)]
        res = run_reduce(m, red, values, op=max)
        assert all(r == [max(values)] for r in res.values())

    def test_multiple_episodes(self, make):
        m = machine(8)
        red = make(m, operator.add)
        values = [node for node in range(8)]
        res = run_reduce(m, red, values, episodes=3)
        for node in range(8):
            # episode ep adds +ep per node
            assert res[node] == [sum(values) + 8 * ep for ep in range(3)]

    def test_skewed_arrivals(self, make):
        m = machine(16)
        red = make(m, operator.add)
        skews = [0] * 16
        skews[11] = 4000
        res = run_reduce(m, red, [1] * 16, skews=skews)
        assert all(r == [16] for r in res.values())

    def test_two_nodes(self, make):
        m = machine(2)
        red = make(m, operator.add)
        res = run_reduce(m, red, [10, 20])
        assert res[0] == [30] and res[1] == [30]

    def test_64_nodes(self, make):
        m = machine(64)
        red = make(m, operator.add)
        res = run_reduce(m, red, list(range(64)))
        assert all(r == [sum(range(64))] for r in res.values())


class TestReduceSpecifics:
    def test_sm_arity_validation(self):
        with pytest.raises(ValueError):
            SMTreeReduce(machine(4), arity=1)

    def test_mp_fanout_validation(self):
        with pytest.raises(ValueError):
            MPTreeReduce(machine(4), operator.add, fanout=1)

    def test_mp_mismatched_op_rejected(self):
        m = machine(4)
        red = MPTreeReduce(m, operator.add)
        errors = []

        def t(node):
            try:
                yield from red.reduce(node, 1, operator.mul)
            except ValueError as e:
                errors.append(e)

        m.processor(0).run_thread(t(0))
        m.run(until=10_000)
        assert errors

    def test_mp_reduce_faster_than_sm_on_64(self):
        """Bundling data with the combining signal: the MP reduction
        keeps (even extends) the MP barrier's advantage."""
        cycles = {}
        for name in ("sm", "mp"):
            m = machine(64)
            red = (
                SMTreeReduce(m, arity=2)
                if name == "sm"
                else MPTreeReduce(m, operator.add, fanout=8)
            )
            done = []

            def participant(node):
                for _ in range(3):
                    yield from red.reduce(node, node, operator.add)
                done.append(m.sim.now)

            for node in range(64):
                m.processor(node).run_thread(participant(node))
            m.run()
            cycles[name] = max(done)
        assert cycles["mp"] < cycles["sm"]

    @pytest.mark.parametrize("kind,cycles", [("sm", 2520), ("mp", 449)])
    def test_64_node_episode_latency(self, kind, cycles):
        """benchmarks/bench_ext_reduce.py's steady-state episode (last
        entry to last leave of the fourth), quoted in EXPERIMENTS.md."""
        m = machine(64)
        red = (
            SMTreeReduce(m, arity=2)
            if kind == "sm"
            else MPTreeReduce(m, operator.add, fanout=8)
        )
        enters, leaves = [], []

        def participant(node):
            for ep in range(4):
                if ep == 3:
                    enters.append(m.sim.now)
                yield from red.reduce(node, node + ep, operator.add)
                if ep == 3:
                    leaves.append(m.sim.now)
                yield Compute(2)

        for node in range(64):
            m.processor(node).run_thread(participant(node))
        m.run()
        assert max(leaves) - max(enters) == cycles

    @given(st.integers(2, 16), st.lists(st.integers(-50, 50), min_size=16, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_mp_sum_property(self, fanout, values):
        m = machine(16)
        red = MPTreeReduce(m, operator.add, fanout=fanout)
        res = run_reduce(m, red, values)
        assert all(r == [sum(values)] for r in res.values())
