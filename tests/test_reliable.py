"""Tests for the reliable delivery layer and reliable-mode primitives."""

import operator

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRates, lossy_plan
from repro.machine import Machine, MachineConfig
from repro.proc import Compute
from repro.runtime import Runtime
from repro.runtime.barrier import MPTreeBarrier
from repro.runtime.bulk import BulkTransfer
from repro.runtime.reduce import MPTreeReduce
from repro.runtime.reliable import ReliableLayer, ReliableParams
from repro.sim.engine import SimulationError


def rel_machine(n_nodes=4, params=None):
    m = Machine(MachineConfig(n_nodes=n_nodes))
    return m, ReliableLayer(m, params)


def run_sender(m, gen):
    m.processor(0).run_thread(gen)
    m.run()


class TestReliableLayer:
    def test_basic_delivery_and_ack(self):
        m, layer = rel_machine()
        got = []

        def handler(msg):
            got.append((msg.src, msg.operands))
            yield Compute(1)

        layer.register_everywhere("app.msg", handler)

        def sender():
            yield from layer.send(0, 2, "app.msg", operands=(7, 8), wait_ack=True)

        run_sender(m, sender())
        assert got == [(0, (7, 8))]
        assert layer.stats.data_sent == 1
        assert layer.stats.acks_received == 1
        assert layer.stats.delivered == 1
        assert layer.stats.retransmits == 0
        assert layer.pending_count() == 0

    def test_duplicate_registration_rejected(self):
        m, layer = rel_machine()
        layer.register_handler(0, "app.msg", lambda msg: iter(()))
        with pytest.raises(SimulationError):
            layer.register_handler(0, "app.msg", lambda msg: iter(()))

    def test_unknown_mtype_raises(self):
        m, layer = rel_machine()

        def sender():
            yield from layer.send(0, 1, "no.such.handler")

        with pytest.raises(SimulationError, match="no reliable handler"):
            run_sender(m, sender())

    def test_retransmit_after_drop(self):
        m, layer = rel_machine()
        got = []

        def handler(msg):
            got.append(msg.operands)
            yield Compute(1)

        layer.register_everywhere("app.msg", handler)
        # drop everything for a while, then heal the fabric:
        # retransmission must get the message (and its ack) through
        inj = FaultInjector(
            m, FaultPlan(link_rates={(0, 1): FaultRates(drop=1.0)}, seed=1)
        )
        m.sim.schedule(1500, inj.detach)

        def sender():
            yield from layer.send(0, 1, "app.msg", operands=(9,), wait_ack=True)

        run_sender(m, sender())
        assert got == [(9,)]
        assert layer.stats.retransmits >= 1
        assert layer.pending_count() == 0

    def test_exactly_once_under_duplicates(self):
        m, layer = rel_machine()
        got = []

        def handler(msg):
            got.append(msg.operands[0])
            yield Compute(1)

        layer.register_everywhere("app.msg", handler)
        FaultInjector(m, FaultPlan(rates=FaultRates(duplicate=0.6), seed=3))

        def sender():
            for i in range(20):
                yield from layer.send(0, 1, "app.msg", operands=(i,))
                yield Compute(30)

        run_sender(m, sender())
        assert m.network.stats.duplicated > 0
        assert sorted(got) == list(range(20))  # exactly once each
        assert layer.stats.duplicates_dropped > 0
        # duplicated acks for the duplicated data arrive at a sender
        # with no pending entry left
        assert layer.stats.stale_acks > 0

    def test_unordered_but_complete_under_reorder(self):
        m, layer = rel_machine()
        got = []

        def handler(msg):
            got.append(msg.operands[0])
            yield Compute(1)

        layer.register_everywhere("app.msg", handler)
        FaultInjector(
            m,
            FaultPlan(rates=FaultRates(reorder=0.4), reorder_range=(40, 60), seed=3),
        )

        def sender():
            for i in range(30):
                yield from layer.send(0, 1, "app.msg", operands=(i,))
                yield Compute(25)

        run_sender(m, sender())
        assert sorted(got) == list(range(30))
        assert got != sorted(got)  # delivery really was out of order

    def test_gives_up_on_dead_link(self):
        m, layer = rel_machine(params=ReliableParams(max_retries=2))
        layer.register_everywhere("app.msg", lambda msg: iter(()))
        FaultInjector(m, lossy_plan(1.0, seed=1))

        def sender():
            yield from layer.send(0, 1, "app.msg", wait_ack=True)

        with pytest.raises(SimulationError, match="gave up"):
            run_sender(m, sender())
        assert layer.stats.retransmits == 2

    def test_retries_cost_simulated_cycles(self):
        def run(drop, seed=6):
            m, layer = rel_machine()
            layer.register_everywhere("app.msg", lambda msg: iter(()))
            FaultInjector(m, lossy_plan(drop, seed=seed))

            def sender():
                for i in range(10):
                    yield from layer.send(0, 1, "app.msg", operands=(i,), wait_ack=True)

            run_sender(m, sender())
            return m.sim.now, layer.stats.retransmits

        clean_cycles, clean_retx = run(0.0)
        lossy_cycles, lossy_retx = run(0.05)
        assert clean_retx == 0
        assert lossy_retx > 0
        # each retry waits out a >=400-cycle timeout on the clock
        assert lossy_cycles >= clean_cycles + 400 * lossy_retx


class TestReliableBulk:
    def run_copy(self, drop, nbytes=1024, seed=6):
        m = Machine(MachineConfig(n_nodes=4))
        layer = ReliableLayer(m)
        bulk = BulkTransfer(m, reliable=layer)
        FaultInjector(m, lossy_plan(drop, seed=seed))
        src = m.alloc(0, nbytes)
        dst = m.alloc(1, nbytes)
        for i in range(nbytes // 8):
            m.store.write(src + i * 8, i)
        done = []

        def sender():
            for _ in range(4):
                yield from bulk.send(1, src, dst, nbytes, wait_ack=True, src_node=0)
            done.append(m.sim.now)

        run_sender(m, sender())
        assert done, "bulk sender never completed"
        data_ok = all(
            m.store.read(dst + i * 8) == i for i in range(nbytes // 8)
        )
        return done[0], data_ok, layer, m

    def test_lossless_copy(self):
        cycles, ok, layer, _ = self.run_copy(0.0)
        assert ok
        assert layer.stats.retransmits == 0

    def test_copy_survives_5pct_drop(self):
        clean, _, _, _ = self.run_copy(0.0)
        cycles, ok, layer, m = self.run_copy(0.05)
        assert ok
        assert m.network.stats.dropped > 0
        assert layer.stats.retransmits > 0
        assert cycles > clean  # retries charged on the simulated clock

    def test_src_node_required_in_reliable_mode(self):
        m = Machine(MachineConfig(n_nodes=4))
        layer = ReliableLayer(m)
        bulk = BulkTransfer(m, reliable=layer)
        src = m.alloc(0, 64)
        dst = m.alloc(1, 64)

        def sender():
            yield from bulk.send(1, src, dst, 64)

        with pytest.raises(SimulationError, match="src_node"):
            run_sender(m, sender())


class TestReliableBarrier:
    def run_barrier(self, drop, n_nodes=16, episodes=3, seed=6):
        m = Machine(MachineConfig(n_nodes=n_nodes))
        layer = ReliableLayer(m)
        barrier = MPTreeBarrier(m, fanout=8, reliable=layer)
        FaultInjector(m, lossy_plan(drop, seed=seed))
        finished = []

        def participant(node):
            for _ in range(episodes):
                yield from barrier.enter(node)
            finished.append(node)

        for node in range(n_nodes):
            m.processor(node).run_thread(participant(node))
        m.run()
        return finished, layer, m

    def test_lossless(self):
        finished, layer, _ = self.run_barrier(0.0)
        assert sorted(finished) == list(range(16))
        assert layer.stats.retransmits == 0

    def test_completes_under_5pct_drop(self):
        finished, layer, m = self.run_barrier(0.05)
        assert sorted(finished) == list(range(16))
        assert m.network.stats.dropped > 0
        assert layer.stats.retransmits > 0


class TestReliableReduce:
    @pytest.mark.parametrize("drop,n_nodes", [(0.10, 9), (0.20, 16), (0.15, 64)])
    def test_exact_totals_under_loss(self, drop, n_nodes):
        episodes = 3
        m = Machine(MachineConfig(n_nodes=n_nodes))
        layer = ReliableLayer(m)
        red = MPTreeReduce(m, operator.add, fanout=8, reliable=layer)
        FaultInjector(m, lossy_plan(drop, seed=4))
        totals = {node: [] for node in range(n_nodes)}

        def participant(node):
            for ep in range(episodes):
                yield Compute((node * 37 + ep * 11) % 97)
                totals[node].append((yield from red.reduce(node, node + ep)))

        for node in range(n_nodes):
            m.processor(node).run_thread(participant(node))
        m.run()
        expected = [sum(range(n_nodes)) + n_nodes * ep for ep in range(episodes)]
        assert all(got == expected for got in totals.values())
        assert m.network.stats.dropped > 0
        assert layer.stats.retransmits > 0


class TestReliableRuntime:
    def test_hybrid_fork_join_under_loss(self):
        m = Machine(MachineConfig(n_nodes=8))
        layer = ReliableLayer(m)
        rt = Runtime(m, scheduler="hybrid", reliable=layer)
        FaultInjector(m, lossy_plan(0.10, seed=1))

        def tree(rt, node, depth):
            if depth == 0:
                yield Compute(50)
                return 1
            fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
            right = yield from tree(rt, node, depth - 1)
            left = yield from rt.join(node, fut)
            return left + right

        result, cycles = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 5))
        assert result == 2**5
        assert m.network.stats.dropped > 0  # loss actually happened

    def test_reliable_spawn_to_needs_src(self):
        m = Machine(MachineConfig(n_nodes=4))
        layer = ReliableLayer(m)
        rt = Runtime(m, scheduler="hybrid", reliable=layer)

        def root(rt, node):
            yield from rt.spawn_to(2, lambda rt, nd: iter(()))

        with pytest.raises(SimulationError, match="src"):
            rt.run_to_completion(0, root)

    def test_reliable_spawn_to_with_src(self):
        m = Machine(MachineConfig(n_nodes=4))
        layer = ReliableLayer(m)
        rt = Runtime(m, scheduler="hybrid", reliable=layer)
        FaultInjector(m, lossy_plan(0.3, seed=2))

        def child(rt, node):
            yield Compute(10)
            return node * 10

        def root(rt, node):
            fut = yield from rt.spawn_to(2, child, src=node)
            value = yield from rt.join(node, fut)
            return value

        result, _ = rt.run_to_completion(0, root)
        assert result == 20
