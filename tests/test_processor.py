"""Tests for the processor effect engine and message interrupts,
running on a fully assembled small machine."""

import pytest

from repro.cmmu.message import BlockRef
from repro.machine import Machine, MachineConfig
from repro.memory import make_addr
from repro.proc import (
    Compute,
    FetchOp,
    Load,
    Prefetch,
    Send,
    SetIMask,
    Store,
    Storeback,
    Suspend,
    Yield,
)
from repro.sim import SimulationError


def small_machine(n=4, **cfg_kw):
    return Machine(MachineConfig(n_nodes=n, **cfg_kw))


def run_to_end(m, gens_by_node):
    """Run one generator per node; returns dict node -> return value."""
    results = {}
    for node, gen in gens_by_node.items():
        m.processor(node).run_thread(
            gen, on_finish=lambda v, node=node: results.setdefault(node, v)
        )
    m.run()
    return results


class TestBasicEffects:
    def test_compute_advances_clock(self):
        m = small_machine()

        def t():
            yield Compute(100)
            return m.sim.now

        res = run_to_end(m, {0: t()})
        assert res[0] == 100

    def test_load_store_roundtrip(self):
        m = small_machine()
        addr = m.alloc(1, 8)

        def writer():
            yield Store(addr, 42)

        def reader():
            yield Compute(500)  # let the write land first
            v = yield Load(addr)
            return v

        res = run_to_end(m, {0: writer(), 2: reader()})
        assert res[2] == 42

    def test_load_default_zero(self):
        m = small_machine()
        addr = m.alloc(3, 8)

        def t():
            return (yield Load(addr))

        assert run_to_end(m, {0: t()})[0] == 0

    def test_fetchop_atomicity_under_contention(self):
        m = small_machine()
        addr = m.alloc(0, 8)

        def incr(times):
            for _ in range(times):
                yield FetchOp(addr, lambda v: v + 1)

        run_to_end(m, {n: incr(10) for n in range(4)})
        assert m.store.read(addr) == 40

    def test_fetchop_returns_old_value(self):
        m = small_machine()
        addr = m.alloc(0, 8)

        def t():
            old1 = yield FetchOp(addr, lambda v: v + 5)
            old2 = yield FetchOp(addr, lambda v: v + 5)
            return (old1, old2)

        assert run_to_end(m, {1: t()})[1] == (0, 5)

    def test_prefetch_then_load_hits(self):
        m = small_machine()
        addr = m.alloc(1, 8)

        def with_prefetch():
            yield Prefetch(addr)
            yield Compute(200)
            t0 = m.sim.now
            yield Load(addr)
            return m.sim.now - t0

        res = run_to_end(m, {0: with_prefetch()})
        assert res[0] == m.config.coherence.load_hit

    def test_thread_return_value(self):
        m = small_machine()

        def t():
            yield Compute(1)
            return "done"

        assert run_to_end(m, {0: t()})[0] == "done"

    def test_ready_queue_runs_sequentially(self):
        m = small_machine()
        order = []

        def t(tag):
            yield Compute(10)
            order.append((tag, m.sim.now))

        p = m.processor(0)
        p.run_thread(t("a"))
        p.run_thread(t("b"))
        m.run()
        assert [tag for tag, _ in order] == ["a", "b"]
        assert order[1][1] >= order[0][1] + 10

    def test_yield_rotates_ready_queue(self):
        m = small_machine()
        order = []

        def spinner():
            yield Compute(1)
            order.append("spin1")
            yield Yield()
            order.append("spin2")

        def other():
            yield Compute(1)
            order.append("other")

        p = m.processor(0)
        p.run_thread(spinner())
        p.run_thread(other())
        m.run()
        assert order == ["spin1", "other", "spin2"]


class TestSuspendResume:
    def test_suspend_until_external_resume(self):
        m = small_machine()
        resume_box = []

        def sleeper():
            v = yield Suspend(resume_box.append)
            return v

        def waker():
            yield Compute(300)
            resume_box[0]("wakeup")

        res = {}
        m.processor(0).run_thread(sleeper(), on_finish=lambda v: res.setdefault("s", v))
        m.processor(1).run_thread(waker())
        m.run()
        assert res["s"] == "wakeup"

    def test_suspend_frees_processor_for_other_work(self):
        m = small_machine()
        resume_box = []
        order = []

        def sleeper():
            yield Suspend(resume_box.append)
            order.append("sleeper")

        def other():
            yield Compute(5)
            order.append("other")
            resume_box[0](None)

        p = m.processor(0)
        p.run_thread(sleeper())
        p.run_thread(other())
        m.run()
        assert order == ["other", "sleeper"]

    def test_double_resume_rejected(self):
        m = small_machine()
        resume_box = []

        def sleeper():
            yield Suspend(resume_box.append)

        m.processor(0).run_thread(sleeper())

        def bad_waker():
            yield Compute(10)
            resume_box[0](None)
            resume_box[0](None)

        m.processor(1).run_thread(bad_waker())
        with pytest.raises(SimulationError):
            m.run()


class TestMessaging:
    def test_simple_message_handler(self):
        m = small_machine()
        got = []

        def handler(msg):
            got.append((msg.src, msg.operands))
            yield Compute(2)

        m.processor(2).register_handler("ping", handler)

        def sender():
            yield Send(2, "ping", operands=(7, 8))

        run_to_end(m, {0: sender()})
        assert got == [(0, (7, 8))]

    def test_queues_made_at_first_use(self):
        """Per-node queues are None until something is queued, and the
        depth gauges read None as empty."""
        from repro.obs.metrics import collect_machine

        m = small_machine()
        procs = [m.processor(n) for n in range(4)]
        assert all(p.ready is None and p._deferred is None for p in procs)
        assert all(p.cmmu.in_queue is None for p in procs)

        def handler(msg):
            yield Compute(1)

        m.processor(2).register_handler("ping", handler)

        def sender():
            yield Send(2, "ping")

        run_to_end(m, {0: sender()})
        assert procs[0].ready is not None and procs[1].ready is None
        assert procs[2].cmmu.in_queue is not None
        assert procs[3].cmmu.in_queue is None
        snap = collect_machine(m)
        for n in range(4):
            assert snap.value("proc.ready_depth", node=n) == 0
            assert snap.value("cmmu.in_queue_depth", node=n) == 0

    def test_send_is_nonblocking_after_launch(self):
        m = small_machine()

        def handler(msg):
            yield Compute(1)

        m.processor(3).register_handler("ping", handler)

        def sender():
            t0 = m.sim.now
            yield Send(3, "ping", operands=(1, 2, 3))
            return m.sim.now - t0

        cost = run_to_end(m, {0: sender()})[0]
        # paper: "a message can be sent with just a few user-level
        # instructions" — the sender pays describe+launch only
        assert cost <= 12

    def test_handler_runs_even_when_receiver_computing(self):
        m = small_machine()
        handled_at = []

        def handler(msg):
            handled_at.append(m.sim.now)
            yield Compute(1)

        m.processor(1).register_handler("ping", handler)

        def busy():
            yield Compute(10_000)
            return m.sim.now

        def sender():
            yield Send(1, "ping")

        res = run_to_end(m, {1: busy(), 0: sender()})
        # the interrupt borrowed the pipeline mid-computation
        assert handled_at[0] < 10_000
        assert res[1] >= 10_000

    def test_masked_interrupts_defer_handler(self):
        m = small_machine()
        handled_at = []

        def handler(msg):
            handled_at.append(m.sim.now)
            yield Compute(1)

        m.processor(1).register_handler("ping", handler)

        def masked_then_unmask():
            yield SetIMask(True)
            yield Compute(2000)
            yield SetIMask(False)
            yield Compute(10)

        def sender():
            yield Send(1, "ping")

        run_to_end(m, {1: masked_then_unmask(), 0: sender()})
        assert handled_at and handled_at[0] >= 2000

    def test_messages_handled_fifo(self):
        m = small_machine()
        got = []

        def handler(msg):
            got.append(msg.operands[0])
            yield Compute(50)

        m.processor(1).register_handler("seq", handler)

        def sender():
            for i in range(5):
                yield Send(1, "seq", operands=(i,))

        run_to_end(m, {0: sender()})
        assert got == [0, 1, 2, 3, 4]

    def test_unknown_handler_raises(self):
        m = small_machine()

        def sender():
            yield Send(1, "nope")

        m.processor(0).run_thread(sender())
        with pytest.raises(SimulationError):
            m.run()

    def test_handler_can_send(self):
        """Request/response round trip through two handlers."""
        m = small_machine()
        replies = []

        def server(msg):
            yield Compute(3)
            yield Send(msg.src, "reply", operands=(msg.operands[0] * 2,))

        def reply_handler(msg):
            replies.append(msg.operands[0])
            yield Compute(1)

        m.processor(1).register_handler("req", server)
        m.processor(0).register_handler("reply", reply_handler)

        def client():
            yield Send(1, "req", operands=(21,))

        run_to_end(m, {0: client()})
        assert replies == [42]


class TestBulkTransfer:
    def test_dma_block_transfer_moves_values(self):
        m = small_machine()
        src = m.alloc(0, 256)
        dst = m.alloc(1, 256)
        done = []

        def handler(msg):
            target = msg.operands[0]
            yield Storeback(target)
            done.append(m.sim.now)

        m.processor(1).register_handler("bulk", handler)

        def sender():
            for i in range(32):
                yield Store(src + i * 8, i * 3)
            yield Send(1, "bulk", operands=(dst,), blocks=[BlockRef(src, 256)])

        run_to_end(m, {0: sender()})
        assert done
        assert [m.store.read(dst + i * 8) for i in range(32)] == [
            i * 3 for i in range(32)
        ]

    def test_dma_flushes_destination_cache(self):
        """After a transfer the receiver's cached copies of the target
        range are gone (consistent with its local memory)."""
        m = small_machine()
        src = m.alloc(0, 64)
        dst = m.alloc(1, 64)

        def handler(msg):
            yield Storeback(msg.operands[0])

        m.processor(1).register_handler("bulk", handler)

        def receiver_warms_cache():
            for i in range(8):
                yield Load(dst + i * 8)

        def sender():
            yield Compute(2000)  # after receiver warmed its cache
            yield Store(src, 99)
            yield Send(1, "bulk", operands=(dst,), blocks=[BlockRef(src, 64)])

        run_to_end(m, {1: receiver_warms_cache(), 0: sender()})
        from repro.memory import LineState, line_of

        assert m.nodes[1].cache.state(line_of(dst)) is LineState.INVALID
        assert m.store.read(dst) == 99

    def test_larger_transfer_takes_longer(self):
        times = {}
        for size in (64, 1024):
            m = small_machine()
            src = m.alloc(0, size)
            dst = m.alloc(1, size)
            done = []

            def handler(msg):
                yield Storeback(msg.operands[0])
                done.append(m.sim.now)

            m.processor(1).register_handler("bulk", handler)

            def sender():
                yield Send(1, "bulk", operands=(dst,), blocks=[BlockRef(src, size)])

            run_to_end(m, {0: sender()})
            times[size] = done[0]
        assert times[1024] > times[64] + 200

    def test_storeback_outside_handler_rejected(self):
        m = small_machine()

        def t():
            yield Storeback(0x100)

        m.processor(0).run_thread(t())
        with pytest.raises(SimulationError):
            m.run()

    def test_descriptor_limit_enforced(self):
        m = small_machine()

        def t():
            yield Send(1, "x", operands=tuple(range(20)))

        m.processor(0).run_thread(t())
        with pytest.raises(ValueError):
            m.run()


class TestMachineAlloc:
    def test_alloc_line_aligned_and_disjoint(self):
        m = small_machine()
        a = m.alloc(0, 24)
        b = m.alloc(0, 8)
        assert a % 16 == 0
        assert b >= a + 24
        from repro.memory import line_of

        assert line_of(a) != line_of(b)

    def test_alloc_homed_at_node(self):
        m = small_machine()
        from repro.memory import home_of

        assert home_of(m.alloc(2, 8)) == 2

    def test_alloc_custom_alignment(self):
        m = small_machine()
        a = m.alloc(0, 8, align=256)
        from repro.memory import offset_of

        assert offset_of(a) % 256 == 0

    def test_alloc_bad_size(self):
        m = small_machine()
        with pytest.raises(ValueError):
            m.alloc(0, 0)
