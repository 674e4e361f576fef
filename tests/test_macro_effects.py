"""Macro-effect equivalence guards.

The batched effects (``ComputeLoad``, ``LoadComputeStore``,
``StoreRun``, ``Poll``) exist purely to cut host overhead: one
generator resume per *loop* instead of per element. The contract is
cycle identity — a macro batch and its micro program must produce the
same simulated time, the same values, the same stats, the same trace
stream, the same profiler attribution, and the same checker findings.
The hand-written micro programs below are the reference: each effect's
``micro()`` must yield exactly what they yield, and the batch runners
must simulate exactly what they simulate. These tests pin that
contract, including hypothesis sweeps that force coherence misses
(batch splits) at random elements via a concurrent writer, and which
runner a processor starts (one with a checker or the effect/txn
tracer runs ``micro()`` itself; a profiled one runs the reporting
form of the batch runner, whose profile must equal the micro path's).
"""

from __future__ import annotations

import itertools
import operator
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, MachineConfig, ProcessorParams
from repro.proc import (
    Compute,
    ComputeLoad,
    Context,
    Load,
    LoadAcquire,
    LoadComputeStore,
    Poll,
    Prefetch,
    Send,
    Store,
    StoreRelease,
    StoreRun,
    expand,
)
from repro.proc.batch import (
    REPORTED_CLASSES,
    ComputeLoadBatch,
    LoadComputeStoreBatch,
    MicroBatch,
    PollBatch,
    StoreRunBatch,
)


def machine(n=4, **kw):
    return Machine(MachineConfig(n_nodes=n, **kw))


# ----------------------------------------------------------------------
# Micro equivalents (the reference per-element programs)
# ----------------------------------------------------------------------
def micro_compute_load(base, count, stride=8, compute=0, prefetch_line=0):
    values = []
    per_line = prefetch_line // stride if prefetch_line else 0

    def gen():
        for i in range(count):
            if per_line and i % per_line == 0 and (i + per_line) < count:
                yield Prefetch(base + (i + per_line) * stride)
            v = yield Load(base + i * stride)
            values.append(v)
            if compute:
                yield Compute(compute)
        return values

    return gen()


def macro_compute_load(base, count, stride=8, compute=0, prefetch_line=0):
    def gen():
        values = yield ComputeLoad(
            base, count, stride=stride, compute=compute,
            prefetch_line=prefetch_line,
        )
        return values

    return gen()


def micro_copy(src, dst, count, stride=8, compute=0, prefetch_line=0):
    def gen():
        nbytes = count * stride
        for off in range(0, nbytes, stride):
            if prefetch_line and off % prefetch_line == 0 \
                    and off + prefetch_line < nbytes:
                yield Prefetch(src + off + prefetch_line)
                yield Prefetch(dst + off + prefetch_line)
            v = yield Load(src + off)
            yield Store(dst + off, v)
            if compute:
                yield Compute(compute)

    return gen()


def macro_copy(src, dst, count, stride=8, compute=0, prefetch_line=0):
    def gen():
        yield LoadComputeStore(
            src, dst, count, stride=stride, compute=compute,
            prefetch_line=prefetch_line,
        )

    return gen()


def micro_store_run(base, values, stride=8):
    def gen():
        for i, v in enumerate(values):
            yield Store(base + i * stride, v)

    return gen()


def spin(addr, threshold, backoff):
    """A flag spin: the one-address Poll that waits until ``addr``
    holds at least ``threshold``."""
    return Poll(backoff, None, partial(operator.le, threshold), (addr,))


def micro_spin(addr, threshold, backoff):
    """The hand-written flag spin loop a one-address Poll stands for."""
    def gen():
        while True:
            v = yield LoadAcquire(addr)
            if v >= threshold:
                return True
            yield Compute(backoff)

    return gen()


def macro_spin(addr, threshold, backoff):
    return one(spin(addr, threshold, backoff))


def micro_poll(quantum, rounds, ready, addrs=()):
    def probe():
        values = []
        for a in addrs:
            values.append((yield LoadAcquire(a)))
        return ready(*values)

    def gen():
        # probe first, then (Compute, probe) until ready or `rounds`
        # probes were made
        if rounds == 0:
            return False
        if (yield from probe()):
            return True
        for _ in itertools.count() if rounds is None else range(rounds - 1):
            yield Compute(quantum)
            if (yield from probe()):
                return True
        return False

    return gen()


def macro_poll(quantum, rounds, ready, addrs=()):
    def gen():
        ok = yield Poll(quantum, rounds, ready, addrs)
        return ok

    return gen()


def one(eff):
    """A program that yields ``eff`` and returns what it resumed with."""
    def gen():
        return (yield eff)

    return gen()


def run_pair(build_threads, n=4, observe=None):
    """Run ``build_threads(machine, variant)`` for both variants and
    return the two (machine, results, extras) triples.

    ``observe`` (optional) is called with the machine before the run and
    its return value lands in extras (tracer/profiler/checker handles).
    """
    out = []
    for variant in ("micro", "macro"):
        m = machine(n=n)
        extra = observe(m) if observe is not None else None
        results = build_threads(m, variant)
        m.run()
        out.append((m, results, extra))
    return out


# ----------------------------------------------------------------------
# Golden identity per macro effect
# ----------------------------------------------------------------------
class TestMacroMicroIdentity:
    def test_compute_load_identical(self):
        count, stride = 24, 64  # strided: every element misses

        def build(m, variant):
            base = m.alloc(1, count * stride)
            for i in range(count):
                m.store.write(base + i * stride, i * 3)
            fn = micro_compute_load if variant == "micro" else macro_compute_load
            out = []
            m.processor(0).run_thread(
                fn(base, count, stride=stride, compute=2),
                on_finish=out.append, label="reader",
            )
            return out

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert m1.sim.now == m2.sim.now
        assert r1 == r2 == [[i * 3 for i in range(count)]]
        c1, c2 = m1.coherence.caches[0].stats, m2.coherence.caches[0].stats
        assert (c1.hits, c1.misses, c1.upgrades) == (c2.hits, c2.misses, c2.upgrades)
        assert m1.processor(0).stats.effects == m2.processor(0).stats.effects

    def test_compute_load_with_prefetch_identical(self):
        count, stride, line = 16, 8, 64

        def build(m, variant):
            base = m.alloc(1, count * stride)
            fn = micro_compute_load if variant == "micro" else macro_compute_load
            out = []
            m.processor(0).run_thread(
                fn(base, count, stride=stride, compute=1, prefetch_line=line),
                on_finish=out.append,
            )
            return out

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert m1.sim.now == m2.sim.now
        assert r1 == r2
        s1, s2 = m1.coherence.stats, m2.coherence.stats
        assert s1.prefetches_issued == s2.prefetches_issued > 0

    def test_copy_identical(self):
        count, stride = 32, 8

        def build(m, variant):
            src = m.alloc(1, count * stride)
            dst = m.alloc(2, count * stride)
            for i in range(count):
                m.store.write(src + i * stride, 100 + i)
            fn = micro_copy if variant == "micro" else macro_copy
            m.processor(0).run_thread(
                fn(src, dst, count, stride=stride, prefetch_line=64)
            )
            return [m.store.read(dst + i * stride) for i in range(count)], dst

        (m1, (pre1, dst1), _), (m2, (pre2, dst2), _) = run_pair(build)
        assert m1.sim.now == m2.sim.now
        got1 = [m1.store.read(dst1 + i * stride) for i in range(count)]
        got2 = [m2.store.read(dst2 + i * stride) for i in range(count)]
        assert got1 == got2 == [100 + i for i in range(count)]

    def test_store_run_identical(self):
        vals = [7, 11, 13, 17, 19]

        def build(m, variant):
            base = m.alloc(1, len(vals) * 8)
            if variant == "micro":
                gen = micro_store_run(base, vals)
            else:
                gen = one(StoreRun(base, vals))
            m.processor(0).run_thread(gen)
            return base

        (m1, b1, _), (m2, b2, _) = run_pair(build)
        assert m1.sim.now == m2.sim.now
        assert [m1.store.read(b1 + i * 8) for i in range(len(vals))] == vals
        assert [m2.store.read(b2 + i * 8) for i in range(len(vals))] == vals

    def test_spin_identical(self):
        def build(m, variant):
            flag = m.alloc(1, 8)
            fn = micro_spin if variant == "micro" else macro_spin
            out = []
            m.processor(0).run_thread(
                fn(flag, 1, backoff=6), on_finish=out.append, label="spinner"
            )

            def releaser():
                yield Compute(400)
                yield StoreRelease(flag, 1)

            m.processor(1).run_thread(releaser(), label="releaser")
            return out

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert m1.sim.now == m2.sim.now
        assert r1 == r2 == [True]
        assert m1.processor(0).stats.effects == m2.processor(0).stats.effects

    def test_spin_interrupted_by_handlers(self):
        # handlers borrow the pipeline mid-spin, so probe loads and
        # backoffs complete at interruptible points and the spin goes
        # on through _complete
        def build(m, variant):
            flag = m.alloc(1, 8)
            seen = []

            def on_ping(msg):
                yield Compute(7)
                seen.append(msg.operands[0])

            m.processor(0).register_handler("ping", on_ping)
            fn = micro_spin if variant == "micro" else macro_spin
            out = []
            m.processor(0).run_thread(fn(flag, 1, 6), on_finish=out.append)

            def pinger():
                for i in range(12):
                    yield Compute(13)
                    yield Send(0, "ping", operands=(i,))
                yield StoreRelease(flag, 1)

            m.processor(2).run_thread(pinger())
            return out, seen

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert r1 == r2 == ([True], list(range(12)))
        assert self._poll_figures(m1) == self._poll_figures(m2)

    def test_spin_forwards_from_store_buffer(self):
        # the spinner's own buffered store to its flag answers its
        # probes until the write completes
        results = []
        for variant in ("micro", "macro"):
            m = machine(processor=ProcessorParams(store_buffer_depth=4))
            flag = m.alloc(1, 8)
            fn = micro_spin if variant == "micro" else macro_spin
            out = []

            def spinner():
                yield Store(flag, 0)
                return (yield from fn(flag, 1, 1))

            m.processor(0).run_thread(spinner(), on_finish=out.append)

            def releaser():
                yield Compute(300)
                yield StoreRelease(flag, 1)

            m.processor(3).run_thread(releaser())
            m.run()
            results.append((out, self._poll_figures(m), m.sim.events_processed))
        assert results[0] == results[1]
        assert results[0][0] == [True]

    @staticmethod
    def _poll_figures(m):
        c = m.coherence.caches[0].stats
        return (m.sim.now, m.processor(0).stats.effects,
                c.hits, c.misses, c.upgrades)

    def test_poll_handler_makes_ready(self):
        # no addresses, no round limit: a handler that borrowed the
        # pipeline sets the flag. A poll compute completes mid-handler,
        # so the poll resumes (and tests ready) only once it returns.
        def build(m, variant):
            box = {}

            def on_set(msg):
                yield Compute(10)
                box["set"] = msg.operands[0]

            m.processor(0).register_handler("set", on_set)
            fn = micro_poll if variant == "micro" else macro_poll
            out = []
            m.processor(0).run_thread(
                fn(3, None, lambda: "set" in box), on_finish=out.append,
                label="poller",
            )

            def sender():
                yield Compute(40)
                yield Send(0, "set", operands=(1,))

            m.processor(1).run_thread(sender(), label="sender")
            return out

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert r1 == r2 == [True]
        assert r2[0] is True  # not merely truthy
        assert self._poll_figures(m1) == self._poll_figures(m2)
        assert m2.processor(0).stats.handlers_run == 1

    @pytest.mark.parametrize("rounds", [60, None])
    def test_poll_remote_writer_splits_batch(self, rounds):
        # two polled words on one line homed at node 1: the remote
        # release invalidates the poller's copy, so a later poll load
        # misses and sees the new tail
        def build(m, variant):
            head = m.alloc(1, 16)
            tail = head + 8
            fn = micro_poll if variant == "micro" else macro_poll
            out = []
            m.processor(0).run_thread(
                fn(5, rounds, operator.ne, (head, tail)),
                on_finish=out.append, label="poller",
            )

            def writer():
                yield Compute(150)
                yield StoreRelease(tail, 1)

            m.processor(1).run_thread(writer(), label="writer")
            return out

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert r1 == r2 == [True]
        assert self._poll_figures(m1) == self._poll_figures(m2)
        assert m2.coherence.caches[0].stats.misses >= 2  # fill, re-fill

    def test_poll_rounds_expire(self):
        def build(m, variant):
            head = m.alloc(1, 16)
            fn = micro_poll if variant == "micro" else macro_poll
            out = []
            m.processor(0).run_thread(
                fn(4, 6, operator.ne, (head, head + 8)), on_finish=out.append
            )
            return out

        (m1, r1, _), (m2, r2, _) = run_pair(build)
        assert r1 == r2 == [False]
        assert self._poll_figures(m1) == self._poll_figures(m2)
        # six probes of two loads, a compute between two probes
        assert m2.processor(0).stats.effects == 6 * 2 + 5


# ----------------------------------------------------------------------
# Observer identity: the batch runner must be invisible to tracer,
# profiler, and checkers — they see the per-element micro stream.
# ----------------------------------------------------------------------
class TestObserverIdentity:
    def _racy_build(self, m, variant):
        # unsynchronized concurrent writer: forces invalidations that
        # split the batch at arbitrary elements AND races with it
        count, stride = 16, 8
        base = m.alloc(1, count * stride)
        fn = micro_compute_load if variant == "micro" else macro_compute_load
        m.processor(0).run_thread(
            fn(base, count, stride=stride, compute=2), label="reader"
        )

        def writer():
            for i in range(0, count, 4):
                yield Compute(50)
                yield Store(base + i * stride, 999)

        m.processor(1).run_thread(writer(), label="writer")
        return base

    def _poll_build(self, m, variant):
        # a remote release invalidates the polled line mid-poll (a miss
        # split); the poller's plain read afterwards races with the
        # writer's plain store after its release
        words = m.alloc(1, 16)
        data = m.alloc(2, 8)
        fn = micro_poll if variant == "micro" else macro_poll

        def poller():
            yield from fn(3, None, operator.ne, (words, words + 8))
            yield Load(data)

        m.processor(0).run_thread(poller(), label="poller")

        def writer():
            yield Compute(120)
            yield StoreRelease(words + 8, 1)
            yield Store(data, 7)

        m.processor(1).run_thread(writer(), label="writer")
        return data

    def _spin_build(self, m, variant):
        # the same race through a one-address flag spin
        flag = m.alloc(1, 8)
        data = m.alloc(2, 8)
        fn = micro_spin if variant == "micro" else macro_spin

        def spinner():
            yield from fn(flag, 1, 6)
            yield Load(data)

        m.processor(0).run_thread(spinner(), label="spinner")

        def writer():
            yield Compute(120)
            yield StoreRelease(flag, 1)
            yield Store(data, 7)

        m.processor(1).run_thread(writer(), label="writer")
        return data

    def _check_trace(self, build, macro_name, element_name):
        from repro.trace.tracer import Tracer

        # txn alone too: batched cache hits must still reach the access probe
        for kinds in (("effect", "txn", "packet"), ("txn",)):
            (m1, _, t1), (m2, _, t2) = run_pair(
                build, observe=lambda m: Tracer(m, kinds=kinds)
            )
            ev1 = [(e.time, e.node, e.kind, e.what, e.detail) for e in t1.events]
            ev2 = [(e.time, e.node, e.kind, e.what, e.detail) for e in t2.events]
            assert ev1 == ev2, kinds
            if "effect" in kinds:
                # the macro wrapper itself must NOT appear as an effect
                assert not any(macro_name in e.what for e in t2.events)
                assert any(e.what == element_name for e in t2.events)

    def _check_profiler(self, build):
        from repro.obs.profiler import CycleProfiler

        (m1, _, p1), (m2, _, p2) = run_pair(build, observe=CycleProfiler)
        assert p1.per_node() == p2.per_node()
        assert p1.totals() == p2.totals()

    def _check_races(self, build):
        from repro.check import CheckerSet

        def observe(m):
            return CheckerSet(m, checks=("race",))

        (m1, _, c1), (m2, _, c2) = run_pair(build, observe=observe)
        f1 = {(f.kind, f.addr) for f in c1.finalize().findings}
        f2 = {(f.kind, f.addr) for f in c2.finalize().findings}
        assert f1 == f2
        assert f2  # the program really does race

    def test_trace_stream_identical(self):
        self._check_trace(self._racy_build, "ComputeLoad", "Load")

    def test_profiler_buckets_identical(self):
        self._check_profiler(self._racy_build)

    def test_race_detector_equivalent(self):
        self._check_races(self._racy_build)

    def test_poll_trace_stream_identical(self):
        self._check_trace(self._poll_build, "Poll", "LoadAcquire")

    def test_poll_profiler_buckets_identical(self):
        self._check_profiler(self._poll_build)

    def test_poll_race_detector_equivalent(self):
        self._check_races(self._poll_build)

    def test_spin_trace_stream_identical(self):
        self._check_trace(self._spin_build, "Poll", "LoadAcquire")

    def test_spin_profiler_buckets_identical(self):
        self._check_profiler(self._spin_build)

    def test_spin_race_detector_equivalent(self):
        self._check_races(self._spin_build)


# ----------------------------------------------------------------------
# stats.effects counts elements, not batches
# ----------------------------------------------------------------------
class TestEffectAccounting:
    def test_effects_counts_elements(self):
        count = 12
        m = machine()
        base = m.alloc(1, count * 8)
        m.processor(0).run_thread(macro_compute_load(base, count, compute=2))
        m.run()
        # count loads + count computes, regardless of batching
        assert m.processor(0).stats.effects == 2 * count

    def test_zero_count_batch_is_free(self):
        m = machine()
        base = m.alloc(1, 64)
        out = []
        m.processor(0).run_thread(
            macro_compute_load(base, 0), on_finish=out.append
        )
        m.run()
        assert out == [[]]
        assert m.processor(0).stats.effects == 0


# ----------------------------------------------------------------------
# micro(): each macro-effect's own micro program is the reference one
# ----------------------------------------------------------------------
def drive(gen, values):
    """Run a program off-machine, answering each yielded load with the
    next of ``values`` (then 10**6 once they run out) and every other
    effect with None; returns (the yielded effects, the return value)."""
    feed = iter(values)
    yielded, value = [], None
    while True:
        try:
            eff = gen.send(value)
        except StopIteration as stop:
            return yielded, stop.value
        yielded.append(eff)
        value = next(feed, 10**6) if isinstance(eff, Load) else None


def ready_after(rounds):
    """A Poll ``ready``: holds once a round loads a nonzero value, or
    from its ``rounds + 1``-th call on."""
    calls = [0]

    def ready(*values):
        calls[0] += 1
        return calls[0] > rounds or any(values)

    return ready


_addr = st.integers(min_value=0, max_value=64).map(lambda i: i * 8)
_stride = st.sampled_from([8, 16, 64])


def _draw_pair(data, kind):
    """(macro-effect, reference micro program) of a drawn shape."""
    draw = data.draw
    if kind in ("compute_load", "copy"):
        stride = draw(_stride)
        shape = dict(
            stride=stride, compute=draw(st.integers(min_value=0, max_value=3)),
            prefetch_line=draw(st.sampled_from([0, stride, 4 * stride])),
        )
        count = draw(st.integers(min_value=0, max_value=12))
        if kind == "copy":
            src, dst = draw(_addr), draw(_addr)
            return (LoadComputeStore(src, dst, count, **shape),
                    micro_copy(src, dst, count, **shape))
        base = draw(_addr)
        return (ComputeLoad(base, count, **shape),
                micro_compute_load(base, count, **shape))
    if kind == "store_run":
        base, stride = draw(_addr), draw(_stride)
        values = draw(st.lists(st.integers(), max_size=8))
        return (StoreRun(base, values, stride),
                micro_store_run(base, values, stride))
    if kind == "spin":
        addr, backoff = draw(_addr), draw(st.integers(min_value=0, max_value=4))
        threshold = draw(st.integers(min_value=0, max_value=5))
        return (spin(addr, threshold, backoff),
                micro_spin(addr, threshold, backoff))
    quantum = draw(st.integers(min_value=0, max_value=4))
    rounds = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
    addrs = tuple(draw(st.lists(_addr, max_size=2)))
    limit = draw(st.integers(min_value=0, max_value=5))
    return (Poll(quantum, rounds, ready_after(limit), addrs),
            micro_poll(quantum, rounds, ready_after(limit), addrs))


@pytest.mark.parametrize(
    "kind", ["compute_load", "copy", "store_run", "spin", "poll"]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_micro_matches_reference_program(kind, data):
    eff, reference = _draw_pair(data, kind)
    values = data.draw(st.lists(st.integers(min_value=0, max_value=5), max_size=12))
    got_effects, got = drive(eff.micro(), values)
    want_effects, want = drive(reference, values)
    # dataclass equality: same class and same fields, element by element
    assert got_effects == want_effects
    assert got == want


def test_expand_matches_hand_written_micro_program():
    def second_release(first, second):
        return second == 2

    def build(m, variant):
        a = m.alloc(1, 16 * 8)
        b = m.alloc(2, 16 * 8)
        flag = m.alloc(1, 16)
        for i in range(16):
            m.store.write(a + i * 8, i + 1)

        def program():
            vals = yield ComputeLoad(a, 16, compute=1, prefetch_line=16)
            yield Compute(5)
            yield LoadComputeStore(a, b, 8, compute=1, prefetch_line=16)
            yield StoreRun(b + 64, vals[:4])
            seen = yield spin(flag, 1, 4)
            ok = yield Poll(20, None, second_release, (flag, flag + 8))
            last = yield Load(b + 64)
            return vals, seen, ok, last

        def micro_program():
            vals = yield from micro_compute_load(a, 16, compute=1, prefetch_line=16)
            yield Compute(5)
            yield from micro_copy(a, b, 8, compute=1, prefetch_line=16)
            yield from micro_store_run(b + 64, vals[:4])
            seen = yield from micro_spin(flag, 1, 4)
            ok = yield from micro_poll(20, None, second_release, (flag, flag + 8))
            last = yield Load(b + 64)
            return vals, seen, ok, last

        def releaser():
            yield Compute(300)
            yield StoreRelease(flag, 1)
            yield Compute(200)
            yield StoreRelease(flag + 8, 2)

        out = []
        gen = {"macro": program, "expanded": lambda: expand(program()),
               "micro": micro_program}[variant]()
        m.processor(0).run_thread(gen, on_finish=out.append)
        m.processor(3).run_thread(releaser())
        m.run()
        c = m.coherence.caches[0].stats
        return (m.sim.now, m.sim.events_processed, out,
                m.processor(0).stats.effects, c.hits, c.misses, c.upgrades)

    runs = {v: build(machine(), v) for v in ("micro", "expanded", "macro")}
    assert runs["expanded"] == runs["micro"] == runs["macro"]
    _, _, [(vals, seen, ok, last)], *_ = runs["micro"]
    assert (vals, seen, ok, last) == (list(range(1, 17)), True, True, 1)


# ----------------------------------------------------------------------
# Which runner a macro-effect starts: only probe subscriptions decide
# ----------------------------------------------------------------------
#: macro-effect on freshly allocated words -> runner of an unobserved
#: processor
RUNNERS = {
    "compute_load": (lambda a: ComputeLoad(a, 4), ComputeLoadBatch),
    "copy": (lambda a: LoadComputeStore(a, a + 64, 4), LoadComputeStoreBatch),
    "store_run": (lambda a: StoreRun(a, [1, 2]), StoreRunBatch),
    "spin": (lambda a: spin(a, 1, 2), PollBatch),
    "poll": (lambda a: Poll(1, 3, operator.ne, (a, a + 8)), PollBatch),
}


def started_runner(m, kind):
    """The runner node 0's processor starts for a program yielding the
    ``kind`` macro-effect."""
    eff = RUNNERS[kind][0](m.alloc(1, 128))
    ctx = Context(gen=(e for e in [eff]), cid=0, label="prog")
    m.processor(0)._step(ctx, None)
    return type(ctx.batch)


def _observe_effect_tracer(m):
    from repro.trace.tracer import Tracer

    return Tracer(m, kinds=("effect",))


def _observe_txn_tracer(m):
    from repro.trace.tracer import Tracer

    return Tracer(m, kinds=("txn",))  # subscribes before_access only


def _observe_profiler(m):
    from repro.obs.profiler import CycleProfiler

    return CycleProfiler(m)


def _observe_race_detector(m):
    from repro.check import CheckerSet

    return CheckerSet(m, checks=("race",))


@pytest.mark.parametrize("kind", sorted(RUNNERS))
@pytest.mark.parametrize("observe", [
    _observe_effect_tracer, _observe_txn_tracer, _observe_race_detector,
])
def test_observed_processor_runs_micro_program(kind, observe):
    m = machine()
    observe(m)
    assert started_runner(m, kind) is MicroBatch


@pytest.mark.parametrize("kind", sorted(RUNNERS))
@pytest.mark.parametrize("step_probe", [False, True])
def test_unobserved_processor_runs_batch_runner(kind, step_probe):
    from repro.sim.probe import Subscriptions

    def observed(m):
        if step_probe:  # a before_step subscriber wants no effect stream
            Subscriptions().add(m.processor(0), "before_step", lambda ctx: None)
        return m

    assert started_runner(observed(machine()), kind) is RUNNERS[kind][1]
    # a processor whose only effect observer is the cycle profiler (an
    # after_execute subscriber) keeps the runner, in its reporting form
    m = observed(machine())
    _observe_profiler(m)
    runner = started_runner(m, kind)
    assert runner in REPORTED_CLASSES.values()
    assert issubclass(runner, RUNNERS[kind][1])


# ----------------------------------------------------------------------
# The cycle profiler sees the same element stream on both paths
# ----------------------------------------------------------------------
def profiled(build, micro):
    """``build(m)`` on a fresh profiled machine; returns the profile
    and ``build``'s result. ``micro`` forces every processor onto the
    micro path with a no-op ``before_execute`` subscriber."""
    from repro.obs.profiler import CycleProfiler
    from repro.sim.probe import Subscriptions

    m = machine()
    prof = CycleProfiler(m)
    if micro:
        subs = Subscriptions()
        for node in m.nodes:
            subs.add(node.processor, "before_execute", lambda ctx, eff: None)
    result = build(m)
    return prof.as_dict(), result


def assert_same_profile(build):
    batch, micro = profiled(build, False), profiled(build, True)
    assert batch == micro
    return batch


@pytest.mark.parametrize("kind", sorted(RUNNERS))
def test_profile_of_batch_runner_equals_micro_program(kind):
    def build(m):
        a = m.alloc(1, 128)
        eff = RUNNERS[kind][0](a)
        out = []

        def program():
            yield Compute(3)
            res = yield eff
            yield Load(a)
            return res

        def releaser():  # invalidates node 0's copies, ends the spin
            yield Compute(150)
            yield StoreRelease(a, 1)

        m.processor(0).run_thread(program(), on_finish=out.append)
        m.processor(2).run_thread(releaser())
        m.run()
        return m.sim.now, out

    profile, (_, out) = assert_same_profile(build)
    assert out and profile["per_node"]["0"]["by_effect"]


# ----------------------------------------------------------------------
# Hypothesis: random batch shapes with a concurrent writer forcing
# miss splits at arbitrary elements — macro == micro, always.
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=12),
    stride=st.sampled_from([8, 16, 64]),
    compute=st.integers(min_value=0, max_value=4),
    writer_step=st.integers(min_value=1, max_value=5),
    writer_delay=st.integers(min_value=0, max_value=120),
)
def test_random_batches_with_invalidating_writer(
    count, stride, compute, writer_step, writer_delay
):
    results = []
    for variant in ("micro", "macro"):
        m = machine()
        base = m.alloc(1, max(count, 1) * stride)
        for i in range(count):
            m.store.write(base + i * stride, i + 1)
        fn = micro_compute_load if variant == "micro" else macro_compute_load
        out = []
        m.processor(0).run_thread(
            fn(base, count, stride=stride, compute=compute),
            on_finish=out.append, label="reader",
        )

        def writer():
            if writer_delay:
                yield Compute(writer_delay)
            for i in range(0, count, writer_step):
                yield Store(base + i * stride, 1000 + i)
                yield Compute(7)

        m.processor(1).run_thread(writer(), label="writer")
        m.run()
        c = m.coherence.caches[0].stats
        results.append(
            (m.sim.now, out, c.hits, c.misses, c.upgrades,
             m.processor(0).stats.effects)
        )
    assert results[0] == results[1]


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=12),
    stride=st.sampled_from([8, 16, 64]),
    compute=st.integers(min_value=0, max_value=4),
    prefetch=st.booleans(),
    writer_step=st.integers(min_value=1, max_value=5),
    writer_delay=st.integers(min_value=0, max_value=120),
)
def test_random_batch_profiles_with_invalidating_writer(
    count, stride, compute, prefetch, writer_step, writer_delay
):
    """The batch shapes above, profiled: the reporting runners give the
    profile of the micro path, misses and handler borrowing included."""
    def build(m):
        base = m.alloc(1, max(count, 1) * stride)
        dst = m.alloc(2, max(count, 1) * stride)
        for i in range(count):
            m.store.write(base + i * stride, i + 1)
        pl = 64 if prefetch else 0  # a multiple of every drawn stride
        out = []

        def reader():
            vals = yield ComputeLoad(base, count, stride=stride, compute=compute,
                                     prefetch_line=pl)
            yield LoadComputeStore(base, dst, count, stride=stride,
                                   compute=compute, prefetch_line=pl)
            yield StoreRun(dst, vals[::-1], stride=stride)
            return vals

        def writer():
            if writer_delay:
                yield Compute(writer_delay)
            for i in range(0, count, writer_step):
                yield Store(base + i * stride, 1000 + i)
                yield Compute(7)
            yield Send(0, "ping", (1,))

        def ping(msg):
            yield Compute(9)

        m.processor(0).register_handler("ping", ping)
        m.processor(0).run_thread(reader(), on_finish=out.append, label="reader")
        m.processor(1).run_thread(writer(), label="writer")
        m.run()
        return m.sim.now, out

    assert_same_profile(build)


@settings(max_examples=20, deadline=None)
@given(
    quantum=st.integers(min_value=1, max_value=6),
    rounds=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    n_addrs=st.integers(min_value=0, max_value=2),
    writer_delay=st.integers(min_value=0, max_value=200),
)
def test_random_poll_profiles_with_invalidating_writer(
    quantum, rounds, n_addrs, writer_delay
):
    def build(m):
        words = m.alloc(1, 16)
        addrs = tuple(words + 8 * i for i in range(n_addrs))
        done = {}
        out = []

        def ready(*values):
            return any(values) if addrs else "stored" in done

        def poller():
            return (yield Poll(quantum, rounds, ready, addrs))

        def writer():
            if writer_delay:
                yield Compute(writer_delay)
            yield Store(words + 8 * max(n_addrs - 1, 0), 1)
            done["stored"] = True

        m.processor(0).run_thread(poller(), on_finish=out.append, label="poller")
        m.processor(1).run_thread(writer(), label="writer")
        m.run()
        return m.sim.now, out

    assert_same_profile(build)


@settings(max_examples=20, deadline=None)
@given(
    quantum=st.integers(min_value=1, max_value=6),
    rounds=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    n_addrs=st.integers(min_value=0, max_value=2),
    writer_delay=st.integers(min_value=0, max_value=200),
)
def test_random_polls_with_invalidating_writer(
    quantum, rounds, n_addrs, writer_delay
):
    results = []
    for variant in ("micro", "macro"):
        m = machine()
        words = m.alloc(1, 16)
        addrs = tuple(words + 8 * i for i in range(n_addrs))
        # ready once the writer's store landed: through the polled words
        # or, polling none, through a flag the writer sets after it
        done = {}
        if addrs:
            def ready(*values):
                return any(values)
        else:
            def ready():
                return "stored" in done
        fn = micro_poll if variant == "micro" else macro_poll
        out = []
        m.processor(0).run_thread(
            fn(quantum, rounds, ready, addrs), on_finish=out.append,
            label="poller",
        )

        def writer():
            if writer_delay:
                yield Compute(writer_delay)
            yield Store(words + 8 * max(n_addrs - 1, 0), 1)
            done["stored"] = True

        m.processor(1).run_thread(writer(), label="writer")
        m.run()
        c = m.coherence.caches[0].stats
        results.append(
            (m.sim.now, out, c.hits, c.misses, c.upgrades,
             m.processor(0).stats.effects)
        )
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# The schedulers' idle backoff and steal-reply waits are Polls: an idle
# probe resumes its generator a few times, not once per poll element
# ----------------------------------------------------------------------
#: (cycles, events) of a 16-node grain run (depth 7, 100-cycle leaves),
#: identical to what the per-element idle loops simulate
GRAIN_RUNS = {"sm": (10315, 20410), "hybrid": (5118, 7057)}


@pytest.mark.parametrize("kind", sorted(GRAIN_RUNS))
def test_idle_probes_resume_rarely(kind):
    from repro.apps.grain import grain_parallel
    from repro.runtime import Runtime
    from repro.sim.probe import Subscriptions

    def run(count_steps):
        m = machine(16)
        rt = Runtime(m, scheduler=kind)
        steps = [0]
        subs = Subscriptions()
        if count_steps:
            def before_step(ctx):
                if ctx.label.startswith("idle@"):
                    steps[0] += 1

            for node in m.nodes:
                subs.add(node.processor, "before_step", before_step)
        result, cycles = rt.run_to_completion(
            0, lambda rt, nd: grain_parallel(rt, nd, 7, 100)
        )
        subs.clear()
        probes = sum(m.processor(i).stats.idle_probes for i in range(16))
        return (result, cycles, m.sim.events_processed, probes), steps[0]

    bare, _ = run(False)
    counted, steps = run(True)
    # a step probe leaves batches on the unobserved path: the same run
    assert counted == bare
    assert bare[0] == 128
    assert bare[1:3] == GRAIN_RUNS[kind]
    # resuming once per poll element costs 55 (sm) and 24 (hybrid) a probe
    assert steps / bare[3] < 10


# ----------------------------------------------------------------------
# Validation and semantics
# ----------------------------------------------------------------------
class TestValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative batch count"):
            ComputeLoad(0, -1)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError, match="stride must be positive"):
            LoadComputeStore(0, 64, 4, stride=0)

    def test_misaligned_prefetch_line_rejected(self):
        with pytest.raises(ValueError, match="not a multiple of stride"):
            ComputeLoad(0, 4, stride=24, prefetch_line=64)

    def test_store_run_stride_rejected(self):
        with pytest.raises(ValueError, match="stride must be positive"):
            StoreRun(0, [1], stride=0)

    def test_negative_poll_quantum_rejected(self):
        with pytest.raises(ValueError, match="negative poll quantum"):
            Poll(-1, 3, bool)

    def test_negative_poll_rounds_rejected(self):
        with pytest.raises(ValueError, match="negative poll rounds"):
            Poll(4, -1, bool)

    def test_zero_round_poll_is_free(self):
        m = machine()
        out = []
        m.processor(0).run_thread(macro_poll(4, 0, bool), on_finish=out.append)
        m.run()
        assert out == [False]
        assert m.processor(0).stats.effects == 0

    def test_spin_past_threshold_probes_once(self):
        m = machine()
        flag = m.alloc(1, 8)
        m.store.write(flag, 5)  # already past threshold
        out = []
        m.processor(0).run_thread(macro_spin(flag, 3, 6), on_finish=out.append)
        m.run()
        assert out == [True]
        assert m.processor(0).stats.effects == 1  # one load, no backoff


def test_spin_starvation_site_is_the_waiting_code():
    # an observed processor runs the Poll's micro program, but a
    # watchdog finding names the program that yielded the Poll: here
    # node 0 waits at the SM barrier for a child that never arrives
    from repro.check import CheckerSet
    from repro.runtime.barrier import SMTreeBarrier

    m = machine(2)
    checkers = CheckerSet(m, checks=("deadlock",), spin_limit=50)
    barrier = SMTreeBarrier(m, arity=2)
    m.processor(0).run_thread(barrier.enter(0), label="waiter")
    m.run(until=5_000)
    spins = [f for f in checkers.finalize().findings
             if f.kind == "spin-starvation"]
    assert len(spins) == 1
    assert spins[0].node == 0
    assert "barrier.py" in spins[0].sites[0]
    # the word node 0 waits on, whichever of the wait's effects (its
    # LoadAcquire or its backoff Compute) reached the limit
    assert spins[0].addr == barrier.arrive_addr[1]


def test_spin_starvation_addr_comes_from_the_current_streak():
    # a Store ends the streak that loaded ``a``; the streak of Computes
    # that reaches the limit loaded nothing, so the finding names no word
    from repro.check import CheckerSet

    m = machine(2)
    checkers = CheckerSet(m, checks=("deadlock",), spin_limit=50)
    a, b = m.alloc(0, 8), m.alloc(0, 8)

    def prog():
        yield Load(a)
        yield Store(b, 1)
        for _ in range(60):
            yield Compute(1)

    m.processor(0).run_thread(prog(), label="busy")
    m.run(until=5_000)
    spins = [f for f in checkers.finalize().findings
             if f.kind == "spin-starvation"]
    assert len(spins) == 1 and spins[0].addr is None
