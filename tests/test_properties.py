"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, MachineConfig
from repro.memory import (
    AccessKind,
    DirState,
    LineState,
    make_addr,
)
from repro.memory.store import BackingStore
from repro.proc import Compute, FetchOp, Load, Store


# ----------------------------------------------------------------------
# Coherence protocol invariants under arbitrary access interleavings
# ----------------------------------------------------------------------
access_op = st.tuples(
    st.integers(0, 3),                    # node
    st.integers(0, 5),                    # line index
    st.sampled_from(["r", "w", "p"]),     # access kind
)


@given(st.lists(access_op, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_coherence_invariants_hold_after_quiesce(ops):
    m = Machine(MachineConfig(n_nodes=4, cache_lines=8))
    eng = m.coherence
    kinds = {"r": AccessKind.READ, "w": AccessKind.WRITE, "p": AccessKind.PREFETCH}
    lines = sorted({make_addr(1, 0x100 + 0x10 * li) for _, li, _ in ops})
    for node, li, k in ops:
        addr = make_addr(1, 0x100 + 0x10 * li)
        eng.access(node, addr, kinds[k], lambda: None)
    m.run()

    for line in lines:
        holders_m = [
            n for n in range(4)
            if m.nodes[n].cache.state(line)
            in (LineState.MODIFIED, LineState.EXCLUSIVE)
        ]
        holders_s = [n for n in range(4) if m.nodes[n].cache.state(line) is LineState.SHARED]
        entry = m.nodes[1].directory.peek(line)
        # SWMR: at most one exclusive/modified copy, never next to shared
        assert len(holders_m) <= 1
        if holders_m:
            assert not holders_s
            assert entry is not None
            assert entry.state is DirState.EXCLUSIVE
            assert entry.owner == holders_m[0]
        # every shared holder is tracked by the directory (it may track
        # extra, stale sharers from silent evictions — never fewer)
        if entry is not None and holders_s:
            assert set(holders_s) <= entry.sharers


@given(
    st.integers(1, 4),     # writers
    st.integers(1, 12),    # increments per writer
)
@settings(max_examples=20, deadline=None)
def test_fetchop_is_atomic_under_any_contention(writers, per_writer):
    m = Machine(MachineConfig(n_nodes=4))
    addr = m.alloc(0, 8)

    def bump(times):
        for _ in range(times):
            yield FetchOp(addr, lambda v: v + 1)
            yield Compute(3)

    for w in range(writers):
        m.processor(w).run_thread(bump(per_writer))
    m.run()
    assert m.store.read(addr) == writers * per_writer


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 31)), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_last_writer_wins_per_address(writes):
    """Sequentially-issued writes from varying nodes: the final value
    at each address is the last write issued to it."""
    m = Machine(MachineConfig(n_nodes=4))
    base = m.alloc(0, 32 * 8)
    expected = {}

    def driver():
        for i, (node, slot) in enumerate(writes):
            expected[slot] = i
            # route each write through the owning node's processor
            done = []
            m.coherence.access(
                node, base + slot * 8, AccessKind.WRITE,
                lambda i=i, slot=slot: (m.store.write(base + slot * 8, i), done.append(1)),
            )
            yield Compute(200)  # let it retire before the next write

    m.processor(0).run_thread(driver())
    m.run()
    for slot, val in expected.items():
        assert m.store.read(base + slot * 8) == val


# ----------------------------------------------------------------------
# Backing-store snapshot round trips
# ----------------------------------------------------------------------
@given(
    st.dictionaries(st.integers(0, 31), st.integers(-1000, 1000), max_size=16),
    st.integers(1, 32),
)
@settings(max_examples=60)
def test_snapshot_roundtrip(values, window_words):
    store = BackingStore()
    nbytes = window_words * 4
    for off_w, v in values.items():
        store.write(0x1000 + off_w * 4, v)
    snap = store.snapshot_range(0x1000, nbytes)
    store.write_snapshot(0x8000, nbytes, snap)
    for off in range(0, nbytes, 4):
        assert store.read(0x8000 + off) == store.read(0x1000 + off)


@given(st.integers(1, 64), st.integers(0, 100))
@settings(max_examples=40)
def test_copy_range_window_semantics(n_words, stale):
    store = BackingStore()
    store.write(0x8000, stale)  # pre-existing destination value
    for i in range(n_words):
        store.write(0x1000 + i * 4, i + 1)
    nbytes = n_words * 4
    store.write_snapshot(0x8000, nbytes, store.snapshot_range(0x1000, nbytes))
    assert store.read(0x8000) == 1  # overwritten, not merged


# ----------------------------------------------------------------------
# Fork/join trees of arbitrary shape compute the right answer
# ----------------------------------------------------------------------
tree_strategy = st.recursive(
    st.integers(1, 5),
    lambda children: st.lists(children, min_size=1, max_size=3),
    max_leaves=12,
)


@given(tree_strategy, st.sampled_from(["hybrid", "sm"]))
@settings(max_examples=25, deadline=None)
def test_forkjoin_arbitrary_trees(tree, kind):
    from repro.runtime import Runtime

    def tree_sum(shape):
        if isinstance(shape, int):
            return shape
        return sum(tree_sum(c) for c in shape)

    def walker(rt, node, shape):
        if isinstance(shape, int):
            yield Compute(5 + shape)
            return shape
        futures = []
        for child in shape[:-1]:
            fut = yield from rt.fork(
                node, lambda rt, nd, c=child: walker(rt, nd, c)
            )
            futures.append(fut)
        total = yield from walker(rt, node, shape[-1])
        for fut in reversed(futures):
            total += yield from rt.join(node, fut)
        return total

    m = Machine(MachineConfig(n_nodes=4))
    rt = Runtime(m, scheduler=kind)
    result, _ = rt.run_to_completion(0, lambda rt, nd: walker(rt, nd, tree))
    assert result == tree_sum(tree)


# ----------------------------------------------------------------------
# Simulated memory agrees across arbitrary reader/writer placements
# ----------------------------------------------------------------------
@given(st.integers(0, 3), st.integers(0, 3), st.integers(-5000, 5000))
@settings(max_examples=30, deadline=None)
def test_write_then_read_any_nodes(writer, reader, value):
    m = Machine(MachineConfig(n_nodes=4))
    addr = m.alloc(2, 8)
    seen = []

    def w():
        yield Store(addr, value)

    def r():
        yield Compute(1000)
        v = yield Load(addr)
        seen.append(v)

    m.processor(writer).run_thread(w())
    m.processor(reader).run_thread(r())
    m.run()
    assert seen == [value]
