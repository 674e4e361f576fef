"""Tests for addresses, backing store, cache, and directory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    BackingStore,
    Cache,
    Directory,
    DirState,
    LineState,
    home_of,
    line_of,
    line_range,
    make_addr,
    offset_of,
)


class TestAddress:
    def test_roundtrip(self):
        a = make_addr(5, 0x1234)
        assert home_of(a) == 5
        assert offset_of(a) == 0x1234

    def test_node_zero(self):
        a = make_addr(0, 64)
        assert home_of(a) == 0 and offset_of(a) == 64

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            make_addr(-1, 0)

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            make_addr(0, 1 << 32)

    def test_line_alignment(self):
        assert line_of(0x13, 16) == 0x10
        assert line_of(0x10, 16) == 0x10
        assert line_of(0x1F, 16) == 0x10
        assert line_of(0x20, 16) == 0x20

    def test_line_of_preserves_home(self):
        a = make_addr(7, 0x103)
        assert home_of(line_of(a)) == 7

    def test_line_range_covers_span(self):
        r = list(line_range(0x18, 16, 16))  # straddles two lines
        assert r == [0x10, 0x20]

    def test_line_range_empty(self):
        assert list(line_range(0x10, 0, 16)) == []

    def test_line_range_exact_lines(self):
        assert list(line_range(0x20, 32, 16)) == [0x20, 0x30]

    @given(st.integers(0, 1000), st.integers(0, 2**20))
    @settings(max_examples=50)
    def test_roundtrip_property(self, node, offset):
        a = make_addr(node, offset)
        assert home_of(a) == node
        assert offset_of(a) == offset


class TestBackingStore:
    def test_default_zero(self):
        s = BackingStore()
        assert s.read(0x100) == 0

    def test_write_read(self):
        s = BackingStore()
        s.write(0x100, 42)
        assert s.read(0x100) == 42

    def test_arbitrary_values(self):
        s = BackingStore()
        s.write(8, 3.14)
        assert s.read(8) == 3.14

    # the DMA engine copies a range as snapshot_range at launch and
    # write_snapshot at storeback
    def test_copy_range(self):
        s = BackingStore()
        for i in range(8):
            s.write(0x100 + i * 4, i * 10)
        s.write_snapshot(0x200, 32, s.snapshot_range(0x100, 32))
        assert [s.read(0x200 + i * 4) for i in range(8)] == [i * 10 for i in range(8)]

    def test_copy_range_clears_stale_destination(self):
        s = BackingStore()
        s.write(0x200, 99)
        # source empty -> dest reads 0
        s.write_snapshot(0x200, 4, s.snapshot_range(0x100, 4))
        assert s.read(0x200) == 0

    def test_copy_range_negative_rejected(self):
        with pytest.raises(ValueError):
            BackingStore().snapshot_range(0, -4)
        with pytest.raises(ValueError):
            BackingStore().write_snapshot(8, -4, [])

    def test_atomic_rmw(self):
        s = BackingStore()
        s.write(0x10, 5)
        old, new = s.atomically(0x10, lambda v: v + 3)
        assert (old, new) == (5, 8)
        assert s.read(0x10) == 8


class TestCache:
    def test_initially_invalid(self):
        c = Cache(0, capacity_lines=4)
        assert c.state(0x100) is LineState.INVALID
        assert not c.lookup(0x100, for_write=False)

    def test_fill_then_hit(self):
        c = Cache(0, capacity_lines=4)
        c.fill(0x100, LineState.SHARED)
        assert c.lookup(0x100, for_write=False)
        assert c.stats.hits == 1

    def test_shared_line_misses_for_write(self):
        c = Cache(0, capacity_lines=4)
        c.fill(0x100, LineState.SHARED)
        assert not c.lookup(0x100, for_write=True)

    def test_modified_hits_for_both(self):
        c = Cache(0, capacity_lines=4)
        c.fill(0x100, LineState.MODIFIED)
        assert c.lookup(0x100, for_write=True)
        assert c.lookup(0x100, for_write=False)

    def test_lru_eviction_order(self):
        c = Cache(0, capacity_lines=2)
        c.fill(0x100, LineState.SHARED)
        c.fill(0x200, LineState.SHARED)
        c.lookup(0x100, for_write=False)  # 0x200 now LRU
        c.fill(0x300, LineState.SHARED)
        assert c.state(0x200) is LineState.INVALID
        assert c.state(0x100) is LineState.SHARED

    def test_evicting_dirty_line_returns_victim(self):
        c = Cache(0, capacity_lines=1)
        c.fill(0x100, LineState.MODIFIED)
        victim = c.fill(0x200, LineState.SHARED)
        assert victim == 0x100
        assert c.stats.writebacks == 1

    def test_evicting_clean_line_silent(self):
        c = Cache(0, capacity_lines=1)
        c.fill(0x100, LineState.SHARED)
        assert c.fill(0x200, LineState.SHARED) is None

    def test_refill_same_line_no_eviction(self):
        c = Cache(0, capacity_lines=1)
        c.fill(0x100, LineState.SHARED)
        assert c.fill(0x100, LineState.MODIFIED) is None
        assert c.state(0x100) is LineState.MODIFIED

    def test_invalidate(self):
        c = Cache(0, capacity_lines=4)
        c.fill(0x100, LineState.SHARED)
        assert c.invalidate(0x100) is LineState.SHARED
        assert c.state(0x100) is LineState.INVALID
        assert c.invalidate(0x100) is LineState.INVALID  # idempotent

    def test_set_state_on_absent_line_raises(self):
        c = Cache(0, capacity_lines=4)
        with pytest.raises(KeyError):
            c.set_state(0x100, LineState.SHARED)

    def test_set_state_invalid_drops(self):
        c = Cache(0, capacity_lines=4)
        c.fill(0x100, LineState.MODIFIED)
        c.set_state(0x100, LineState.INVALID)
        assert c.state(0x100) is LineState.INVALID

    def test_flush_range(self):
        c = Cache(0, capacity_lines=8, line_size=16)
        c.fill(0x100, LineState.MODIFIED)
        c.fill(0x110, LineState.SHARED)
        c.fill(0x200, LineState.SHARED)
        dropped = c.flush_range(0x100, 32)
        assert dict(dropped) == {0x100: LineState.MODIFIED, 0x110: LineState.SHARED}
        assert c.state(0x200) is LineState.SHARED

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Cache(0, capacity_lines=0)

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            Cache(0, capacity_lines=4, line_size=12)

    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=60))
    @settings(max_examples=30)
    def test_capacity_never_exceeded(self, ops):
        c = Cache(0, capacity_lines=4, line_size=16)
        for line_idx, dirty in ops:
            c.fill(line_idx * 16, LineState.MODIFIED if dirty else LineState.SHARED)
            assert len(c) <= 4


class TestDirectory:
    def test_fresh_entry_unowned(self):
        d = Directory(0)
        e = d.entry(0x100)
        assert e.state is DirState.UNOWNED
        assert e.well_formed()

    def test_add_sharer(self):
        d = Directory(0)
        overflow = d.add_sharer(0x100, 3)
        assert not overflow
        e = d.entry(0x100)
        assert e.state is DirState.SHARED and e.sharers == {3}
        assert e.well_formed()

    def test_overflow_beyond_hw_pointers(self):
        d = Directory(0, hw_pointers=2)
        assert not d.add_sharer(0x100, 1)
        assert not d.add_sharer(0x100, 2)
        assert d.add_sharer(0x100, 3)  # third sharer overflows 2 pointers
        assert d.stats.software_traps == 1

    def test_set_exclusive_clears_sharers(self):
        d = Directory(0)
        d.add_sharer(0x100, 1)
        d.add_sharer(0x100, 2)
        d.set_exclusive(0x100, 7)
        e = d.entry(0x100)
        assert e.state is DirState.EXCLUSIVE and e.owner == 7 and not e.sharers
        assert e.well_formed()

    def test_add_sharer_while_exclusive_raises(self):
        d = Directory(0)
        d.set_exclusive(0x100, 1)
        with pytest.raises(ValueError):
            d.add_sharer(0x100, 2)

    def test_clear(self):
        d = Directory(0)
        d.set_exclusive(0x100, 1)
        d.clear(0x100)
        assert d.entry(0x100).state is DirState.UNOWNED

    def test_drop_sharer_to_unowned(self):
        d = Directory(0)
        d.add_sharer(0x100, 1)
        d.drop_sharer(0x100, 1)
        assert d.entry(0x100).state is DirState.UNOWNED

    def test_drop_missing_sharer_noop(self):
        d = Directory(0)
        d.add_sharer(0x100, 1)
        d.drop_sharer(0x100, 9)
        assert d.entry(0x100).sharers == {1}

    def test_sharers_to_invalidate_excludes_and_sorts(self):
        d = Directory(0)
        for n in (5, 1, 9):
            d.add_sharer(0x100, n)
        assert d.sharers_to_invalidate(0x100, excluding=5) == [1, 9]

    def test_hw_pointers_validation(self):
        with pytest.raises(ValueError):
            Directory(0, hw_pointers=0)

    def test_peek_does_not_create(self):
        d = Directory(0)
        assert d.peek(0x500) is None
        assert len(d) == 0
