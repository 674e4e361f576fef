"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 20


def test_same_cycle_events_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(7, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0, lambda: fired.append(True))
    sim.run()
    assert fired == [True]
    assert sim.now == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_fractional_delay_rounds_up():
    sim = Simulator()
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [3]


def test_schedule_at_absolute():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: sim.schedule_at(12, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [12]


def test_schedule_at_past_rejected():
    sim = Simulator()
    errors = []

    def later():
        try:
            sim.schedule_at(1, lambda: None)
        except SimulationError as e:
            errors.append(e)

    sim.schedule(10, later)
    sim.run()
    assert len(errors) == 1


def test_cancel_event():
    sim = Simulator()
    fired = []
    h = sim.schedule(5, lambda: fired.append(True))
    h.cancel()
    sim.run()
    assert fired == []
    assert h.cancelled


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 50
    assert sim.pending == 1
    sim.run()
    assert sim.now == 100


def test_run_until_exact_boundary_event_runs():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: fired.append(True))
    sim.run(until=50)
    assert fired == [True]


def test_nested_scheduling_during_run():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(sim.now)
        if n > 0:
            sim.schedule(3, lambda: chain(n - 1))

    sim.schedule(0, lambda: chain(4))
    sim.run()
    assert hits == [0, 3, 6, 9, 12]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


@pytest.mark.parametrize("delay", [0, 1])  # a same-cycle chain, a cycle chain
def test_max_events_raises_right_after_the_nth_event(delay):
    sim = Simulator()
    fired = []

    def forever():
        fired.append(sim.now)
        sim.call_after(delay, forever)

    sim.call_after(0, forever)
    with pytest.raises(SimulationError, match="max_events=7"):
        sim.run(max_events=7)
    assert len(fired) == 7
    assert sim.events_processed == 7
    assert sim.now == fired[-1]
    with pytest.raises(SimulationError):  # the budget is per call
        sim.run(max_events=5)
    assert len(fired) == 12


def test_max_events_raises_on_a_run_of_exactly_n_events():
    def run(max_events):
        sim = Simulator()
        fired = []
        for t in (0, 0, 3, 5):
            sim.call_after(t, lambda t=t: fired.append(t))
        sim.schedule(4, lambda: fired.append("h")).cancel()  # never counts
        try:
            sim.run(max_events=max_events)
        except SimulationError:
            return fired, True
        return fired, False

    assert run(5) == ([0, 0, 3, 5], False)
    assert run(4) == ([0, 0, 3, 5], True)
    assert run(3) == ([0, 0, 3], True)


def test_max_events_leaves_the_rest_of_the_queue_in_order():
    """A run stopped by its budget inside a bucket keeps the bucket's
    unfired events queued in FIFO order, same-cycle appends included."""
    def schedule(sim, order):
        def chain(tag, k):
            order.append((sim.now, tag, k))
            if k:
                sim.call_after(0, lambda: chain(tag, k - 1))

        for tag in "abc":
            sim.call_after(2, lambda tag=tag: chain(tag, 2))
        sim.schedule(2, lambda: order.append((sim.now, "h", 0)))
        sim.call_daemon(2, lambda: order.append((sim.now, "d", 0)))
        sim.call_after(9, lambda: order.append((sim.now, "z", 0)))

    whole = []
    sim = Simulator()
    schedule(sim, whole)
    sim.run()
    for budget in range(1, len(whole)):
        split = []
        sim = Simulator()
        schedule(sim, split)
        with pytest.raises(SimulationError):
            sim.run(max_events=budget)
        assert len(split) == budget
        sim.run()
        assert split == whole
        assert sim.events_processed == len(whole) and sim.pending == 0


def test_run_until_with_only_daemon_events_left():
    sim = Simulator()
    seen = []
    sim.call_daemon(8, lambda: seen.append(("d", sim.now)))
    assert sim.run(until=50) == 50
    assert seen == [] and sim.pending == 1
    # model work again: the daemon the clock passed fires late, and
    # the clock never runs backwards
    sim.call_after(10, lambda: seen.append(("m", sim.now)))
    sim.run(until=55)
    assert seen == [("d", 50)] and sim.now == 55
    sim.run()
    assert seen == [("d", 50), ("m", 60)] and sim.now == 60


@pytest.mark.parametrize("kw", [{}, {"until": 100}, {"max_events": 100}])
def test_daemon_never_fires_after_the_last_model_event(kw):
    sim = Simulator()
    seen = []
    sim.call_daemon(5, lambda: seen.append(("d", sim.now)))
    sim.call_after(5, lambda: seen.append(("m", sim.now)))
    sim.call_daemon(5, lambda: seen.append(("d", sim.now)))  # after the last model event
    sim.call_daemon(7, lambda: seen.append(("d", sim.now)))
    sim.run(**kw)
    assert seen == [("d", 5), ("m", 5)]
    assert sim.now == kw.get("until", 5)
    assert sim.pending == 2 and sim.events_processed == 2


def test_daemon_reads_current_counters():
    """Counters are flushed before a daemon runs, exactly as if every
    event had been counted as it fired."""
    sim = Simulator()
    seen = []
    for t in (1, 1, 2):
        sim.call_after(t, lambda: None)
    sim.call_daemon(2, lambda: seen.append((sim.events_processed, sim.pending)))
    sim.call_after(3, lambda: None)
    sim.run()
    assert seen == [(4, 1)]
    assert sim.events_processed == 5 and sim.pending == 0


def test_max_events_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError, match="positive"):
        sim.run(max_events=0)


def test_cancel_already_fired_event():
    sim = Simulator()
    fired = []
    h = sim.schedule(5, lambda: fired.append(True))
    sim.run()
    assert fired == [True]
    h.cancel()  # idempotent no-op after firing
    sim.run()
    assert fired == [True]


def test_schedule_at_exactly_now_fires_same_cycle():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(10, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [10]
    assert sim.now == 10


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_fired_property_lifecycle():
    sim = Simulator()
    h = sim.schedule(5, lambda: None)
    assert not h.fired
    assert not h.cancelled
    sim.run()
    assert h.fired
    assert not h.cancelled


def test_cancel_after_fire_is_noop():
    """Regression: cancel() on a fired handle must not mark it
    cancelled, must not disturb the live-event counter, and must not
    affect later events."""
    sim = Simulator()
    fired = []
    h = sim.schedule(1, lambda: fired.append("a"))
    sim.schedule(2, lambda: fired.append("b"))
    sim.run(until=1)
    assert h.fired
    h.cancel()
    assert not h.cancelled
    assert sim.pending == 1  # the "b" event is still live
    sim.run()
    assert fired == ["a", "b"]


def test_cancel_is_idempotent_on_pending_event():
    sim = Simulator()
    h = sim.schedule(5, lambda: None)
    h.cancel()
    h.cancel()  # second cancel must not double-decrement the counter
    assert sim.pending == 0
    sim.run()
    assert sim.events_processed == 0


def test_pending_tracks_schedule_cancel_and_fire():
    sim = Simulator()
    assert sim.pending == 0
    h1 = sim.schedule(5, lambda: None)
    h2 = sim.schedule(6, lambda: None)
    sim.call_after(7, lambda: None)
    assert sim.pending == 3
    h1.cancel()
    assert sim.pending == 2
    sim.run(until=6)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert h2.fired


def test_call_after_fires_in_time_order():
    sim = Simulator()
    order = []
    sim.call_after(10, lambda: order.append("b"))
    sim.call_after(5, lambda: order.append("a"))
    sim.call_after(20, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_call_after_interleaves_fifo_with_schedule():
    """Handle-free and handle-bearing events at the same cycle must
    fire in submission order — the global-FIFO determinism contract."""
    sim = Simulator()
    order = []
    sim.schedule(3, lambda: order.append("h0"))
    sim.call_after(3, lambda: order.append("f1"))
    sim.schedule(3, lambda: order.append("h2"))
    sim.call_after(3, lambda: order.append("f3"))
    sim.run()
    assert order == ["h0", "f1", "h2", "f3"]


def test_call_at_absolute_and_past_rejected():
    from repro.sim import SimulationError as SE

    sim = Simulator()
    seen = []
    sim.call_after(5, lambda: sim.call_at(12, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [12]
    with pytest.raises(SE):
        sim.call_at(3, lambda: None)


def test_out_of_order_schedule_after_due_lane_fill():
    """Scheduling a *nearer* event after farther same-lane entries must
    still fire in time order (it lands in the heap, not the due lane)."""
    sim = Simulator()
    order = []
    sim.call_after(10, lambda: order.append("far"))
    sim.call_after(2, lambda: order.append("near"))
    sim.call_after(10, lambda: order.append("far2"))
    sim.run()
    assert order == ["near", "far", "far2"]
    assert sim.now == 10


class TestResource:
    def test_sequential_acquisitions_serialize(self):
        sim = Simulator()
        r = Resource(sim)
        t1 = r.acquire(10)
        t2 = r.acquire(5)
        assert t1 == 10
        assert t2 == 15

    def test_acquire_after_idle_starts_now(self):
        sim = Simulator()
        r = Resource(sim)
        r.acquire(3)
        sim.schedule(100, lambda: None)
        sim.run()
        assert r.acquire(4) == 104

    def test_earliest_constraint(self):
        sim = Simulator()
        r = Resource(sim)
        assert r.acquire(5, earliest=20) == 25

    def test_earliest_before_busy_until_queues(self):
        sim = Simulator()
        r = Resource(sim)
        r.acquire(30)
        assert r.acquire(5, earliest=10) == 35

    def test_earliest_in_the_past_clamps_to_now(self):
        sim = Simulator()
        r = Resource(sim)
        sim.schedule(100, lambda: None)
        sim.run()
        # free resource, stale earliest: occupancy starts now, and the
        # completion time never lands in the past
        assert r.acquire(5, earliest=10) == 105

    def test_negative_occupancy_rejected(self):
        sim = Simulator()
        r = Resource(sim)
        with pytest.raises(SimulationError):
            r.acquire(-1)

    def test_total_busy_accounting(self):
        sim = Simulator()
        r = Resource(sim)
        r.acquire(10)
        r.acquire(7)
        assert r.total_busy == 17


class TestDaemonEvents:
    """call_daemon: observer events that never keep the run alive."""

    def test_daemon_fires_while_model_work_remains(self):
        sim = Simulator()
        seen = []
        sim.call_daemon(5, lambda: seen.append(sim.now))
        sim.schedule(10, lambda: None)
        sim.run()
        assert seen == [5]

    def test_pending_daemon_does_not_extend_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: None)
        sim.call_daemon(50, lambda: seen.append(True))
        sim.run()
        assert seen == []          # never fired: no model work at t=50
        assert sim.now == 10       # the clock stopped at the last model event

    def test_daemon_only_queue_runs_nothing(self):
        sim = Simulator()
        seen = []
        sim.call_daemon(5, lambda: seen.append(True))
        sim.run()
        assert seen == [] and sim.now == 0

    def test_self_rescheduling_daemon_terminates(self):
        """The sampler pattern: a daemon that re-arms itself must not
        keep the run alive once model work is done."""
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if sim._live > sim._daemons:
                sim.call_daemon(10, tick)

        sim.call_daemon(10, tick)
        sim.schedule(35, lambda: None)
        sim.run()
        assert ticks == [10, 20, 30]
        assert sim.now == 35

    def test_daemon_preserves_model_order_and_clock(self):
        """Interleaved daemons must not reorder model events."""
        def run(with_daemon):
            sim = Simulator()
            order = []
            for t in (3, 7, 7, 12):
                sim.schedule(t, lambda t=t: order.append((t, sim.now)))
            if with_daemon:
                for t in (1, 3, 7, 11):
                    sim.call_daemon(t, lambda: None)
            sim.run()
            return order, sim.now

        assert run(False) == run(True)

    def test_daemon_respects_until_and_max_events(self):
        sim = Simulator()
        seen = []
        sim.call_daemon(5, lambda: seen.append("d"))
        sim.schedule(10, lambda: seen.append("m"))
        sim.run(until=7)
        assert seen == ["d"]
        sim.run()
        assert seen == ["d", "m"]

    def test_run_with_until_stops_on_daemon_only_queue(self):
        """A queued daemon must not fire after the last model event,
        and the clock behaves exactly as it would unobserved (run with
        ``until`` advances to ``until`` on a drained queue)."""
        fired = []
        def run(with_daemon):
            sim = Simulator()
            sim.schedule(5, lambda: None)
            if with_daemon:
                sim.call_daemon(8, lambda: fired.append(True))
            sim.run(until=100)
            return sim.now

        assert run(True) == run(False)
        assert fired == []
