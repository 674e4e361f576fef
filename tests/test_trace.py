"""Tests for the execution tracer."""

import json

import pytest

from repro.machine import Machine, MachineConfig
from repro.proc import Compute, Load, Send, Store
from repro.trace import Tracer


def traced_machine(kinds=None):
    m = Machine(MachineConfig(n_nodes=4))
    tracer = Tracer(m, kinds=kinds)
    return m, tracer


def run_workload(m):
    addr = m.alloc(1, 8)

    def handler(msg):
        yield Compute(1)

    m.processor(2).register_handler("ping", handler)

    def worker():
        yield Store(addr, 7)
        yield Load(addr)
        yield Send(2, "ping", operands=(1,))

    m.processor(0).run_thread(worker(), label="worker")
    m.run()


class TestTracer:
    def test_records_all_kinds(self):
        m, tracer = traced_machine()
        run_workload(m)
        kinds = {ev.kind for ev in tracer.events}
        assert {"effect", "packet", "txn", "handler", "context"} <= kinds

    def test_kind_filtering_at_attach(self):
        m, tracer = traced_machine(kinds={"packet"})
        run_workload(m)
        assert tracer.events
        assert all(ev.kind == "packet" for ev in tracer.events)

    def test_unknown_kind_rejected(self):
        m = Machine(MachineConfig(n_nodes=2))
        with pytest.raises(ValueError):
            Tracer(m, kinds={"bogus"})

    def test_events_time_ordered(self):
        m, tracer = traced_machine()
        run_workload(m)
        times = [ev.time for ev in tracer.events]
        assert times == sorted(times)

    def test_filter_by_node_and_window(self):
        m, tracer = traced_machine()
        run_workload(m)
        n0 = tracer.filter(node=0)
        assert n0 and all(ev.node == 0 for ev in n0)
        early = tracer.filter(until=5)
        assert all(ev.time <= 5 for ev in early)

    def test_handler_event_names_message(self):
        m, tracer = traced_machine(kinds={"handler"})
        run_workload(m)
        assert any(ev.what == "ping" for ev in tracer.events)

    def test_timeline_renders(self):
        m, tracer = traced_machine()
        run_workload(m)
        text = tracer.timeline(0)
        assert "n0" in text

    def test_timeline_empty_node(self):
        m, tracer = traced_machine()
        run_workload(m)
        assert "no events" in tracer.timeline(3)

    def test_summarize(self):
        m, tracer = traced_machine()
        run_workload(m)
        text = tracer.summarize()
        assert "trace:" in text and "packet" in text

    def test_max_events_cap(self):
        m = Machine(MachineConfig(n_nodes=4))
        tracer = Tracer(m, max_events=3)
        run_workload(m)
        assert len(tracer.events) == 3
        assert tracer.dropped > 0

    def test_jsonl_export(self, tmp_path):
        m, tracer = traced_machine(kinds={"packet"})
        run_workload(m)
        path = tmp_path / "trace.jsonl"
        n = tracer.to_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        # metadata line first, then one line per event
        assert len(lines) == n + 1
        meta = json.loads(lines[0])["meta"]
        assert meta["events"] == n
        assert meta["dropped"] == 0
        assert meta["complete"] is True
        first = json.loads(lines[1])
        assert {"time", "node", "kind", "what"} <= set(first)

    def test_jsonl_meta_reports_drops(self, tmp_path):
        m = Machine(MachineConfig(n_nodes=4))
        tracer = Tracer(m, max_events=3)
        run_workload(m)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(str(path))
        meta = json.loads(path.read_text().splitlines()[0])["meta"]
        assert meta["dropped"] == tracer.dropped > 0
        assert meta["complete"] is False

    def test_jsonl_round_trip(self, tmp_path):
        from repro.trace.tracer import from_jsonl

        m, tracer = traced_machine()
        run_workload(m)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(str(path))
        events, meta = from_jsonl(str(path))
        assert events == tracer.events  # dataclass equality, field by field
        assert meta["events"] == len(tracer.events)

    def test_check_kind_round_trips_through_jsonl(self, tmp_path):
        """Checker findings mirrored into the trace ("check" kind)
        survive the jsonl export/import round trip."""
        from repro.trace.tracer import from_jsonl

        m, tracer = traced_machine(kinds={"check"})
        tracer.record(1, "check", "write-read", "unsynchronized pair on 0x10")
        run_workload(m)  # ordinary traffic: filtered out by the kind set
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(str(path))
        events, meta = from_jsonl(str(path))
        assert events == tracer.events
        assert len(events) == 1
        assert events[0].kind == "check"
        assert events[0].what == "write-read"
        assert events[0].detail == "unsynchronized pair on 0x10"

    def test_trace_event_slots(self):
        """TraceEvent is slotted: no per-event __dict__ (memory)."""
        from repro.trace.tracer import TraceEvent

        ev = TraceEvent(1, 0, "packet", "x")
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.bogus = 1

    def test_handler_and_context_lifecycle_events(self):
        """Exporters need span ends: handler return + context finish."""
        m, tracer = traced_machine(kinds={"handler", "context"})
        run_workload(m)
        handlers = [ev for ev in tracer.events if ev.kind == "handler"]
        assert any(ev.detail == "return" for ev in handlers)
        contexts = [ev for ev in tracer.events if ev.kind == "context"]
        spawns = [ev for ev in contexts if ev.what == "spawn"]
        finishes = [ev for ev in contexts if ev.what == "finish"]
        assert spawns and finishes
        # spawn/finish pair by context id (the detail's cid prefix)
        spawn_cids = {ev.detail.partition(":")[0] for ev in spawns}
        finish_cids = {ev.detail.partition(":")[0] for ev in finishes}
        assert spawn_cids <= finish_cids

    def test_untraced_machine_behaves_identically(self):
        """Tracing must not perturb simulated timing."""
        def run(with_trace):
            m = Machine(MachineConfig(n_nodes=4))
            if with_trace:
                Tracer(m)
            addr = m.alloc(1, 8)
            done = []

            def worker():
                yield Store(addr, 1)
                v = yield Load(addr)
                done.append((v, m.sim.now))

            m.processor(0).run_thread(worker())
            m.run()
            return done[0]

        assert run(False) == run(True)


class TestAttachDetach:
    def test_detach_stops_recording(self):
        m, tracer = traced_machine()
        tracer.detach()
        assert not tracer.attached
        run_workload(m)
        assert tracer.events == []

    def test_detach_restores_original_methods(self):
        m = Machine(MachineConfig(n_nodes=4))
        send_before = m.network.send
        tracer = Tracer(m)
        # attaching subscribes to probe points; no method is replaced
        assert m.network.before_send != ()
        assert "send" not in m.network.__dict__
        assert m.network.send == send_before
        tracer.detach()
        # every probe point is back to the empty tuple and the class
        # methods run unobserved again
        for comp in (m.network, m.coherence,
                     *(node.processor for node in m.nodes)):
            for point in type(comp).PROBES:
                assert getattr(comp, point) == (), (type(comp).__name__, point)
        assert "send" not in m.network.__dict__
        assert m.network.send == send_before

    def test_reattach_records_again(self):
        m, tracer = traced_machine()
        tracer.detach()
        tracer.attach()
        run_workload(m)
        assert tracer.events

    def test_double_attach_rejected(self):
        m, tracer = traced_machine()
        with pytest.raises(RuntimeError):
            tracer.attach()

    def test_context_manager_detaches(self):
        m = Machine(MachineConfig(n_nodes=4))
        with Tracer(m, kinds={"packet"}) as tracer:
            run_workload(m)
        assert not tracer.attached
        packets = len(tracer.events)
        assert packets > 0
        # outside the with-block: more traffic, nothing recorded
        def again():
            yield Send(2, "ping", operands=(2,))

        m.processor(0).run_thread(again())
        m.run()
        assert len(tracer.events) == packets


class TestPerMachineIds:
    """Ids a trace names things by (contexts, tasks, channels) count per
    machine, so a trace does not depend on what the process ran before."""

    def test_same_point_twice_traces_the_same(self):
        from repro.obs.session import ObsConfig, session
        from repro.perf.sweep import SweepPoint, run_point

        point = SweepPoint(
            "repro.experiments.fig9_grain:measure_grain",
            {"kind": "hybrid", "delay": 0, "depth": 6, "n_nodes": 16},
        )
        records = []
        for _ in range(2):
            with session(ObsConfig(trace=True)) as s:
                run_point(point)
                records.append(s.data()["records"])
        assert records[0] == records[1]

    def test_channels_on_fresh_machines_share_message_types(self):
        from repro.ext import Channel

        handlers = []
        for _ in range(2):
            m = Machine(MachineConfig(n_nodes=4))
            Channel(m, producer=0, consumer=1, mechanism="mp")
            handlers.append(sorted(m.processor(1).handlers))
        assert handlers[0] == handlers[1]
