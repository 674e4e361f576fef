"""Tests for the seeded fault-injection subsystem."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRates,
    LinkOutage,
    NodeStall,
    SOFTWARE_KINDS,
    lossy_plan,
)
from repro.machine import Machine, MachineConfig
from repro.network.packet import PacketKind
from repro.proc import Compute, Load, Send, Store
from repro.trace import Tracer


def ping_machine(n_nodes=4):
    """Machine with a counting 'ping' handler on every node."""
    m = Machine(MachineConfig(n_nodes=n_nodes))
    got = []

    def handler(msg):
        got.append((m.sim.now, msg.src, msg.operands[0]))
        yield Compute(1)

    for node in range(n_nodes):
        m.processor(node).register_handler("ping", handler)
    return m, got


def spray(m, n=40, dst=1):
    """One thread on node 0 sending ``n`` spaced pings to ``dst``."""

    def worker():
        for i in range(n):
            yield Send(dst, "ping", operands=(i,))
            yield Compute(25)

    m.processor(0).run_thread(worker())
    m.run()


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultRates(drop=1.5)
        with pytest.raises(ValueError):
            FaultRates(delay=-0.1)

    def test_outage_and_stall_validation(self):
        with pytest.raises(ValueError):
            LinkOutage(0, 1, start=10, end=10)
        with pytest.raises(ValueError):
            NodeStall(0, start=0, duration=0)

    def test_protocol_kinds_warn(self):
        with pytest.warns(UserWarning, match="coherence-protocol"):
            FaultPlan(
                rates=FaultRates(drop=0.1),
                kinds=frozenset(PacketKind),
            )

    def test_default_kinds_are_software_only(self):
        plan = lossy_plan(0.5)
        assert plan.kinds == SOFTWARE_KINDS
        assert plan.eligible(PacketKind.USER_MESSAGE)
        assert not plan.eligible(PacketKind.COH_READ_REQ)


class TestDeterminism:
    def run_once(self, drop=0.25, seed=11):
        m, got = ping_machine()
        inj = FaultInjector(m, lossy_plan(drop, seed=seed))
        spray(m)
        # pid is a process-global counter, so compare everything else
        schedule = [(e.time, e.node, e.fault, e.detail) for e in inj.log]
        return m.sim.now, got, schedule

    def test_same_seed_same_schedule_and_cycles(self):
        a = self.run_once(seed=11)
        b = self.run_once(seed=11)
        assert a == b

    def test_different_seed_different_schedule(self):
        _, _, sched_a = self.run_once(seed=11)
        _, _, sched_b = self.run_once(seed=12)
        assert sched_a != sched_b

    def test_zero_rate_identical_to_uninjected(self):
        m0, got0 = ping_machine()
        spray(m0)
        m1, got1 = ping_machine()
        FaultInjector(m1, lossy_plan(0.0, seed=5))
        spray(m1)
        assert m0.sim.now == m1.sim.now
        assert got0 == got1
        assert m1.network.stats.faults_injected == 0


class TestFaultKinds:
    def test_drops_lose_messages(self):
        m, got = ping_machine()
        inj = FaultInjector(m, lossy_plan(0.5, seed=3))
        spray(m, n=40)
        assert m.network.stats.dropped > 0
        assert len(got) == 40 - m.network.stats.dropped
        assert all(e.fault == "drop" for e in inj.log)

    def test_duplicates_deliver_twice(self):
        m, got = ping_machine()
        plan = FaultPlan(rates=FaultRates(duplicate=0.5), seed=3)
        FaultInjector(m, plan)
        spray(m, n=40)
        dups = m.network.stats.duplicated
        assert dups > 0
        assert len(got) == 40 + dups

    def test_delay_still_delivers(self):
        m, got = ping_machine()
        plan = FaultPlan(rates=FaultRates(delay=0.5), seed=3)
        FaultInjector(m, plan)
        spray(m, n=40)
        assert m.network.stats.delayed > 0
        assert len(got) == 40

    def test_reorder_overtakes(self):
        m, got = ping_machine()
        plan = FaultPlan(
            rates=FaultRates(reorder=0.4), reorder_range=(40, 60), seed=3
        )
        FaultInjector(m, plan)
        spray(m, n=40)
        assert m.network.stats.reordered > 0
        assert len(got) == 40
        seqs = [seq for _, _, seq in got]
        assert seqs != sorted(seqs)  # something actually overtook

    def test_link_outage_window(self):
        m, got = ping_machine()
        # node 0 -> 1 are mesh neighbours; kill that link early on
        plan = FaultPlan(outages=[LinkOutage(0, 1, start=0, end=300)])
        FaultInjector(m, plan)
        spray(m, n=40)
        lost = m.network.stats.outage_drops
        assert 0 < lost < 40  # window expires mid-run
        assert len(got) == 40 - lost

    def test_node_stall_defers_handling(self):
        m0, got0 = ping_machine()
        spray(m0, n=10)
        base = [t for t, _, _ in got0]
        m1, got1 = ping_machine()
        plan = FaultPlan(stalls=[NodeStall(1, start=0, duration=2000)])
        FaultInjector(m1, plan)
        spray(m1, n=10)
        stalled = [t for t, _, _ in got1]
        assert m1.network.stats.stalls == 1
        assert len(stalled) == 10
        # every message waited out the stall window
        assert min(stalled) >= 2000 > min(base)

    def test_per_link_rates(self):
        m, got = ping_machine()
        plan = FaultPlan(link_rates={(0, 1): FaultRates(drop=1.0)})
        FaultInjector(m, plan)
        spray(m, n=10, dst=1)
        assert len(got) == 0
        assert m.network.stats.dropped == 10

    def test_protocol_traffic_untouched(self):
        m = Machine(MachineConfig(n_nodes=4))
        FaultInjector(m, lossy_plan(1.0, seed=1))
        addr = m.alloc(1, 8)  # remote home: loads/stores cross the fabric

        def worker():
            yield Store(addr, 42)
            v = yield Load(addr)
            assert v == 42

        m.processor(0).run_thread(worker())
        m.run()
        assert m.network.stats.dropped == 0


class TestAttachDetach:
    def test_detach_restores_pristine_send(self):
        m, got = ping_machine()
        inj = FaultInjector(m, lossy_plan(1.0, seed=1))
        inj.detach()
        assert not inj.attached
        spray(m, n=10)
        assert len(got) == 10
        assert m.network.stats.faults_injected == 0

    def test_context_manager(self):
        m, got = ping_machine()
        with FaultInjector(m, lossy_plan(1.0, seed=1)) as inj:
            assert inj.attached
        assert not inj.attached

    def test_double_attach_rejected(self):
        m, _ = ping_machine()
        inj = FaultInjector(m, lossy_plan(0.5))
        with pytest.raises(RuntimeError):
            inj.attach()

    def test_stacked_wrappers_restore_lifo(self):
        # tracer and fault policy stacked on one fabric: detaching them
        # in LIFO order, or in attach order, restores the pristine send
        for lifo in (True, False):
            m, got = ping_machine()
            tracer = Tracer(m, kinds={"packet"})
            inj = FaultInjector(m, lossy_plan(1.0, seed=1))
            for obs in ((inj, tracer) if lifo else (tracer, inj)):
                obs.detach()
            assert not tracer.attached and not inj.attached
            assert m.network.faults is None
            assert m.network.before_send == m.network.after_send == ()
            assert "send" not in m.network.__dict__
            spray(m, n=10)
            assert len(got) == 10
            assert m.network.stats.faults_injected == 0
            assert tracer.events == []


class TestObservability:
    def test_fault_trace_events(self):
        m, _ = ping_machine()
        tracer = Tracer(m, kinds={"fault"})
        FaultInjector(m, lossy_plan(0.5, seed=3))
        spray(m, n=40)
        faults = tracer.filter(kind="fault")
        assert faults
        assert len(faults) == m.network.stats.dropped
        assert all(ev.what == "drop" for ev in faults)

    def test_summary_and_stats_reset(self):
        m, _ = ping_machine()
        inj = FaultInjector(m, lossy_plan(0.5, seed=3))
        spray(m, n=40)
        assert "drop=" in inj.summary()
        assert m.network.stats.faults_injected > 0
        assert m.network.stats.packets > 0
        m.network.stats.reset()
        assert m.network.stats.faults_injected == 0
        assert m.network.stats.packets == 0
        assert not m.network.stats.by_kind

    def test_report_surfaces_faults_and_hot_links(self):
        from repro.analysis.report import collect

        m, _ = ping_machine()
        FaultInjector(m, lossy_plan(0.5, seed=3))
        spray(m, n=40)
        rep = collect(m)
        assert rep.faults_injected == m.network.stats.faults_injected
        assert rep.hot_links
        (pair, busy) = rep.hot_links[0]
        assert busy > 0 and pair in m.network.link_utilization()
        text = rep.format()
        assert "faults injected" in text
        assert "hottest links" in text


class TestZeroRateOnPaperWorkloads:
    """Acceptance: a zero-rate plan is cycle-identical to an uninjected
    machine on the fig7 (bulk memcpy) and fig8 (accum) MP workloads."""

    def test_fig7_memcpy_identical(self):
        from repro.experiments.common import make_machine, run_thread_timed
        from repro.runtime.bulk import BulkTransfer

        def measure(inject):
            m = make_machine(4)
            bulk = BulkTransfer(m)
            if inject:
                FaultInjector(m, lossy_plan(0.0, seed=9))
            nbytes = 1024
            src = m.alloc(0, nbytes)
            dst = m.alloc(1, nbytes)
            for i in range(nbytes // 8):
                m.store.write(src + i * 8, i)

            def bench():
                t0 = m.sim.now
                yield from bulk.send(1, src, dst, nbytes, wait_ack=True)
                return m.sim.now - t0

            cycles, _ = run_thread_timed(m, bench())
            return cycles, m.sim.now

        assert measure(False) == measure(True)

    def test_fig8_accum_identical(self):
        from repro.apps.accum import (
            AccumFetchService,
            accum_message_passing,
            fill_array,
        )
        from repro.experiments.common import make_machine, run_thread_timed
        from repro.runtime.bulk import BulkTransfer

        def measure(inject):
            m = make_machine(4)
            bulk = BulkTransfer(m)
            AccumFetchService(m, bulk)
            if inject:
                FaultInjector(m, lossy_plan(0.0, seed=9))
            nbytes = 512
            arr = m.alloc(1, nbytes)
            buf = m.alloc(0, nbytes)
            values = fill_array(m, arr, nbytes // 8)

            def bench():
                t0 = m.sim.now
                total = yield from accum_message_passing(
                    bulk, 1, arr, buf, nbytes // 8
                )
                return (total, m.sim.now - t0)

            (total, cycles), _ = run_thread_timed(m, bench())
            assert total == sum(values)
            return cycles, m.sim.now

        assert measure(False) == measure(True)


def test_observed_lossy_point_traces_every_fault(monkeypatch):
    """The session's tracer exists before the experiment installs its
    fault policy, and still records one fault event per injected fault."""
    from repro.experiments import faults_exp
    from repro.obs.session import ObsConfig, session

    logs = []

    def logged(m, plan):
        injector = FaultInjector(m, plan)
        logs.append(injector.log)
        return injector

    monkeypatch.setattr(faults_exp, "FaultInjector", logged)
    cfg = ObsConfig(trace=True, trace_kinds=("packet", "fault"))
    with session(cfg) as s:
        for workload in ("memcpy", "barrier"):
            faults_exp.measure_point(workload, 0.05, 512, 16, 2, seed=1)
        records = s.data()["records"]
    assert len(records) == len(logs) == 2
    for record, log in zip(records, logs):
        traced = [ev for ev in record["trace"] if ev[2] == "fault"]
        assert log
        assert traced == [(f.time, f.node, "fault", f.fault, f.detail) for f in log]
