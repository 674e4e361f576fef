"""Probe points: observers attach and detach in any order, and fault
injection is a send policy the fabric's probes sit behind."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.check import CheckerSet
from repro.faults import FaultInjector, FaultPlan, FaultRates, lossy_plan
from repro.machine import Machine, MachineConfig
from repro.obs.profiler import CycleProfiler
from repro.obs.sampler import TimeSampler
from repro.proc import Compute, ComputeLoad, Load, Send, Store
from repro.proc.batch import ComputeLoadBatch
from repro.proc.processor import Context
from repro.sim.probe import Subscriptions
from repro.trace import Tracer


def components(m):
    yield m.network
    yield m.coherence
    for node in m.nodes:
        yield from (node.processor, node.cmmu, node.cache, node.directory)


def probes(m):
    """(component class, point, subscribers) for every probe point."""
    return [
        (type(c).__name__, point, getattr(c, point))
        for c in components(m)
        for point in type(c).PROBES
    ]


def workload(m):
    """Batched loads, remote accesses and a message; returns the cycles
    it took."""
    base = m.alloc(1, 32 * 8)
    remote = m.alloc(2, 8)

    def handler(msg):
        yield Compute(5)

    if "ping" not in m.processor(1).handlers:
        m.processor(1).register_handler("ping", handler)

    def worker():
        yield ComputeLoad(base, 32, stride=8, compute=1)
        yield Store(remote, 7)
        yield Load(remote)
        yield Send(1, "ping", operands=(1,))
        yield Compute(10)

    t0 = m.sim.now
    m.processor(0).run_thread(worker())
    m.run()
    return m.sim.now - t0


class TestDetach:
    #: 8 of the 120 detach orders, attach order and its reverse included
    ORDERS = list(itertools.permutations(range(5)))[::17]

    def observe(self, m):
        return [
            Tracer(m),
            CycleProfiler(m),
            TimeSampler(m, 100),
            CheckerSet(m),
            FaultInjector(m, lossy_plan(0.0)),
        ]

    def test_detach_in_any_order_leaves_no_probes(self):
        plain = Machine(MachineConfig(n_nodes=4))
        expected = [workload(plain), workload(plain)]
        for order in self.ORDERS:
            m = Machine(MachineConfig(n_nodes=4))
            observers = self.observe(m)
            assert all(subs for _, _, subs in probes(m))  # every point
            first = workload(m)
            for i in order:
                obs = observers[i]
                (obs.finalize if isinstance(obs, CheckerSet) else obs.detach)()
            assert [p for p in probes(m) if p[2]] == [], order
            assert m.network.faults is None
            assert [first, workload(m)] == expected, order
            # macro-effects are back on their batch runners
            ctx = Context(gen=(eff for eff in [ComputeLoad(0, 1)]), cid=0)
            m.processor(0)._step(ctx, None)
            assert type(ctx.batch) is ComputeLoadBatch, order

    def test_subscribers_fire_in_attach_order(self):
        m = Machine(MachineConfig(n_nodes=4))
        seen = []
        subs = Subscriptions()
        for name in "abc":
            subs.add(m.network, "before_send", lambda p, n=name: seen.append(n))
        workload(m)
        assert seen and seen == list("abc") * (len(seen) // 3)
        subs.clear()
        assert m.network.before_send == ()


class TestFaultPolicy:
    def run(self, tracer_first):
        m = Machine(MachineConfig(n_nodes=4))

        def handler(msg):
            yield Compute(1)

        for node in range(4):
            m.processor(node).register_handler("ping", handler)
        plan = FaultPlan(rates=FaultRates(drop=0.3, duplicate=0.3), seed=3)
        if tracer_first:
            tracer = Tracer(m, kinds={"packet", "fault"})
            inj = FaultInjector(m, plan)
        else:
            inj = FaultInjector(m, plan)
            tracer = Tracer(m, kinds={"packet", "fault"})

        def worker():
            for i in range(40):
                yield Send(2, "ping", operands=(i,))
                yield Compute(25)

        m.processor(0).run_thread(worker())
        m.run()
        packets = [e for e in tracer.events if e.kind == "packet"]
        assert len(packets) == m.network.stats.packets
        faults = [e for e in tracer.events if e.kind == "fault"]
        assert len(faults) == len(inj.log) > 0
        return [(e.time, e.node, e.kind, e.what, e.detail) for e in tracer.events]

    def test_attach_order_does_not_change_trace(self):
        assert self.run(tracer_first=True) == self.run(tracer_first=False)

    def test_one_policy_per_fabric(self):
        m = Machine(MachineConfig(n_nodes=2))
        FaultInjector(m, lossy_plan(0.5))
        with pytest.raises(RuntimeError):
            FaultInjector(m, lossy_plan(0.5))


class TestObservedFaultsExperiment:
    """The faults experiment with every send probe subscribed while its
    fault policy is installed."""

    def test_session_with_tracer_and_sampler(self):
        from repro.experiments import faults_exp
        from repro.experiments.spec import QUICK_ARGS
        from repro.obs.export import build_perfetto
        from repro.obs.session import ObsConfig, session

        with session(ObsConfig(trace=True, sample_interval=1000)) as s:
            faults_exp.run(**QUICK_ARGS["faults"])
            data = s.data()
        assert data["records"]
        assert all(r["trace"] and r["samples"]["samples"] for r in data["records"])
        assert build_perfetto(data["records"])["traceEvents"]

    def test_executor_with_trace(self):
        from repro.serve.executor import ExperimentExecutor

        _meta, artifacts = ExperimentExecutor().execute(
            {"experiment": "faults", "quick": True, "trace": True}
        )
        run = json.loads(artifacts["run.json"])
        assert run["timings"]["machines"] > 0
        trace = json.loads(artifacts["trace.json"])
        assert any(ev.get("ph") != "M" for ev in trace["traceEvents"])
