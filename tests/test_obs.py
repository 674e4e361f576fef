"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.machine import Machine, MachineConfig
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    collect_machine,
)
from repro.obs.profiler import BUCKETS, CycleProfiler, merge_attribution
from repro.obs.sampler import TimeSampler
from repro.proc import Compute, Load, Send, Store


def machine(n=4):
    return Machine(MachineConfig(n_nodes=n))


def _compute_gen(cycles):
    yield Compute(cycles)


def run_mixed_workload(m):
    """Compute + local/remote memory traffic + a message handler."""
    local = m.alloc(0, 8)
    remote = m.alloc(1, 8)

    def handler(msg):
        yield Compute(5)

    m.processor(1).register_handler("ping", handler)

    def worker():
        yield Compute(50)
        yield Store(local, 1)
        yield Load(local)
        yield Store(remote, 2)
        yield Load(remote)
        yield Send(1, "ping", operands=(1,))
        yield Compute(10)

    m.processor(0).run_thread(worker(), label="worker")
    m.run()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_lazy_counter_reads_current_value(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.counter("x", lambda: state["v"], node=0)
        state["v"] = 42
        assert reg.collect().value("x") == 42

    def test_duplicate_instrument_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", lambda: 0, node=0)
        reg.counter("x", lambda: 0, node=1)  # different labels: fine
        with pytest.raises(ValueError):
            reg.counter("x", lambda: 0, node=0)

    def test_histogram_buckets_and_bounds(self):
        h = Histogram("h", (10, 20), {})
        for v in (5, 10, 11, 25):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # <=10, <=20, +inf
        assert h.count == 4 and h.total == 51
        with pytest.raises(ValueError):
            Histogram("bad", (10, 10), {})

    def test_value_missing_and_ambiguous(self):
        reg = MetricsRegistry()
        reg.counter("x", lambda: 1, node=0)
        reg.counter("x", lambda: 2, node=1)
        snap = reg.collect()
        assert snap.value("x", node=1) == 2
        assert snap.total("x") == 3
        with pytest.raises(KeyError):
            snap.value("x")  # ambiguous
        with pytest.raises(KeyError):
            snap.value("nope")


class TestSnapshotMerge:
    def snap(self, counter, gauge):
        reg = MetricsRegistry()
        reg.counter("c", lambda: counter)
        reg.gauge("g", lambda: gauge)
        h = reg.histogram("h", (10,))
        h.observe(counter)
        return reg.collect()

    def test_counters_sum_gauges_average_histograms_sum(self):
        a, b = self.snap(4, 1.0), self.snap(8, 3.0)
        a.merge(b)
        assert a.merged_from == 2
        assert a.value("c") == 12
        assert a.value("g") == 2.0  # equal-weight mean
        assert a.value("h")["count"] == 2

    def test_weighted_gauge_mean_over_three(self):
        a, b, c = self.snap(0, 1.0), self.snap(0, 2.0), self.snap(0, 6.0)
        a.merge(b)
        a.merge(c)  # (1+2)/2 merged with 6 at weights 2:1
        assert a.value("g") == pytest.approx(3.0)

    def test_dict_round_trip(self):
        a = self.snap(4, 1.0)
        b = MetricsSnapshot.from_dict(json.loads(json.dumps(a.as_dict())))
        assert b.value("c") == 4 and b.merged_from == 1

    def test_disjoint_rows_union(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        reg1.counter("only_a", lambda: 1)
        reg2.counter("only_b", lambda: 2)
        a, b = reg1.collect(), reg2.collect()
        a.merge(b)
        assert a.value("only_a") == 1 and a.value("only_b") == 2


class TestCollectMachine:
    def test_every_component_contributes(self):
        m = machine()
        run_mixed_workload(m)
        snap = collect_machine(m)
        names = snap.names()
        for prefix in ("net.", "coh.", "cache.", "dir.", "cmmu.", "proc.", "sim."):
            assert any(n.startswith(prefix) for n in names), prefix
        assert snap.value("sim.cycles") == m.sim.now
        assert snap.total("cache.hits") > 0
        assert snap.value("net.packets") > 0

    def test_scheduler_metrics_via_runtime(self):
        from repro.runtime import Runtime

        m = machine()
        rt = Runtime(m, scheduler="hybrid")
        rt.run_to_completion(0, lambda rt, nd: _compute_gen(10))
        snap = collect_machine(m)
        assert snap.total("sched.tasks_run") >= 0
        assert any(
            r["labels"].get("kind") == "hybrid"
            for r in snap.rows
            if r["name"].startswith("sched.")
        )


# ----------------------------------------------------------------------
# Cycle-attribution profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_buckets_sum_to_sim_now_per_node(self):
        m = machine()
        prof = CycleProfiler(m)
        run_mixed_workload(m)
        for node, rec in prof.per_node().items():
            assert sum(rec["buckets"].values()) == rec["total"] == m.sim.now, node

    def test_expected_buckets_nonzero(self):
        m = machine()
        prof = CycleProfiler(m)
        run_mixed_workload(m)
        totals = prof.totals()
        assert totals["compute"] > 0
        assert totals["cache_hit"] > 0
        assert totals["miss_stall"] > 0  # the remote load/store
        assert totals["handler"] > 0  # the ping handler
        assert totals["msg_send"] > 0
        assert totals["idle"] > 0  # nodes 2,3 did nothing

    def test_detach_restores_methods(self):
        m = machine()
        prof = CycleProfiler(m)
        assert all(node.processor.after_execute != () for node in m.nodes)
        prof.detach()
        for node in m.nodes:
            proc = node.processor
            for point in type(proc).PROBES:
                assert getattr(proc, point) == (), point
            # slotted: nothing can shadow _execute/_dispatch per instance
            assert not hasattr(proc, "__dict__")
            assert proc._execute.__func__ is type(proc)._execute
            assert proc._dispatch.__func__ is type(proc)._dispatch

    def test_profiler_does_not_change_cycles(self):
        def run(profiled):
            m = machine()
            prof = CycleProfiler(m) if profiled else None
            run_mixed_workload(m)
            return m.sim.now

        assert run(False) == run(True)

    def test_as_dict_and_merge(self):
        m = machine()
        prof = CycleProfiler(m)
        run_mixed_workload(m)
        a, b = prof.as_dict(), prof.as_dict()
        merged = merge_attribution(a, b)
        assert merged["machines"] == 2
        assert merged["total_cycles"] == 2 * b["total_cycles"]
        n0 = merged["per_node"]["0"]
        assert sum(n0["buckets"].values()) == n0["total"]

    def test_format_table_renders(self):
        m = machine()
        prof = CycleProfiler(m)
        run_mixed_workload(m)
        text = prof.format_table()
        assert "cycle attribution" in text
        for b in BUCKETS:
            assert b in text


# ----------------------------------------------------------------------
# Time-series sampler
# ----------------------------------------------------------------------
class TestSampler:
    def test_samples_on_interval_grid(self):
        m = machine()
        sampler = TimeSampler(m, interval=50)
        run_mixed_workload(m)
        assert sampler.samples
        assert [s["time"] for s in sampler.samples] == [
            50 * (i + 1) for i in range(len(sampler.samples))
        ]
        # never ticks past the end of model work
        assert sampler.samples[-1]["time"] <= m.sim.now

    def test_sample_fields_and_histograms(self):
        m = machine()
        sampler = TimeSampler(m, interval=50)
        run_mixed_workload(m)
        from repro.obs.sampler import SAMPLE_FIELDS

        for s in sampler.samples:
            assert set(s) == set(SAMPLE_FIELDS)
            assert 0.0 <= s["link_busy_frac"] <= 1.0
            assert 0.0 <= s["cache_hit_rate"] <= 1.0
        assert all(h.count == len(sampler.samples) for h in sampler.histograms)

    def test_sampler_does_not_change_cycles(self):
        def run(sampled):
            m = machine()
            if sampled:
                TimeSampler(m, interval=7)  # deliberately odd interval
            run_mixed_workload(m)
            return m.sim.now

        assert run(False) == run(True)

    def test_max_samples_cap(self):
        m = machine()
        sampler = TimeSampler(m, interval=10, max_samples=3)
        run_mixed_workload(m)
        assert len(sampler.samples) == 3
        assert sampler.dropped >= 1

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeSampler(machine(), interval=0)

    def test_as_dict_and_table(self):
        m = machine()
        sampler = TimeSampler(m, interval=50)
        run_mixed_workload(m)
        d = sampler.as_dict()
        assert d["interval"] == 50 and len(d["samples"]) == len(sampler.samples)
        assert "time series" in sampler.format_table()
