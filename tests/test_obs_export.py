"""Tests for trace export, the run.json manifest, and the session."""

import json

import pytest

from repro.experiments.spec import dump_json
from repro.obs.export import (
    RUN_MANIFEST_REQUIRED,
    build_perfetto,
    build_run_manifest,
    events_to_chrome,
    validate_run_manifest,
)
from repro.obs.session import ObsConfig, ObsSession, current, session
from repro.obs.validate import TRACE_EVENT_REQUIRED, main as validate_main


def ev(time, node, kind, what, detail=""):
    return (time, node, kind, what, detail)


def _compute_gen(cycles):
    from repro.proc import Compute

    yield Compute(cycles)


class TestChromeExport:
    def test_every_event_has_schema_keys(self):
        events = [
            ev(0, 0, "packet", "user_message", "->1 3w"),
            ev(5, 1, "handler", "ping", "from n0"),
            ev(9, 1, "handler", "ping", "return"),
            ev(2, 0, "context", "spawn", "7:worker"),
            ev(20, 0, "context", "finish", "7:worker"),
        ]
        out = events_to_chrome(events, pid=3, process_name="m0")
        assert out
        for e in out:
            assert set(TRACE_EVENT_REQUIRED) <= set(e), e
            assert e["pid"] == 3

    def test_handler_span_pairing(self):
        events = [
            ev(5, 1, "handler", "ping", "from n0"),
            ev(9, 1, "handler", "ping", "return"),
            ev(12, 1, "handler", "pong", "from n2"),
            ev(20, 1, "handler", "pong", "return"),
        ]
        out = [e for e in events_to_chrome(events) if e["ph"] in "BE"]
        assert [(e["ph"], e["ts"], e["name"]) for e in out] == [
            ("B", 5, "ping"), ("E", 9, "ping"),
            ("B", 12, "pong"), ("E", 20, "pong"),
        ]

    def test_unbalanced_handler_autocloses_at_max_ts(self):
        events = [
            ev(5, 1, "handler", "ping", "from n0"),
            ev(30, 0, "packet", "user_message", ""),
        ]
        spans = [e for e in events_to_chrome(events) if e["ph"] in "BE"]
        assert [(e["ph"], e["ts"]) for e in spans] == [("B", 5), ("E", 30)]

    def test_context_async_pairing_by_cid(self):
        events = [
            ev(0, 0, "context", "spawn", "1:a"),
            ev(2, 0, "context", "spawn", "2:b"),
            ev(8, 0, "context", "finish", "2:b"),
            ev(9, 0, "context", "finish", "1:a"),
        ]
        out = [e for e in events_to_chrome(events) if e["ph"] in "be"]
        by_id = {}
        for e in out:
            by_id.setdefault(e["id"], []).append(e["ph"])
        assert by_id == {"1": ["b", "e"], "2": ["b", "e"]}

    def test_finish_without_spawn_skipped(self):
        events = [ev(8, 0, "context", "finish", "99:pre-trace")]
        out = [e for e in events_to_chrome(events) if e["ph"] in "be"]
        assert out == []

    def test_handler_return_without_entry_skipped(self):
        events = [ev(8, 0, "handler", "ping", "return")]
        assert [e for e in events_to_chrome(events) if e["ph"] in "BE"] == []

    def test_export_perfetto_pid_per_machine(self, tmp_path):
        records = [
            {"label": "m0", "trace": [ev(0, 0, "packet", "p", "")]},
            {"label": "m1", "trace": [ev(0, 0, "packet", "p", "")]},
        ]
        path = tmp_path / "trace.json"
        built = build_perfetto(records)
        path.write_bytes(dump_json(built))
        n = len(built["traceEvents"])
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        assert {e["pid"] for e in doc["traceEvents"]} == {0, 1}


class TestRunManifest:
    def manifest(self):
        return {
            "schema": "repro-run/1",
            "experiment": "fig8",
            "params": {},
            "timings": {"wall_seconds": 0.1},
            "metrics": {"merged_from": 1, "rows": []},
            "cycle_attribution": {
                "machines": 1,
                "total_cycles": 10,
                "per_node": {
                    "0": {"total": 10, "buckets": {"compute": 4, "idle": 6},
                          "by_effect": {}},
                },
            },
        }

    def test_valid_manifest_passes(self):
        assert validate_run_manifest(self.manifest()) == []

    @pytest.mark.parametrize("key", RUN_MANIFEST_REQUIRED)
    def test_missing_key_fails(self, key):
        m = self.manifest()
        del m[key]
        assert any(key in e for e in validate_run_manifest(m))

    def test_bucket_sum_mismatch_fails(self):
        m = self.manifest()
        m["cycle_attribution"]["per_node"]["0"]["buckets"]["compute"] = 5
        errors = validate_run_manifest(m)
        assert any("buckets sum" in e for e in errors)

    def test_total_cycles_mismatch_fails(self):
        m = self.manifest()
        m["cycle_attribution"]["total_cycles"] = 99
        assert any("total_cycles" in e for e in validate_run_manifest(m))

    def test_null_attribution_allowed(self):
        m = self.manifest()
        m["cycle_attribution"] = None
        assert validate_run_manifest(m) == []

    def test_write_validates_and_writes(self, tmp_path):
        path = tmp_path / "run.json"
        src = self.manifest()
        path.write_bytes(dump_json(build_run_manifest(
            experiment=src["experiment"],
            params=src["params"],
            timings=src["timings"],
            metrics=src["metrics"],
            cycle_attribution=src["cycle_attribution"],
        )))
        assert validate_run_manifest(json.loads(path.read_text())) == []

    def test_write_rejects_broken_attribution(self, tmp_path):
        src = self.manifest()
        src["cycle_attribution"]["per_node"]["0"]["total"] = 999
        with pytest.raises(ValueError):
            build_run_manifest(
                experiment="x", params={}, timings={},
                metrics=None, cycle_attribution=src["cycle_attribution"],
            )

    def test_validate_cli(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self.manifest()))
        assert validate_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro-run/1"}))
        assert validate_main([str(bad)]) == 1
        assert validate_main([]) == 2

    def test_validate_cli_checks_trace_schema(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self.manifest()))
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(
            {"traceEvents": [{"ph": "i", "ts": 0}]}  # missing pid/tid/name
        ))
        assert validate_main([str(good), str(trace)]) == 1


class TestSession:
    def test_session_activates_and_restores(self):
        assert current() is None
        with session(ObsConfig()) as s:
            assert current() is s
        assert current() is None

    def test_make_machine_observed_and_data_idempotent(self):
        from repro.experiments.common import make_machine, run_thread_timed
        from repro.proc import Compute

        with session(ObsConfig(sample_interval=100, trace=True)) as s:
            m = make_machine(n_nodes=2)
            run_thread_timed(m, _compute_gen(500))
            d1 = s.data()
            d2 = s.data()
        assert len(d1["records"]) == 1
        assert d1 is not d2 and d1["records"] == d2["records"]
        rec = d1["records"][0]
        assert rec["cycles"] == 500
        assert rec["samples"]["samples"]
        assert d1["cycle_attribution"]["total_cycles"] == 2 * 500

    def test_no_session_attaches_nothing(self):
        from repro.experiments.common import make_machine

        with session(ObsConfig()) as s:
            observed = make_machine(n_nodes=2)
            assert observed.processor(0).after_execute != ()
            s.data()
        m = make_machine(n_nodes=2)
        assert m.processor(0).after_execute == ()

    def test_absorb_merges_worker_payload(self):
        from repro.experiments.common import make_machine, run_thread_timed
        from repro.proc import Compute

        def one_run():
            with session(ObsConfig()) as s:
                m = make_machine(n_nodes=2)
                run_thread_timed(m, _compute_gen(100))
                return s.data()

        parent = ObsSession(ObsConfig())
        parent.absorb(one_run())
        parent.absorb(one_run())
        d = parent.data()
        assert len(d["records"]) == 2
        assert d["cycle_attribution"]["machines"] == 2
        assert d["metrics"]["merged_from"] == 2

    def test_sweep_results_identical_with_observation(self):
        """jobs=2 under a session: same results, observations absorbed."""
        from repro.perf.sweep import SweepPoint, SweepRunner

        points = [
            SweepPoint("repro.experiments.fig8_accum:measure_point",
                       {"impl": "sm", "nbytes": 64}),
            SweepPoint("repro.experiments.fig8_accum:measure_point",
                       {"impl": "mp", "nbytes": 64}),
        ]
        plain = SweepRunner(jobs=1).map(points)
        with session(ObsConfig()) as s:
            observed = SweepRunner(jobs=2).map(points)
            data = s.data()
        assert observed == plain
        assert len(data["records"]) == 2
        assert data["cycle_attribution"]["machines"] == 2


class TestCliObsFlags:
    def test_acceptance_command_shape(self, tmp_path, capsys):
        from repro.cli import main

        run_json = tmp_path / "run.json"
        trace_json = tmp_path / "trace.json"
        rc = main([
            "fig8_accum", "--quick",
            "--metrics-out", str(run_json),
            "--trace-out", str(trace_json),
            "--sample-interval", "1000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        manifest = json.loads(run_json.read_text())
        assert validate_run_manifest(manifest) == []
        assert manifest["experiment"] == "fig8"
        doc = json.loads(trace_json.read_text())
        assert doc["traceEvents"]
        for e in doc["traceEvents"]:
            assert set(TRACE_EVENT_REQUIRED) <= set(e)

    def test_all_with_metrics_out_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "all", "--quick", "--metrics-out", "x.json"])

    def test_alias_without_flags_is_plain_run(self, capsys):
        from repro.cli import main

        assert main(["fig7_memcpy", "--quick"]) == 0
        assert "message-passing" in capsys.readouterr().out
