"""Tests for the CLI entry point."""

import json
import re

import pytest

from repro.cli import main, run_experiment
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.spec import QUICK_ARGS


def test_quick_args_cover_all_experiments():
    assert set(QUICK_ARGS) == set(ALL_EXPERIMENTS)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ALL_EXPERIMENTS:
        assert exp_id in out


def test_run_quick_fig7(capsys):
    assert main(["run", "fig7", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "message-passing" in out
    assert "took" in out


def test_run_quick_barrier_with_nodes(capsys):
    assert main(["run", "barrier", "--quick", "--nodes", "16"]) == 0
    out = capsys.readouterr().out
    assert "16 processors" in out


def test_nodes_rejected_for_fixed_experiments():
    with pytest.raises(SystemExit):
        run_experiment("fig7", quick=True, nodes=8)


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


def test_run_experiment_returns_table():
    text = run_experiment("fig8", quick=True)
    assert "accum" in text


def test_run_with_plot(capsys):
    assert main(["run", "fig7", "--quick", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "log-log" in out
    assert "*=no-prefetching" in out


def test_plot_result_returns_none_for_tables():
    from repro.analysis.tables import ExperimentResult
    from repro.cli import plot_result

    res = ExperimentResult(exp_id="barrier", title="t", columns=["a"])
    assert plot_result(res) is None


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "machine report" in out
    assert "trace:" in out
    assert "speedup" in out


def test_version_prints_version_and_fingerprint(capsys):
    import repro
    from repro.perf.cache import repo_fingerprint

    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert f"alewife-repro {repro.__version__}" in out
    fingerprint = out.rsplit(":", 1)[1].strip()
    assert fingerprint == repo_fingerprint()
    assert len(fingerprint) == 64 and int(fingerprint, 16) >= 0


def test_tail_requires_job_id_or_all():
    with pytest.raises(SystemExit, match="JOB_ID or --all"):
        main(["tail"])
    with pytest.raises(SystemExit, match="JOB_ID or --all"):
        main(["tail", "abc123", "--all"])


def test_serve_tail_rewrites_to_tail():
    # 'serve tail' must reach the tail subcommand, not the daemon;
    # with neither a job id nor --all it exits with tail's usage error
    with pytest.raises(SystemExit, match="JOB_ID or --all"):
        main(["serve", "tail"])


def test_event_line_renders_each_event_kind():
    from repro.cli import _event_line

    snap = _event_line({
        "event": "snapshot", "queue_position": 2,
        "job": {"id": "ab", "state": "queued",
                "progress": {"done": 1, "total": 4}},
    })
    assert "job=ab" in snap and "queue_position=2" in snap
    assert "progress=1/4" in snap
    prog = _event_line({
        "event": "progress", "done": 3, "total": 8,
        "point": "measure_point[2]", "cache_hits": 1,
    })
    assert prog == "progress 3/8 point=measure_point[2] cache_hits=1"
    assert _event_line({"event": "heartbeat", "queue_position": 5}) == (
        "heartbeat queue_position=5"
    )
    done = _event_line({"event": "done", "job": "ab", "dedup": True})
    assert done == "done job=ab dedup=True"
    failed = _event_line({"event": "failed", "job": "ab", "error": "boom"})
    assert "error=boom" in failed


def test_job_line_includes_progress_and_run_seconds():
    from repro.cli import _job_line

    line = _job_line({
        "id": "ab", "state": "running", "dedup": False,
        "key": "k" * 64, "run_seconds": None,
        "progress": {"done": 2, "total": 5},
    })
    assert "progress=2/5" in line
    line = _job_line({
        "id": "ab", "state": "done", "dedup": False,
        "key": "k" * 64, "run_seconds": 1.5, "progress": None,
    })
    assert "wall=1.50s" in line
    assert line.startswith("job ab state=done dedup=false wall=")


def test_run_params_do_not_depend_on_jobs(tmp_path):
    # --jobs says how a run is computed, not what it computes
    params = []
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}.json"
        assert main(["run", "fig8", "--quick", "--no-cache", "--jobs", jobs,
                     "--metrics-out", str(out)]) == 0
        params.append(json.loads(out.read_text())["params"])
    assert params[0] == params[1]


def test_run_manifest_matches_the_executors(tmp_path):
    # one artifact builder: repro run writes the daemon's run.json
    from repro.serve.executor import ExperimentExecutor

    out = tmp_path / "run.json"
    assert main(["run", "fig8", "--quick", "--no-cache",
                 "--metrics-out", str(out)]) == 0
    _meta, artifacts = ExperimentExecutor().execute(
        {"experiment": "fig8", "quick": True}
    )

    def no_wall(blob):
        return re.sub(rb'"wall_seconds": [0-9.e-]+', b'"wall_seconds": 0', blob)

    assert no_wall(out.read_bytes()) == no_wall(artifacts["run.json"])


def test_fault_flags_become_faults_params(monkeypatch):
    from repro.experiments import spec as specs

    resolved = []
    resolve = specs.resolve
    monkeypatch.setattr(
        specs, "resolve", lambda spec: resolved.append(resolve(spec)) or resolved[-1]
    )
    assert main(["run", "faults", "--quick", "--no-cache",
                 "--fault-rate", "0.1", "--fault-seed", "3"]) == 0
    exp_id, kwargs, _ = resolved[0]
    assert exp_id == "faults"
    assert kwargs["loss_rates"] == (0.0, 0.1)
    assert kwargs["seed"] == 3
