"""Tier-1 coverage for the fuzzing subsystem.

Covers: generation and run determinism, benign-seed cleanliness, the
oracle classifier, the seeded-bug campaign (find + minimize strictly
smaller), fresh-subprocess byte-identical reproduction, the corpus
replay hook (committed bundles under ``tests/corpus/`` plus any
``$REPRO_FUZZ_CORPUS``), pool teardown on campaign abort, run-store
GC, and the check-findings / fuzz metrics surfacing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.campaign import (
    STATS,
    CampaignConfig,
    minimize_scenario,
    run_campaign,
)
from repro.fuzz.corpus import Corpus, entry_id, replay_corpora
from repro.fuzz.gen import GEN_VERSION, generate, validate_scenario
from repro.fuzz.oracles import classify, primary, signature_of
from repro.fuzz.scenario import canonical, run_scenario

REPO = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = Path(__file__).resolve().parent / "corpus"


def _racy_handoff_scenario(n_nodes: int = 2, words: int = 1) -> dict:
    return {
        "gen": GEN_VERSION, "seed": 0,
        "machine": {"n_nodes": n_nodes, "topology": "mesh",
                    "cache_lines": 256, "line_size": 16,
                    "dir_hw_pointers": 5, "hw_contexts": 1},
        "checks": ["race", "coherence", "deadlock"],
        "faults": None, "mode": "spmd",
        "program": [{"op": "handoff", "racy": True, "words": words}],
        "diff_macro": False, "deadline_events": 150_000,
    }


class TestGeneration:
    def test_deterministic(self):
        for seed in range(30):
            assert canonical(generate(seed)) == canonical(generate(seed))

    def test_validates_and_varies(self):
        docs = {canonical(generate(s)) for s in range(40)}
        assert len(docs) > 30  # near-unique scenarios
        for s in range(40):
            validate_scenario(generate(s))  # belt and braces

    def test_single_mp_handler_family_per_program(self):
        # bulk / MP-barrier / MP-reduce register fixed handler names;
        # two of a family on one machine would crash at registration
        from repro.fuzz.gen import _mp_family

        for seed in range(300):
            sc = generate(seed)
            if sc["mode"] != "spmd":
                continue
            fams = [f for op in sc["program"]
                    if (f := _mp_family(op)) is not None]
            assert len(fams) == len(set(fams)), (seed, sc["program"])

    def test_inject_bug_arms_some_seeds(self):
        armed = [
            s for s in range(40)
            if generate(s, inject_bug=True) != generate(s)
        ]
        assert armed  # some scenarios carry the seeded bug


class TestRunScenario:
    def test_benign_seeds_clean_and_deterministic(self):
        for seed in range(12):
            sc = generate(seed)
            a, b = run_scenario(sc), run_scenario(sc)
            assert canonical(a) == canonical(b), f"seed {seed} nondeterministic"
            assert not classify(a), f"seed {seed}: {classify(a)}"

    def test_racy_handoff_flagged(self):
        verdicts = classify(run_scenario(_racy_handoff_scenario()))
        assert primary(verdicts) is not None
        assert primary(verdicts)[0] == "checker:race"

    def test_classifier_orders_by_severity(self):
        verdicts = classify({
            "check": {"counts": {"race": 2}, "findings": [
                {"checker": "race", "kind": "write-read", "message": "m"}
            ]},
            "error": "SimulationError: boom",
        })
        assert [v["oracle"] for v in verdicts] == ["crash", "checker:race"]
        assert signature_of(verdicts) == [
            ["checker:race", "write-read"], ["crash", "SimulationError"],
        ]


class TestCampaign:
    def test_benign_campaign_clean(self):
        report = run_campaign(CampaignConfig(seeds=8, budget=None))
        assert report["seeds_run"] == 8
        assert report["findings"] == []

    def test_seeded_bug_found_and_minimized(self, tmp_path):
        report = run_campaign(CampaignConfig(
            seeds=10, base_seed=5, budget=None, inject_bug=True,
            corpus_dir=str(tmp_path / "corpus"), bundle_artifacts=False,
        ))
        findings = report["findings"]
        assert findings, "campaign missed the seeded bug"
        for f in findings:
            assert f["primary"][0] == "checker:race"
            # the acceptance bar: strictly smaller than the original
            assert f["min_bytes"] < f["orig_bytes"]
            assert f["corpus_id"]
        # the corpus replays to the recorded signature
        corpus = Corpus(tmp_path / "corpus")
        assert corpus.ids()
        for eid in corpus.ids():
            bundle = corpus.load(eid)
            got = signature_of(classify(run_scenario(bundle["scenario"])))
            assert got == bundle["finding"]["signature"]

    def test_minimizer_shrinks_preserving_primary(self):
        sc = _racy_handoff_scenario(n_nodes=4, words=4)
        sc["program"].append({"op": "compute", "cycles": 1_000})
        sc["diff_macro"] = True
        target = primary(classify(run_scenario(sc)))
        minimized, runs = minimize_scenario(sc, target, max_runs=60)
        assert runs > 0
        assert len(canonical(minimized)) < len(canonical(sc))
        assert primary(classify(run_scenario(minimized))) == target

    def test_campaign_updates_stats(self):
        before = STATS.scenarios
        run_campaign(CampaignConfig(seeds=3, budget=None))
        assert STATS.scenarios >= before + 3

    def test_abort_tears_down_pools(self, monkeypatch):
        from repro.perf import sweep

        torn_down = []
        monkeypatch.setattr(
            sweep, "shutdown_pools", lambda: torn_down.append(True)
        )

        def boom(*a, **kw):
            raise KeyboardInterrupt()

        monkeypatch.setattr(sweep.SweepRunner, "map", boom)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(CampaignConfig(seeds=4, budget=None))
        assert torn_down  # no leaked worker processes on abort


class TestReproducerDeterminism:
    def test_fresh_process_byte_identical(self, tmp_path):
        """A reproducer re-run in a fresh interpreter yields the same
        finding and result, byte for byte."""
        sc = _racy_handoff_scenario()
        here = run_scenario(sc)
        script = (
            "import json, sys\n"
            "from repro.fuzz.scenario import run_scenario, canonical\n"
            "sc = json.load(open(sys.argv[1]))\n"
            "sys.stdout.write(canonical(run_scenario(sc)))\n"
        )
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(canonical(sc))
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script, str(sc_path)],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == canonical(here)


def _corpus_params():
    paths = [COMMITTED_CORPUS]
    extra = os.environ.get("REPRO_FUZZ_CORPUS")
    if extra:
        paths.append(extra)
    return replay_corpora(paths)


@pytest.mark.parametrize(
    "label,bundle",
    _corpus_params() or [("empty", None)],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_corpus_replay(label, bundle):
    """Every committed (and locally collected) reproducer still
    produces the oracle signature it was filed with."""
    if bundle is None:
        pytest.skip("no corpus bundles present")
    validate_scenario(bundle["scenario"])
    got = signature_of(classify(run_scenario(bundle["scenario"])))
    assert got == bundle["finding"]["signature"], (
        f"{label}: regression reproducer diverged"
    )


class TestCorpusStore:
    def test_content_addressed_dedupe(self, tmp_path):
        corpus = Corpus(tmp_path)
        sc = _racy_handoff_scenario()
        sig = [["checker:race", "write-read"]]
        eid1, created1 = corpus.add(sc, sig, {"seed": 0})
        eid2, created2 = corpus.add(sc, sig, {"seed": 0})
        assert eid1 == eid2 == entry_id(sc, sig)
        assert created1 and not created2
        assert corpus.ids() == [eid1]
        assert corpus.load(eid1)["scenario"] == sc

    def test_reproducer_artifacts_surface_check_findings(self):
        from repro.fuzz.corpus import reproducer_artifacts

        arts = reproducer_artifacts(_racy_handoff_scenario())
        run = json.loads(arts["run.json"])
        rows = [r for r in run["metrics"]["rows"]
                if r["name"] == "check.findings"]
        assert rows and rows[0]["labels"]["checker"] == "race"
        assert run["check"]["counts"]["race"] == rows[0]["value"]


class TestStoreGC:
    def _publish(self, runs, key: str, age_days: float) -> None:
        import time

        runs.publish(key, {"experiment": "x"}, {"report.txt": b"r" * 100})
        # backdate the run's object directory for age-based GC
        t = time.time() - age_days * 86400
        os.utime(runs.run_dir(key), (t, t))

    def test_gc_by_age_and_bytes(self, tmp_path):
        from repro.perf import store
        from repro.serve.store import RunStore

        runs = RunStore(tmp_path)
        self._publish(runs, "aa" + "0" * 62, 10)
        self._publish(runs, "bb" + "0" * 62, 5)
        self._publish(runs, "cc" + "0" * 62, 0)
        assert len(store.objects(runs.runs)) == 3
        assert store.gc(runs.runs, max_age_days=7) == 1
        assert runs.get("aa" + "0" * 62) is None
        assert len(store.objects(runs.runs)) == 2
        # oldest-first down to the byte budget
        newest = store.objects(runs.runs)[-1]
        assert store.gc(runs.runs, max_bytes=newest.nbytes) == 1
        assert runs.get("bb" + "0" * 62) is None
        assert store.gc(runs.runs, everything=True) == 1
        assert store.objects(runs.runs) == []

    def test_serve_store_cli(self, tmp_path, capsys):
        from repro.perf.cache import main
        from repro.serve.store import RunStore

        runs = RunStore(tmp_path)
        runs.publish("dd" + "0" * 62, {"experiment": "x"}, {"report.txt": b"r"})
        (tmp_path / "journal.jsonl").write_text("{}\n")
        assert main(["stats", "--store-dir", str(tmp_path)]) == 0
        assert "runs:      1" in capsys.readouterr().out
        assert main(["gc", "--all", "--store-dir", str(tmp_path)]) == 0
        assert runs.get("dd" + "0" * 62) is None
        assert list(runs.runs.iterdir()) == []
        assert (tmp_path / "journal.jsonl").read_text() == "{}\n"


class TestMetricsSurfacing:
    def test_check_findings_rows_in_session_metrics(self):
        from repro.obs.session import ObsConfig, session

        sc = _racy_handoff_scenario()
        with session(ObsConfig(check=("race",))) as s:
            run_scenario({**sc, "checks": []})  # session attaches its own
            data = s.data()
        rows = [
            r for r in data["metrics"]["rows"]
            if r["name"] == "check.findings"
        ]
        assert rows and rows[0]["labels"] == {"checker": "race"}
        assert rows[0]["value"] > 0
        # idempotent: a second data() must not double the rows
        rows2 = [
            r for r in s.data()["metrics"]["rows"]
            if r["name"] == "check.findings"
        ]
        assert rows == rows2

    def test_fuzz_metrics_registered(self):
        from repro.obs.metrics import MetricsRegistry

        run_campaign(CampaignConfig(seeds=2, budget=None))
        reg = MetricsRegistry()
        STATS.register_metrics(reg)
        snap = reg.collect()
        assert snap.value("fuzz.scenarios") >= 2
        assert snap.value("fuzz.campaigns") >= 1
        assert snap.total("fuzz.findings") >= 0

    def test_prometheus_renders_fuzz_counters(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.promexport import render_prometheus

        reg = MetricsRegistry()
        STATS.register_metrics(reg)
        text = render_prometheus(reg.collect())
        assert "fuzz_scenarios" in text
        assert 'fuzz_findings{oracle="crash"}' in text


class TestServeFuzzSpec:
    def test_key_and_execute(self):
        from repro.serve.executor import ExperimentExecutor

        ex = ExperimentExecutor(jobs=1)
        spec = {"fuzz": {"seeds": 3, "budget": 30}}
        key = ex.key_for(spec)
        assert key == ex.key_for({"fuzz": {"budget": 30, "seeds": 3}})
        events = []
        meta, artifacts = ex.execute(spec, progress=events.append)
        assert meta["experiment"] == "fuzz"
        assert meta["findings"] == 0
        assert set(artifacts) == {"report.txt", "campaign.json", "findings.json"}
        report = json.loads(artifacts["campaign.json"])
        assert report["seeds_run"] == 3
        assert events and events[-1]["done"] == 3

    def test_bad_fuzz_specs_rejected(self):
        from repro.serve.executor import ExperimentExecutor

        ex = ExperimentExecutor()
        for spec in (
            {"fuzz": None},
            {"fuzz": {"seeds": 0}},
            {"fuzz": {"budget": -1}},
            {"fuzz": {"wat": 1}},
            {"fuzz": {"seeds": True}},
            {"fuzz": {}, "experiment": "fig8"},
        ):
            with pytest.raises(ValueError):
                ex.key_for(spec)
