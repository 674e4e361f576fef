"""Content-addressed reproducer corpus.

Every failure a campaign confirms becomes one *bundle* — a directory
named by a digest of the minimized scenario plus its oracle signature,
holding everything a human (or the regression suite) needs to replay
the bug without the generator:

    <corpus>/<id>/
        scenario.json   minimized scenario (canonical JSON)
        original.json   the scenario as generated, pre-minimization
        finding.json    seed, gen version, signature, verdicts, sizes
        result.json     canonical result of running scenario.json
        run.json        run manifest of an observed replay
        trace.json      Perfetto trace of the same replay

The id is content-addressed (same minimized scenario + same signature
→ same id), so campaigns dedupe across runs for free: a bug found by
fifty seeds files one bundle. Each bundle is one :mod:`repro.perf.store`
object, published by one directory rename, so a killed campaign never
leaves a half-written bundle that the pytest replay hook would trip
over.

``tests/test_fuzz.py`` replays every bundle under ``tests/corpus/``
(committed regressions) plus ``$REPRO_FUZZ_CORPUS`` (a local campaign
corpus) and asserts the stored signature still reproduces.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.fuzz.scenario import canonical, run_scenario
from repro.perf import store

CORPUS_DIR_ENV = "REPRO_FUZZ_CORPUS"


def entry_id(scenario: dict, signature: list[list[str]]) -> str:
    """Content address of one reproducer: minimized scenario × oracle
    signature. 16 hex chars is plenty at corpus scale."""
    payload = canonical(scenario) + "\n" + canonical(signature)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Corpus:
    """A directory of reproducer bundles."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- write ---------------------------------------------------------
    def add(
        self,
        scenario: dict,
        signature: list[list[str]],
        finding: dict,
        extra: dict[str, bytes] | None = None,
    ) -> tuple[str, bool]:
        """Publish one bundle; returns ``(id, created)`` where
        ``created`` is False when the bundle already existed (dedupe).

        ``finding`` is stored as finding.json (the id and signature are
        stamped in); ``extra`` maps further artifact names to bytes
        (original.json, result.json, run.json, trace.json)."""
        eid = entry_id(scenario, signature)
        files: dict[str, bytes] = {
            "scenario.json": canonical(scenario).encode() + b"\n",
            "finding.json": json.dumps(
                {"id": eid, "signature": signature, **finding},
                indent=1, sort_keys=True,
            ).encode() + b"\n",
        }
        for name, blob in (extra or {}).items():
            if name in files:
                raise ValueError(f"bad bundle artifact name {name!r}")
            files[name] = blob
        return eid, store.publish(self.root, eid, files)

    # -- read ----------------------------------------------------------
    def ids(self) -> list[str]:
        return [obj.key for obj in store.objects(self.root)]

    def load(self, eid: str) -> dict:
        """One bundle's scenario + finding (raises on a broken entry)."""
        base = self.root / eid
        return {
            "id": eid,
            "scenario": json.loads((base / "scenario.json").read_bytes()),
            "finding": json.loads((base / "finding.json").read_bytes()),
        }


def replay_corpora(paths: list[str | Path]) -> list[tuple[str, dict]]:
    """Every bundle from every existing corpus directory, as
    ``(label, bundle)`` pairs — the pytest parametrization source."""
    out: list[tuple[str, dict]] = []
    for path in paths:
        corpus = Corpus(path)
        for eid in corpus.ids():
            out.append((f"{Path(path).name}:{eid}", corpus.load(eid)))
    return out


def reproducer_artifacts(scenario: dict) -> dict[str, bytes]:
    """run.json + trace.json + result.json for one scenario: replay it
    under a tracing observation session and export the standard
    artifacts, so a bundle opens in Perfetto like any service run."""
    from repro.check import CheckReport
    from repro.experiments.spec import dump_json
    from repro.obs.export import build_perfetto, build_run_manifest
    from repro.obs.session import ObsConfig, session

    with session(ObsConfig(trace=True)) as s:
        result = run_scenario(scenario)
        if result.get("check") and s.check is None:
            # the scenario attaches its own CheckerSet rather than
            # going through the session config, so hand the report to
            # the session — data() then surfaces the per-checker
            # check.findings metric rows and the manifest's check
            # section exactly like a served experiment run
            s.check = CheckReport.from_dict(result["check"])
        data = s.data()
    manifest = build_run_manifest(
        experiment="fuzz.reproducer",
        params={"seed": scenario.get("seed"), "gen": scenario.get("gen")},
        timings={
            "wall_seconds": 0.0,
            "machines": len(data["records"]),
            "simulated_cycles": sum(r["cycles"] for r in data["records"]),
        },
        metrics=data["metrics"],
        cycle_attribution=data["cycle_attribution"],
        **({"check": data["check"]} if data.get("check") is not None else {}),
    )
    return {
        "result.json": canonical(result).encode() + b"\n",
        "run.json": dump_json(manifest),
        "trace.json": dump_json(build_perfetto(data["records"])),
    }
