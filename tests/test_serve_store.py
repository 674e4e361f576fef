"""Run-store tests: what the run store keeps on top of the shared object
store (tests/test_store.py) — entry metadata and named artifacts, and a
run whose entry or listed artifact is broken staying absent."""

from __future__ import annotations

import pytest

from repro.serve.store import ENTRY_NAME, RunStore

KEY = "ab" + "0" * 62
ARTIFACTS = {"report.txt": b"table\n", "run.json": b'{"schema": "repro-run/1"}\n'}


class TestPublishGet:
    def test_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        entry = store.publish(KEY, {"experiment": "fig8"}, ARTIFACTS)
        assert entry["artifacts"] == ["report.txt", "run.json"]
        got = store.get(KEY)
        assert got["key"] == KEY
        assert got["experiment"] == "fig8"
        assert store.read_artifact(KEY, "report.txt") == b"table\n"
        assert sorted(p.name for p in store.run_dir(KEY).iterdir()) == [
            ENTRY_NAME, "report.txt", "run.json",
        ]

    def test_absent_key_is_none(self, tmp_path):
        assert RunStore(tmp_path).get("ff" + "0" * 62) is None

    def test_missing_artifact_hides_run(self, tmp_path):
        store = RunStore(tmp_path)
        store.publish(KEY, {}, ARTIFACTS)
        (store.run_dir(KEY) / "report.txt").unlink()
        assert store.get(KEY) is None  # half-destroyed run = absent
        assert store.artifact_path(KEY, "run.json") is None
        store.publish(KEY, {}, ARTIFACTS)  # a re-run replaces it
        assert store.read_artifact(KEY, "report.txt") == b"table\n"

    def test_corrupt_entry_hides_run(self, tmp_path):
        store = RunStore(tmp_path)
        store.publish(KEY, {}, ARTIFACTS)
        (store.run_dir(KEY) / ENTRY_NAME).write_bytes(b"not json")
        assert store.get(KEY) is None
        store.publish(KEY, {}, ARTIFACTS)  # a re-run replaces it
        assert store.get(KEY) is not None

    def test_entry_without_artifacts_is_invisible(self, tmp_path):
        # a run directory without entry.json is not a run
        store = RunStore(tmp_path)
        run_dir = store.run_dir(KEY)
        run_dir.mkdir(parents=True)
        (run_dir / "report.txt").write_bytes(b"orphan")
        assert store.get(KEY) is None

    def test_reserved_and_bad_names_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError):
            store.publish(KEY, {}, {ENTRY_NAME: b"x"})
        with pytest.raises(ValueError):
            store.publish(KEY, {}, {"../escape": b"x"})
        with pytest.raises(ValueError):
            store.publish(KEY, {}, {".hidden": b"x"})

    def test_read_unknown_artifact_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.publish(KEY, {}, ARTIFACTS)
        with pytest.raises(KeyError):
            store.read_artifact(KEY, "nope.bin")

