"""The run store: completed service runs, content-addressed on disk.

A *run* is one executed job: an experiment id plus fully-resolved
kwargs. Its key (computed by
:meth:`repro.serve.executor.ExperimentExecutor.key_for`) is the same
three-part identity the run cache uses — descriptor hash × code
fingerprint × observation key — so two clients submitting the same
work against the same code are, by construction, asking for the same
run. The store is what lets the service answer the second client
instantly.

Each run is one :mod:`repro.perf.store` object::

    <store>/runs/<key>/
        report.txt      rendered experiment table
        table.json      exp_id / title / columns / rows / notes
        run.json        the standard run manifest (repro-run/1)
        trace.json      Perfetto trace (only when the job traced)
        entry.json      metadata: schema, key, artifact names

The object store publishes a run with one directory rename, so a
reader sees no run or a whole one, and the first publisher of a key
wins. A run exists iff its ``entry.json`` decodes and every artifact
it lists is present. ``<store>/journal.jsonl`` (the job journal) sits
beside ``runs/`` and is never an object.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro.perf import store

STORE_DIR_ENV = "REPRO_STORE_DIR"
DEFAULT_STORE_DIR = ".repro_store"

#: bump to orphan every existing run (schema migrations)
STORE_SCHEMA = 1

ENTRY_NAME = "entry.json"

#: artifact name -> content type served over HTTP
ARTIFACT_TYPES = {
    "report.txt": "text/plain; charset=utf-8",
    "table.json": "application/json",
    "run.json": "application/json",
    "trace.json": "application/json",
    "campaign.json": "application/json",
    "findings.json": "application/json",
}


class RunStore:
    """Content-addressed store of completed service runs."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(
            root or os.environ.get(STORE_DIR_ENV) or DEFAULT_STORE_DIR
        )
        self.runs = self.root / "runs"

    def run_dir(self, key: str) -> Path:
        return self.runs / key

    def publish(
        self, key: str, meta: dict[str, Any], artifacts: dict[str, bytes]
    ) -> dict[str, Any]:
        """Publish one completed run; returns the entry built for it.
        A concurrent publisher of the same key writes identical
        deterministic artifacts; the first one in place is kept."""
        if ENTRY_NAME in artifacts:
            raise ValueError(f"{ENTRY_NAME!r} is reserved for run metadata")
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "artifacts": sorted(artifacts),
            "published": time.time(),
            **meta,
        }
        blobs = {
            **artifacts,
            ENTRY_NAME: json.dumps(entry, indent=1, sort_keys=True).encode() + b"\n",
        }
        if not store.publish(self.runs, key, blobs) and self.get(key) is None:
            # the key holds a broken run (an artifact lost, a corrupt
            # entry): replace it rather than keep serving nothing
            store.delete(self.runs, key)
            store.publish(self.runs, key, blobs)
        return entry

    def get(self, key: str) -> dict[str, Any] | None:
        """The run's entry, or None if absent / schema-mismatched. A
        run whose listed artifacts are missing is treated as absent (it
        will simply be recomputed)."""
        try:
            entry = json.loads((self.run_dir(key) / ENTRY_NAME).read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != STORE_SCHEMA:
            return None
        if entry.get("key") != key:
            return None
        names = entry.get("artifacts")
        if not isinstance(names, list):
            return None
        run_dir = self.run_dir(key)
        if any(not (run_dir / name).is_file() for name in names):
            return None
        return entry

    def artifact_path(self, key: str, name: str) -> Path | None:
        """Path of one artifact of a *published* run, else None."""
        entry = self.get(key)
        if entry is None or name not in entry["artifacts"]:
            return None
        return self.run_dir(key) / name

    def read_artifact(self, key: str, name: str) -> bytes:
        path = self.artifact_path(key, name)
        if path is None:
            raise KeyError(f"run {key[:12]}… has no artifact {name!r}")
        return path.read_bytes()
