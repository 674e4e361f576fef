"""Content-addressed run cache for deterministic sweep points.

Every sweep point is a pure function of its descriptor: the module-
qualified ``fn`` plus plain-data kwargs fully determine the result
(seeds travel inside the kwargs, and serial/parallel cycle identity is
a tested invariant). That makes memoization sound by construction —
the only way a cached result can go stale is the *code* changing, so
the cache key is built from three parts:

* **descriptor hash** — SHA-256 over the schema version, the ``fn``
  spec, and the sorted kwargs items;
* **code fingerprint** — SHA-256 over every ``repro`` source file,
  taken once per process at its first use (:func:`repo_fingerprint`);
  a point function outside the package (a benchmark or a test) adds
  its own module's source, re-read when that file changes. Any edit
  to the package re-runs every point, and a running process keeps the
  fingerprint of the code it imported;
* **observation key** — ``repr()`` of the active
  :class:`~repro.obs.session.ObsConfig` (empty when unobserved), since
  an observed run caches its observation payload alongside the result.

Each entry is a :mod:`repro.perf.store` object
``<cache-dir>/points/<k>/entry.pkl``: a SHA-256 digest line followed
by a pickled payload. A digest mismatch (truncated or bit-flipped
file) is detected on load, counted as *corrupt*, and the point
transparently re-runs. A sidecar ``<cache-dir>/costs/<d>.json``
remembers each point's last measured wall cost *keyed without the
fingerprint*, so after a code edit the scheduler still knows which
points were expensive (longest-cost-first dispatch) and a missing
entry whose cost sidecar exists is counted as an *invalidation*
rather than a plain miss.

Maintenance tool, for the run cache and (``--store-dir``) the
service's run store alike::

    python -m repro.perf.cache stats   [--cache-dir D | --store-dir D]
    python -m repro.perf.cache gc      [--cache-dir D | --store-dir D]
                                       [--max-age-days N] [--max-bytes B] [--all]
    python -m repro.perf.cache verify  [--sample N] [--seed S] [--fix]
    python -m repro.perf.cache fingerprint        # the code fingerprint, for CI
    python -m repro.perf.cache bench   [--min-speedup X] [--jobs N]

``verify`` re-runs a random sample of cached points from scratch and
compares results bit-for-bit (pickled bytes) — the defence against a
stale or corrupted cache silently feeding a table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pickle
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.perf import store

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.sweep import SweepPoint

#: bump to orphan every existing entry (schema migrations)
CACHE_SCHEMA = 1

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

ENTRY_BLOB = "entry.pkl"

_PICKLE_PROTO = 4


# ----------------------------------------------------------------------
# Code fingerprinting: the package's sources, hashed once per process
# ----------------------------------------------------------------------
#: (fingerprint, module names) of the ``repro`` package, once taken
_PACKAGE: tuple[str, frozenset[str]] | None = None
_PACKAGE_LOCK = threading.Lock()
#: source path of a module outside the package -> ((mtime_ns, size), SHA-256)
_SOURCES: dict[str, tuple[tuple[int, int], str]] = {}


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _package() -> tuple[str, frozenset[str]]:
    """The package's fingerprint and module names. Every ``repro``
    source file is hashed at the first call; later calls return that
    value for the rest of the process, which never reloads the code it
    imported, so editing a source cannot move it."""
    global _PACKAGE
    if _PACKAGE is None:
        with _PACKAGE_LOCK:
            if _PACKAGE is None:
                import repro

                root = Path(repro.__file__).parent
                h = hashlib.sha256()
                modules = set()
                for path in sorted(root.rglob("*.py")):
                    rel = path.relative_to(root)
                    h.update(f"{rel}={_digest(path)}\n".encode())
                    name = ".".join(["repro", *rel.with_suffix("").parts])
                    modules.add(name.removesuffix(".__init__"))
                _PACKAGE = h.hexdigest(), frozenset(modules)
    return _PACKAGE


def _outside_source(modname: str) -> str | None:
    """SHA-256 of a module outside the package (None for builtins or
    missing modules), re-read whenever its (mtime_ns, size) changes."""
    try:
        spec = importlib.util.find_spec(modname)
    except (ImportError, ValueError):
        return None
    path = spec.origin if spec is not None else None
    if not (path and path.endswith(".py")):
        return None
    st = os.stat(path)
    key = (st.st_mtime_ns, st.st_size)
    cached = _SOURCES.get(path)
    if cached is None or cached[0] != key:
        cached = _SOURCES[path] = (key, _digest(path))
    return cached[1]


def code_fingerprint(modname: str) -> str:
    """Fingerprint of the code a point in ``modname`` runs: the
    package's (:func:`repo_fingerprint`) for ``"repro"`` and every
    module in it; for a module outside the package (a benchmark or a
    test), that plus the module's own source."""
    fingerprint, modules = _package()
    if modname in modules:
        return fingerprint
    digest = _outside_source(modname)
    if digest is None:
        return f"unresolved:{modname}"
    lines = f"repro={fingerprint}\n{modname}={digest}\n"
    return hashlib.sha256(lines.encode()).hexdigest()


def repo_fingerprint() -> str:
    """Fingerprint over every ``repro`` source file, taken once per
    process: the key of every cached point and stored run, ``/healthz``
    and ``--version``, and CI's ``actions/cache`` key."""
    return _package()[0]


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class CacheStats:
    """Hit/miss accounting for one :class:`RunCache` instance.

    Counter bumps go through :meth:`bump` under a lock — one cache
    instance may be shared by many ``repro.serve`` job threads."""

    FIELDS = ("hits", "misses", "stores", "invalidations", "corrupt", "uncacheable")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for f in self.FIELDS:
            setattr(self, f, 0)

    def bump(self, field: str, n: int = 1) -> None:
        if field not in self.FIELDS:
            raise ValueError(f"unknown cache stat {field!r}")
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def snapshot(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter movement since a :meth:`snapshot` was taken."""
        return {f: getattr(self, f) - before.get(f, 0) for f in self.FIELDS}

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.invalidations} invalidated, {self.corrupt} corrupt), "
            f"{self.stores} stored"
        )


class RunCache:
    """Content-addressed on-disk store of sweep-point results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(
            root or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        )
        self.points = self.root / "points"
        self.costs = self.root / "costs"
        self.stats = CacheStats()

    # -- keys ----------------------------------------------------------
    def descriptor_hash(self, point: "SweepPoint") -> str:
        """Identity of the *work* (fn + kwargs), fingerprint-free —
        stable across code edits, so costs survive invalidation."""
        payload = repr((CACHE_SCHEMA, point.fn, sorted(point.kwargs.items())))
        return hashlib.sha256(payload.encode()).hexdigest()

    def key_for(self, point: "SweepPoint", fingerprint: str, obs_key: str = "") -> str:
        payload = f"{self.descriptor_hash(point)}\n{fingerprint}\n{obs_key}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _cost_path(self, dhash: str) -> Path:
        return self.costs / f"{dhash}.json"

    # -- entry encoding ------------------------------------------------
    @staticmethod
    def _encode(entry: dict[str, Any]) -> bytes:
        payload = pickle.dumps(entry, protocol=_PICKLE_PROTO)
        return hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload

    @staticmethod
    def _decode(blob: bytes) -> dict[str, Any] | None:
        digest, sep, payload = blob.partition(b"\n")
        if not sep or hashlib.sha256(payload).hexdigest().encode() != digest:
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:
            return None
        return entry if isinstance(entry, dict) and "result" in entry else None

    def _read(self, key: str) -> dict[str, Any] | None:
        """The entry stored under ``key`` (None = absent or corrupt)."""
        try:
            return self._decode((self.points / key / ENTRY_BLOB).read_bytes())
        except OSError:
            return None

    # -- get / put -----------------------------------------------------
    def get(self, key: str, point: "SweepPoint") -> dict[str, Any] | None:
        try:
            blob = (self.points / key / ENTRY_BLOB).read_bytes()
        except OSError:
            self.stats.bump("misses")
            if self._cost_path(self.descriptor_hash(point)).exists():
                # the point was cached before under a different key:
                # code (or observation config) changed underneath it
                self.stats.bump("invalidations")
            return None
        entry = self._decode(blob)
        if entry is None or entry.get("key") != key:
            self.stats.bump("corrupt")
            self.stats.bump("misses")
            store.delete(self.points, key)
            return None
        self.stats.bump("hits")
        return entry

    def put(
        self,
        key: str,
        point: "SweepPoint",
        fingerprint: str,
        obs_key: str,
        result: Any,
        obs: dict | None,
        cost: float,
    ) -> None:
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "fn": point.fn,
            "kwargs": dict(point.kwargs),
            "fingerprint": fingerprint,
            "obs_key": obs_key,
            "result": result,
            "obs": obs,
            "cost": cost,
            "created": time.time(),
        }
        try:
            blob = self._encode(entry)
        except Exception:
            self.stats.bump("uncacheable")
            return
        store.publish(self.points, key, {ENTRY_BLOB: blob})
        self.stats.bump("stores")
        dhash = self.descriptor_hash(point)
        cost_blob = json.dumps({"cost": cost, "fn": point.fn}).encode()
        store.replace_file(self._cost_path(dhash), cost_blob)

    def recorded_cost(self, point: "SweepPoint") -> float | None:
        """Last measured wall cost of this point under *any* code
        version (drives longest-cost-first scheduling of misses)."""
        try:
            data = json.loads(self._cost_path(self.descriptor_hash(point)).read_bytes())
            return float(data["cost"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- maintenance ---------------------------------------------------
    def verify(
        self, sample: int = 5, seed: int = 0, fix: bool = False
    ) -> dict[str, int]:
        """Re-run a random sample of entries from scratch and compare
        bit-for-bit. Entries whose fingerprint no longer matches the
        current code are *stale* (skipped — their result may
        legitimately differ); corrupt files and result mismatches are
        the failures, optionally deleted with ``fix``."""
        import random

        from repro.perf.sweep import SweepPoint, run_point

        report = {"checked": 0, "ok": 0, "mismatched": 0, "stale": 0, "corrupt": 0}
        valid: list[tuple[str, dict[str, Any]]] = []
        for obj in store.objects(self.points):
            entry = self._read(obj.key)
            if entry is None:
                report["corrupt"] += 1
                if fix:
                    store.delete(self.points, obj.key)
            else:
                valid.append((obj.key, entry))
        chosen = random.Random(seed).sample(valid, min(sample, len(valid)))
        for key, entry in chosen:
            modname = entry["fn"].partition(":")[0]
            if entry["fingerprint"] != code_fingerprint(modname):
                report["stale"] += 1
                continue
            report["checked"] += 1
            point = SweepPoint(entry["fn"], entry["kwargs"])
            with activate(None):  # never satisfy a verify from the cache
                fresh = run_point(point)
            same = pickle.dumps(fresh, protocol=_PICKLE_PROTO) == pickle.dumps(
                entry["result"], protocol=_PICKLE_PROTO
            )
            if same:
                report["ok"] += 1
            else:
                report["mismatched"] += 1
                if fix:
                    store.delete(self.points, key)
        return report


# ----------------------------------------------------------------------
# The active cache (mirrors repro.obs.session.current). Thread-local:
# each repro.serve job worker activates the *shared* RunCache on its
# own thread without clobbering the activation of any other thread —
# the cache object itself is safe to share (locked stats, atomic
# writes), only the "is a cache active here" switch is per-thread.
# ----------------------------------------------------------------------
_TLS = threading.local()


def current() -> RunCache | None:
    """The active cache, if any (consulted by ``SweepRunner.map``)."""
    return getattr(_TLS, "cache", None)


@contextmanager
def activate(cache: RunCache | None) -> Iterator[RunCache | None]:
    """Make ``cache`` the calling thread's run cache for the block
    (``None`` disables caching, shadowing any outer cache)."""
    prev = getattr(_TLS, "cache", None)
    _TLS.cache = cache
    try:
        yield cache
    finally:
        _TLS.cache = prev


# ----------------------------------------------------------------------
# python -m repro.perf.cache
# ----------------------------------------------------------------------
#: what ``stats``/``gc`` call one object of each kind
_NOUN = {"cache": "entries", "store": "runs"}


def _target(args: argparse.Namespace) -> tuple[str, Any, Path, Callable]:
    """The store a ``stats``/``gc`` command names: its kind, the
    :class:`RunCache` or run store itself, its object root, and a
    reader giving one object's label (None = unreadable)."""
    if args.store_dir:
        from repro.serve.store import RunStore

        runs = RunStore(args.store_dir)

        def experiment(key: str) -> str | None:
            entry = runs.get(key)
            return None if entry is None else entry.get("experiment", "?")

        return "store", runs, runs.runs, experiment
    cache = RunCache(args.cache_dir)

    def fn(key: str) -> str | None:
        entry = cache._read(key)
        return None if entry is None else entry["fn"]

    return "cache", cache, cache.points, fn


def _cmd_stats(args: argparse.Namespace) -> int:
    kind, owner, objects_root, label = _target(args)
    objs = store.objects(objects_root)
    labels = [label(obj.key) for obj in objs]
    counts = Counter(name for name in labels if name is not None)
    print(f"{kind} dir: {owner.root}")
    print(f"{_NOUN[kind] + ':':<11}{sum(counts.values())} "
          f"({sum(o.nbytes for o in objs):,} bytes, "
          f"{labels.count(None)} unreadable)")
    for name, count in counts.most_common():
        print(f"  {count:>5}  {name}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    kind, owner, objects_root, _ = _target(args)
    removed = store.gc(objects_root, args.max_age_days, args.max_bytes, args.all)
    if kind == "cache":
        store.gc(owner.costs, everything=args.all)
    print(f"removed {removed} {_NOUN[kind]} from {owner.root}")
    return 0


def _cmd_verify(cache: RunCache, args: argparse.Namespace) -> int:
    report = cache.verify(sample=args.sample, seed=args.seed, fix=args.fix)
    print(
        f"verified {report['checked']} sampled entries: {report['ok']} ok, "
        f"{report['mismatched']} mismatched, {report['stale']} stale (skipped), "
        f"{report['corrupt']} corrupt"
    )
    bad = report["mismatched"] + report["corrupt"]
    if bad:
        print("FAIL: cache holds entries that do not reproduce"
              + (" (deleted)" if args.fix else " (re-run with --fix to drop them)"))
    return 1 if bad else 0


def _cmd_bench(cache: RunCache, args: argparse.Namespace) -> int:
    """Run the quick experiment sweep twice under the cache and gate on
    the warm-run speedup (CI uses this after restoring the cache dir)."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.spec import QUICK_ARGS

    def run_all() -> tuple[float, str]:
        t0 = time.perf_counter()
        tables = [
            ALL_EXPERIMENTS[e](jobs=args.jobs, **QUICK_ARGS[e]).format_table()
            for e in ALL_EXPERIMENTS
        ]
        return time.perf_counter() - t0, "\n".join(tables)

    with activate(cache):
        before = cache.stats.snapshot()
        first_wall, first_tables = run_all()
        first = cache.stats.delta(before)
        second_wall, second_tables = run_all()
    speedup = first_wall / max(second_wall, 1e-9)
    first_points = first["hits"] + first["misses"]
    first_warm = first["hits"] / first_points if first_points else 0.0
    print(f"first sweep:  {first_wall:.2f}s ({first['hits']} hits / "
          f"{first['misses']} misses)")
    print(f"second sweep: {second_wall:.2f}s ({speedup:.1f}x)")
    if first_tables != second_tables:
        print("FAIL: warm tables are not byte-identical to the first run")
        return 1
    # a restored CI cache can make the *first* run warm already — the
    # speedup gate only applies to a genuinely cold first sweep
    if first_warm >= 0.5:
        print(f"first sweep was already {first_warm:.0%} warm "
              "(restored cache); speedup gate skipped")
        return 0
    if speedup < args.min_speedup:
        print(f"FAIL: warm sweep only {speedup:.1f}x faster "
              f"(gate: >= {args.min_speedup}x)")
        return 1
    print(f"OK: tables byte-identical, warm speedup {speedup:.1f}x "
          f">= {args.min_speedup}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"cache location (default: ${CACHE_DIR_ENV} "
                        f"or {DEFAULT_CACHE_DIR!r})")
    either = argparse.ArgumentParser(add_help=False, parents=[common])
    either.add_argument("--store-dir", default=None, metavar="DIR",
                        help="act on this service run store instead of the cache")
    ap = argparse.ArgumentParser(
        prog="python -m repro.perf.cache",
        description="Inspect and maintain the run cache and the run store.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("stats", parents=[either],
                   help="object count, bytes, per-function/experiment breakdown")
    gcp = sub.add_parser("gc", parents=[either],
                         help="delete objects by age / byte budget")
    gcp.add_argument("--max-age-days", type=float, default=None)
    gcp.add_argument("--max-bytes", type=int, default=None)
    gcp.add_argument("--all", action="store_true", help="delete every object")
    vp = sub.add_parser("verify", parents=[common],
                        help="re-run sampled entries and compare")
    vp.add_argument("--sample", type=int, default=5)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--fix", action="store_true",
                    help="delete mismatched/corrupt entries")
    sub.add_parser("fingerprint", parents=[common],
                   help="print the code fingerprint (the CI cache key)")
    bp = sub.add_parser("bench", parents=[common],
                        help="quick sweep twice; gate warm speedup")
    bp.add_argument("--min-speedup", type=float, default=5.0)
    bp.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    if args.cmd == "fingerprint":
        print(repo_fingerprint())
        return 0
    if args.cmd == "stats":
        return _cmd_stats(args)
    if args.cmd == "gc":
        return _cmd_gc(args)
    cache = RunCache(args.cache_dir)
    if args.cmd == "verify":
        return _cmd_verify(cache, args)
    return _cmd_bench(cache, args)


if __name__ == "__main__":  # pragma: no cover
    # `python -m repro.perf.cache` executes this file as `__main__`,
    # a *second* module object whose `_TLS` activation state would be invisible
    # to SweepRunner (which imports the canonical repro.perf.cache) —
    # delegate to the canonical module so activate() is seen
    from repro.perf.cache import main as _canonical_main

    sys.exit(_canonical_main())
