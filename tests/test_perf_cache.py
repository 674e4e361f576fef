"""Tests for the content-addressed run cache and incremental sweeps.

Correctness contract (ISSUE 5): a hit returns a bit-identical result
vs the cold run; perturbing kwargs misses; editing code in the point's
import closure invalidates; a corrupt entry is detected and re-run;
and serial / parallel / cached results all agree.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import threading
import time

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.obs.export import build_perfetto
from repro.obs.session import ObsConfig, session
from repro.perf.cache import (
    RunCache,
    activate,
    code_fingerprint,
    import_closure,
    repo_fingerprint,
)
from repro.perf import store
from repro.perf.cache import main as cache_main
from repro.perf.sweep import (
    PARALLEL_MIN_POINTS_ENV,
    SweepPoint,
    SweepRunner,
    _chunksize,
)


def _cube(x):
    return x * x * x


POINTS = [SweepPoint("tests.test_perf_cache:_cube", {"x": i}) for i in range(6)]
EXPECT = [i**3 for i in range(6)]


# ----------------------------------------------------------------------
# Code fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_closure_covers_transitive_repro_imports(self):
        closure = import_closure("repro.experiments.fig7_memcpy")
        assert "repro.experiments.fig7_memcpy" in closure
        assert "repro.experiments.common" in closure  # direct import
        assert "repro.sim.engine" in closure  # transitive, several hops

    def test_fingerprint_is_stable(self):
        a = code_fingerprint("repro.experiments.fig7_memcpy")
        b = code_fingerprint("repro.experiments.fig7_memcpy")
        assert a == b and len(a) == 64

    def test_distinct_closures_distinct_fingerprints(self):
        # leaf module (closure of 1) vs an experiment (closure of ~all
        # of repro — experiments reach the whole machine model)
        assert code_fingerprint("repro.analysis.tables") != code_fingerprint(
            "repro.experiments.fig7_memcpy"
        )
        assert len(import_closure("repro.analysis.tables")) < len(
            import_closure("repro.experiments.fig7_memcpy")
        )

    def test_repo_fingerprint_shape(self):
        assert len(repo_fingerprint()) == 64

    def test_unresolvable_module_gets_sentinel(self):
        assert code_fingerprint("no.such.module") == "unresolved:no.such.module"

    def test_warm_fingerprint_stats_each_source_once(self, monkeypatch):
        # one memo record per file holds both its digest and its
        # imports, so a warm fingerprint costs one stat per module
        mod = "repro.experiments.fig8_accum"
        closure = import_closure(mod)
        code_fingerprint(mod)
        stats = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        code_fingerprint(mod)
        monkeypatch.undo()
        assert sorted(stats) == sorted(closure.values())


def _write_module(path, body, bump_ns):
    path.write_text(body)
    # force a distinct mtime_ns so the fingerprint memo can't collide
    os.utime(path, ns=(bump_ns, bump_ns))


class TestFingerprintInvalidation:
    def test_editing_module_changes_fingerprint_and_invalidates(
        self, tmp_path, monkeypatch
    ):
        import importlib

        monkeypatch.syspath_prepend(str(tmp_path))
        mod = tmp_path / "cache_fp_mod.py"
        base_ns = time.time_ns()
        _write_module(mod, "def fn(x):\n    return x + 1\n", base_ns)
        importlib.invalidate_caches()
        points = [SweepPoint("cache_fp_mod:fn", {"x": 1})]
        cache = RunCache(tmp_path / "cache")
        try:
            with activate(cache):
                assert SweepRunner(1).map(points) == [2]
                fp1 = code_fingerprint("cache_fp_mod")
                _write_module(mod, "def fn(x):\n    return x + 100\n",
                              base_ns + 10_000_000)
                sys.modules.pop("cache_fp_mod", None)
                importlib.invalidate_caches()
                fp2 = code_fingerprint("cache_fp_mod")
                assert fp1 != fp2
                # transparently re-runs the affected point
                assert SweepRunner(1).map(points) == [101]
            assert cache.stats.misses == 2
            assert cache.stats.invalidations == 1
            assert cache.stats.hits == 0
        finally:
            sys.modules.pop("cache_fp_mod", None)


# ----------------------------------------------------------------------
# Hit/miss/corruption semantics
# ----------------------------------------------------------------------
class TestRunCache:
    def test_hit_is_bit_identical_to_cold_run(self, tmp_path):
        cache = RunCache(tmp_path)
        with activate(cache):
            cold = SweepRunner(1).map(POINTS)
            warm = SweepRunner(1).map(POINTS)
        assert cold == warm == EXPECT
        assert pickle.dumps(cold, protocol=4) == pickle.dumps(warm, protocol=4)
        assert cache.stats.snapshot() == {
            "hits": 6, "misses": 6, "stores": 6,
            "invalidations": 0, "corrupt": 0, "uncacheable": 0,
        }

    def test_kwargs_perturbation_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        with activate(cache):
            SweepRunner(1).map(POINTS)
            SweepRunner(1).map([SweepPoint("tests.test_perf_cache:_cube", {"x": 99})])
        assert cache.stats.hits == 0
        assert cache.stats.misses == 7
        # a never-seen descriptor is a plain miss, not an invalidation
        assert cache.stats.invalidations == 0

    def test_corrupt_entry_detected_and_rerun(self, tmp_path):
        cache = RunCache(tmp_path)
        with activate(cache):
            SweepRunner(1).map(POINTS)
            objects = sorted((tmp_path / "points").glob("*/entry.pkl"))
            assert len(objects) == 6
            blob = bytearray(objects[0].read_bytes())
            blob[-1] ^= 0xFF  # flip one payload bit
            objects[0].write_bytes(bytes(blob))
            assert SweepRunner(1).map(POINTS) == EXPECT
        assert cache.stats.corrupt == 1
        assert cache.stats.hits == 5
        # the corrupt entry was re-run and re-stored
        assert cache.stats.stores == 7

    def test_truncated_entry_detected(self, tmp_path):
        cache = RunCache(tmp_path)
        with activate(cache):
            SweepRunner(1).map(POINTS[:1])
            path = next((tmp_path / "points").glob("*/entry.pkl"))
            path.write_bytes(path.read_bytes()[:10])
            assert SweepRunner(1).map(POINTS[:1]) == EXPECT[:1]
        assert cache.stats.corrupt == 1

    def test_serial_parallel_cached_all_agree(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_POINTS_ENV, "2")  # genuine fan-out
        uncached = SweepRunner(1).map(POINTS)
        with activate(RunCache(tmp_path)):
            cold_parallel = SweepRunner(2).map(POINTS)
            warm_serial = SweepRunner(1).map(POINTS)
            warm_parallel = SweepRunner(2).map(POINTS)
        assert uncached == cold_parallel == warm_serial == warm_parallel == EXPECT

    def test_costs_recorded_and_survive_invalidation_keying(self, tmp_path):
        cache = RunCache(tmp_path)
        with activate(cache):
            SweepRunner(1).map(POINTS[:2])
        for p in POINTS[:2]:
            cost = cache.recorded_cost(p)
            assert cost is not None and cost >= 0.0
        assert cache.recorded_cost(POINTS[5]) is None

    def test_no_active_cache_means_no_cache_io(self, tmp_path):
        cache = RunCache(tmp_path)
        assert SweepRunner(1).map(POINTS) == EXPECT
        assert list(tmp_path.iterdir()) == []
        assert cache.stats.misses == 0


# ----------------------------------------------------------------------
# Experiment integration: cached tables are byte-identical
# ----------------------------------------------------------------------
#: two sweep points each of fig8 (no tasks) and fig9 (tasks, stealing)
OBSERVED_POINTS = {
    "fig8": [
        SweepPoint("repro.experiments.fig8_accum:measure_point",
                   {"impl": impl, "nbytes": 64})
        for impl in ("sm", "mp")
    ],
    "fig9": [
        SweepPoint("repro.experiments.fig9_grain:measure_grain",
                   {"kind": kind, "delay": 0, "depth": 6, "n_nodes": 16})
        for kind in ("hybrid", "sm")
    ],
}


class TestExperimentIntegration:
    def test_fig7_cached_rows_and_tables_identical(self, tmp_path):
        fn = ALL_EXPERIMENTS["fig7"]
        reference = fn(jobs=1, block_sizes=(64, 256))
        cache = RunCache(tmp_path)
        with activate(cache):
            cold = fn(jobs=1, block_sizes=(64, 256))
            warm = fn(jobs=1, block_sizes=(64, 256))
        assert cache.stats.hits == 6 and cache.stats.misses == 6
        ref = json.dumps(reference.rows, sort_keys=True, default=str)
        assert ref == json.dumps(cold.rows, sort_keys=True, default=str)
        assert ref == json.dumps(warm.rows, sort_keys=True, default=str)
        assert cold.format_table() == warm.format_table() == reference.format_table()

    @pytest.mark.parametrize("mode", ["no-cache", "cold", "warm", "jobs2"])
    @pytest.mark.parametrize("fig", sorted(OBSERVED_POINTS))
    def test_observed_cached_run_replays_observations(
        self, tmp_path, monkeypatch, fig, mode
    ):
        # every mode observes the same machines the same way as an
        # uncached serial run: same records (labels, context and task
        # ids included), trace document, metrics and attribution
        points = OBSERVED_POINTS[fig]

        def observed(jobs=1):
            with session(ObsConfig(trace=True)) as s:
                results = SweepRunner(jobs).map(points)
                return results, s.data()

        plain = SweepRunner(1).map(points)
        ref_results, ref = observed()
        if mode == "no-cache":
            results, data = observed()
        elif mode == "jobs2":
            monkeypatch.setenv(PARALLEL_MIN_POINTS_ENV, "2")
            results, data = observed(jobs=2)
        else:
            with activate(RunCache(tmp_path)):
                results, data = observed()
                if mode == "warm":
                    results, data = observed()
        assert plain == ref_results == results
        if mode == "cold":
            assert data["cache"]["misses"] == 2 and data["cache"]["hits"] == 0
        if mode == "warm":
            # the warm run replays the *same* observations, merged the same
            assert data["cache"]["hits"] == 2 and data["cache"]["misses"] == 0
            names = [r["name"] for r in data["metrics"]["rows"]]
            assert "sweep.cache.hits" in names
        assert [r["label"] for r in data["records"]] == ["m0", "m1"]
        assert data["records"] == ref["records"]
        assert build_perfetto(data["records"]) == build_perfetto(ref["records"])
        assert data["cycle_attribution"] == ref["cycle_attribution"]

        def rows(d):
            return [r for r in d["metrics"]["rows"]
                    if not r["name"].startswith("sweep.cache.")]

        assert rows(data) == rows(ref)

    def test_observed_and_unobserved_results_cached_separately(self, tmp_path):
        points = [SweepPoint("tests.test_perf_cache:_cube", {"x": 3})]
        cache = RunCache(tmp_path)
        with activate(cache):
            assert SweepRunner(1).map(points) == [27]
            with session(ObsConfig()) as s:
                assert SweepRunner(1).map(points) == [27]
                s.data()
        # the observed run keys differently (it must capture and replay
        # observation payloads), so it is a miss, not a bogus hit
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0


# ----------------------------------------------------------------------
# python -m repro.perf.cache (stats / gc / verify / fingerprint)
# ----------------------------------------------------------------------
class TestCacheTool:
    def _populate(self, tmp_path):
        cache = RunCache(tmp_path)
        with activate(cache):
            SweepRunner(1).map(POINTS)
        return cache

    def test_stats_lists_entries(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cache_main(["stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:   6" in out
        assert "tests.test_perf_cache:_cube" in out

    def test_verify_clean_cache_passes(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cache_main(
            ["verify", "--cache-dir", str(tmp_path), "--sample", "4"]
        ) == 0
        assert "4 sampled entries: 4 ok" in capsys.readouterr().out

    def test_verify_detects_stale_result(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        # forge a plausible-but-wrong entry: valid digest, wrong result
        path = sorted((tmp_path / "points").glob("*/entry.pkl"))[0]
        entry = cache._decode(path.read_bytes())
        entry["result"] = 424242
        path.write_bytes(cache._encode(entry))
        rc = cache_main(
            ["verify", "--cache-dir", str(tmp_path), "--sample", "6", "--fix"]
        )
        assert rc == 1
        assert "1 mismatched" in capsys.readouterr().out
        assert not path.exists()  # --fix dropped it

    def test_verify_counts_corrupt_files(self, tmp_path, capsys):
        self._populate(tmp_path)
        path = sorted((tmp_path / "points").glob("*/entry.pkl"))[0]
        path.write_bytes(b"garbage")
        assert cache_main(["verify", "--cache-dir", str(tmp_path)]) == 1
        assert "1 corrupt" in capsys.readouterr().out

    def test_gc_byte_budget_drops_entries(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        assert cache_main(
            ["gc", "--cache-dir", str(tmp_path), "--max-bytes", "0"]
        ) == 0
        assert "removed 6 entries" in capsys.readouterr().out
        assert list(cache.points.iterdir()) == []

    def test_gc_all_wipes_cost_sidecars_too(self, tmp_path):
        self._populate(tmp_path)
        assert len(list((tmp_path / "costs").glob("*.json"))) == 6
        assert cache_main(["gc", "--cache-dir", str(tmp_path), "--all"]) == 0
        assert not list((tmp_path / "costs").iterdir())

    def test_old_layout_reads_as_empty(self, tmp_path, capsys):
        """Directories written in the older nested layout
        (``objects/<k[:2]>/<k>.pkl``, ``runs/<k[:2]>/<k>/``) read as
        empty: no hit, nothing counted, nothing reported corrupt."""
        from repro.serve.store import RunStore

        cache = RunCache(tmp_path / "cache")
        fp = code_fingerprint("tests.test_perf_cache")
        key = cache.key_for(POINTS[0], fp, "")
        old_entry = tmp_path / "cache" / "objects" / key[:2] / f"{key}.pkl"
        old_entry.parent.mkdir(parents=True)
        old_entry.write_bytes(cache._encode({
            "schema": 1, "key": key, "fn": POINTS[0].fn,
            "kwargs": dict(POINTS[0].kwargs), "fingerprint": fp,
            "obs_key": "", "result": EXPECT[0], "obs": None, "cost": 0.1,
            "created": 0.0,
        }))
        run_key = "cd" + "1" * 62
        old_run = tmp_path / "store" / "runs" / run_key[:2] / run_key
        old_run.mkdir(parents=True)
        (old_run / "report.txt").write_bytes(b"table\n")
        (old_run / "entry.json").write_text(json.dumps({
            "schema": 1, "key": run_key, "artifacts": ["report.txt"],
            "experiment": "fig8",
        }))
        assert cache.get(key, POINTS[0]) is None
        assert RunStore(tmp_path / "store").get(run_key) is None
        assert cache_main(["stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert cache_main(["stats", "--store-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "entries:   0 (" in out and "runs:      0 (" in out
        assert cache_main(["verify", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_fingerprint_prints_hex(self, tmp_path, capsys):
        assert cache_main(["fingerprint"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 64 and int(out, 16) >= 0


# ----------------------------------------------------------------------
# Scheduling satellites: chunksize + persistent pool
# ----------------------------------------------------------------------
class TestScheduling:
    def test_chunksize_scales_with_point_count(self):
        assert _chunksize(6, 4) == 1  # small sweeps: scheduling freedom
        assert _chunksize(9, 3) == 1
        assert _chunksize(1000, 8) == 31  # big ablations: amortize IPC
        assert _chunksize(1, 1) == 1

    def test_pool_persists_across_runners(self, monkeypatch):
        from repro.perf import sweep

        monkeypatch.setenv(PARALLEL_MIN_POINTS_ENV, "2")
        sweep.shutdown_pools()
        try:
            assert SweepRunner(2).map(POINTS) == EXPECT
            pool_first = sweep._POOLS[2]
            assert SweepRunner(2).map(POINTS) == EXPECT
            assert sweep._POOLS[2] is pool_first
            assert len(sweep._POOLS) == 1
        finally:
            sweep.shutdown_pools()

    def test_warm_pool_reports_startup_once(self):
        from repro.perf import sweep

        sweep.shutdown_pools()
        try:
            first = sweep.warm_pool(2)
            assert first > 0.0
            assert sweep.warm_pool(2) == 0.0  # already warm
            assert sweep.warm_pool(1) == 0.0  # no pool needed
        finally:
            sweep.shutdown_pools()

    def test_miss_cost_ranking_longest_first_unknown_leads(self, tmp_path):
        cache = RunCache(tmp_path)
        # seed cost sidecars (point 0 cheap, point 1 expensive), then
        # drop the entries so both points are misses with known costs
        fp = code_fingerprint("tests.test_perf_cache")
        for p, cost in ((POINTS[0], 0.001), (POINTS[1], 9.0)):
            cache.put(cache.key_for(p, fp, ""), p, fp, "", 0, None, cost)
            store.delete(cache.points, cache.key_for(p, fp, ""))

        def rank(i):  # mirrors SweepRunner.map's miss ordering
            cost = cache.recorded_cost(POINTS[i])
            return -cost if cost is not None else float("-inf")

        # unknown-cost point 5 first ("could be long"), then 9s, then cheap
        assert sorted([0, 1, 5], key=rank) == [5, 1, 0]


# ----------------------------------------------------------------------
# Concurrent writers: many threads and processes hammering ONE key read
# back the right result every time, and the shared hit/store counters
# stay exact (publish mechanics themselves: tests/test_store.py).
# ----------------------------------------------------------------------
HAMMER_POINT = SweepPoint("tests.test_perf_cache:_cube", {"x": 7})
HAMMER_FP = "f" * 64


def _hammer_proc(cache_dir: str, rounds: int) -> None:
    """Child-process body: repeatedly publish and read back one key.
    Any torn read (decode failure / wrong result) raises → exitcode."""
    cache = RunCache(cache_dir)
    key = cache.key_for(HAMMER_POINT, HAMMER_FP, "")
    for _ in range(rounds):
        cache.put(key, HAMMER_POINT, HAMMER_FP, "", 343, None, 0.1)
        entry = cache.get(key, HAMMER_POINT)
        assert entry is not None and entry["result"] == 343


class TestConcurrentWriters:
    def test_threads_and_processes_hammer_one_key(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key_for(HAMMER_POINT, HAMMER_FP, "")
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def hammer_thread():
            try:
                barrier.wait()
                for _ in range(30):
                    cache.put(key, HAMMER_POINT, HAMMER_FP, "", 343, None, 0.1)
                    entry = cache.get(key, HAMMER_POINT)
                    assert entry is not None and entry["result"] == 343
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        procs = [
            multiprocessing.Process(target=_hammer_proc, args=(str(tmp_path), 30))
            for _ in range(3)
        ]
        threads = [threading.Thread(target=hammer_thread) for _ in range(4)]
        for p in procs:
            p.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        for p in procs:
            p.join(60.0)
        assert not errors
        assert all(p.exitcode == 0 for p in procs)
        # the surviving entry decodes cleanly; shared stats stayed
        # coherent under the lock
        final = cache.get(key, HAMMER_POINT)
        assert final is not None and final["result"] == 343
        assert cache.stats.hits == 4 * 30 + 1
        assert cache.stats.stores == 4 * 30

    def test_stats_bump_rejects_unknown_field(self):
        from repro.perf.cache import CacheStats

        with pytest.raises(ValueError):
            CacheStats().bump("nope")


@pytest.fixture(autouse=True, scope="module")
def _no_leaked_pools():
    yield
    from repro.perf import sweep

    sweep.shutdown_pools()
