"""Parallel + incremental sweep execution for independent simulation points.

Every figure/table experiment is a *sweep*: a list of fully
independent simulations (one machine config + workload descriptor
each) whose results are merged into a table. The paper's own
evaluation farmed ASIM runs out across workstations for exactly this
reason — cycle-level simulation is compute-bound and sweep points
share nothing.

The contract here keeps parallel and cached runs bit-identical to
serial ones:

* A :class:`SweepPoint` carries a *descriptor* (module-qualified
  function name + plain-data kwargs), never a live simulator object,
  so points pickle cleanly into worker processes and every worker
  builds its machine from scratch exactly as a serial run would.
* Each point function is deterministic given its kwargs (seeds travel
  inside the kwargs), so where it runs — or whether it is replayed
  from the content-addressed run cache (:mod:`repro.perf.cache`) —
  cannot change what it returns.
* :meth:`SweepRunner.map` always merges results back in the order of
  its input points, whatever order they executed in, so the rendered
  table is byte-identical at any job count and any cache hit ratio.

Three host-speed mechanisms live here:

* **Persistent worker pool.** Pools are process-global and reused
  across sweeps (and across the 8-experiment wallclock run) instead of
  being constructed and torn down per experiment; ``warm_pool``
  exposes the startup cost so benchmarks can report it separately.
* **Explicit chunking.** Misses go through ``Pool.imap`` with a
  chunksize derived from the point count (``_chunksize``), so large
  ablation sweeps amortize IPC without one slow chunk serializing the
  tail.
* **Cost-aware incremental execution.** With a run cache active
  (:func:`repro.perf.cache.activate`), cache hits return instantly and
  only misses execute — scheduled longest-recorded-cost-first so the
  parallel critical path shrinks.
"""

from __future__ import annotations

import atexit
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation in a sweep.

    ``fn`` is a ``"package.module:callable"`` spec; ``kwargs`` must be
    plain picklable data (ints, floats, strings, tuples) — machine
    configs and workloads are described, not instantiated, until the
    point actually runs.
    """

    fn: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def resolve(self) -> Callable[..., Any]:
        modname, sep, attr = self.fn.partition(":")
        if not sep:
            raise ValueError(f"point fn {self.fn!r} is not 'module:callable'")
        fn = getattr(importlib.import_module(modname), attr)
        if not callable(fn):
            raise TypeError(f"{self.fn!r} resolved to non-callable {fn!r}")
        return fn


def run_point(point: SweepPoint) -> Any:
    """Execute one sweep point (also the worker-side entry point)."""
    return point.resolve()(**point.kwargs)


def _run_point_entry(arg: tuple[Any, SweepPoint]) -> tuple[Any, dict | None, float]:
    """The one entry every executed point goes through, inline or in a
    pool worker: run it (under a fresh observation session when ``cfg``
    is given, whatever session a forked worker inherited) and return
    ``(result, observation payload, wall cost)``."""
    from repro.obs.session import session

    cfg, point = arg
    t0 = time.perf_counter()
    if cfg is None:
        result, payload = run_point(point), None
    else:
        with session(cfg) as s:
            result = run_point(point)
            payload = s.data()
    return result, payload, time.perf_counter() - t0


def default_jobs() -> int:
    """Job count when the caller says 'parallel' without a number."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


PARALLEL_MIN_POINTS_ENV = "REPRO_PARALLEL_MIN_POINTS"

#: below this many runnable points, fan-out costs more than it saves:
#: BENCH_wallclock.json measured the 8-experiment quick sweep (35
#: points, 4 jobs) at 0.74x *slower* than serial — pool dispatch and
#: result IPC dominate when each sweep hands the pool only a handful
#: of points. Tables are byte-identical either way (ordered merge).
DEFAULT_PARALLEL_MIN_POINTS = 24


def parallel_min_points() -> int:
    """Point count at which a sweep is worth fanning out."""
    env = os.environ.get(PARALLEL_MIN_POINTS_ENV)
    if env:
        return max(2, int(env))
    return DEFAULT_PARALLEL_MIN_POINTS


def _chunksize(n_points: int, procs: int) -> int:
    """~4 chunks per worker, floor 1. Sweep points are coarse (whole
    simulations), so small sweeps keep chunksize 1 for scheduling
    freedom; large ablation sweeps batch to amortize pool IPC without
    letting one slow chunk serialize the tail."""
    return max(1, n_points // (max(1, procs) * 4))


# ----------------------------------------------------------------------
# Persistent worker pools (keyed by size, reused across sweeps)
# ----------------------------------------------------------------------
_POOLS: dict[int, Any] = {}


def _get_pool(procs: int):
    pool = _POOLS.get(procs)
    if pool is None:
        import multiprocessing as mp

        pool = mp.Pool(processes=procs)
        _POOLS[procs] = pool
    return pool


def warm_pool(procs: int) -> float:
    """Create the persistent ``procs``-wide pool if it does not exist
    yet; returns the startup cost in seconds (0.0 when already warm,
    or when ``procs <= 1`` needs no pool at all)."""
    if procs <= 1 or procs in _POOLS:
        return 0.0
    t0 = time.perf_counter()
    _get_pool(procs)
    return time.perf_counter() - t0


def shutdown_pools() -> None:
    """Tear down every persistent pool (atexit, and test isolation)."""
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


atexit.register(shutdown_pools)


class SweepRunner:
    """Fan independent sweep points out over worker processes, replaying
    cached points when a run cache is active.

    ``jobs=1`` (the default) runs points in-process in order —
    the reference behaviour. ``jobs=N`` uses a persistent
    ``multiprocessing`` pool; ``jobs=None`` picks :func:`default_jobs`.
    Results come back in input order either way (deterministic ordered
    merge)."""

    def __init__(self, jobs: int | None = 1) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))

    def _fan_out(self, n_runnable: int) -> bool:
        """Whether ``n_runnable`` points justify the worker pool. Tiny
        sweeps run inline: per-point dispatch + result IPC outweighs
        the parallelism (the wallclock bench measured 0.74x at this
        sweep scale), and the ordered merge keeps the resulting tables
        byte-identical either way."""
        return self.jobs > 1 and n_runnable >= parallel_min_points()

    def map(self, points: Sequence[SweepPoint]) -> list[Any]:
        """Results of ``points`` in input order. With a run cache, hits
        replay and misses run; without one every point is a miss and
        nothing is stored. Under an observation session each executed
        point is observed in its own session, and every payload, cached
        or fresh, is absorbed in input order, so the session's records
        do not depend on job count or cache state."""
        from repro.obs.session import current as obs_current
        from repro.perf.cache import code_fingerprint, current as cache_current
        from repro.perf.progress import current as progress_current, point_label

        points = list(points)
        cache = cache_current()
        sess = obs_current()
        notify = progress_current()
        obs_cfg = sess.cfg if sess is not None else None
        obs_key = repr(obs_cfg) if obs_cfg is not None else ""
        results: list[Any] = [None] * len(points)
        payloads: list[dict | None] = [None] * len(points)
        misses = list(range(len(points)))
        if cache is not None:
            before = cache.stats.snapshot()
            mods = [p.fn.partition(":")[0] for p in points]
            by_mod = {mod: code_fingerprint(mod) for mod in set(mods)}
            fps = [by_mod[mod] for mod in mods]
            keys = [cache.key_for(p, fp, obs_key) for p, fp in zip(points, fps)]
            misses = []
            for i, point in enumerate(points):
                entry = cache.get(keys[i], point)
                if entry is None:
                    misses.append(i)
                else:
                    results[i] = entry["result"]
                    payloads[i] = entry.get("obs")

        def done(i: int, cached: bool) -> None:
            # a callback-raised abort is the service's cancellation path
            if notify is not None:
                notify({"event": "point", "index": i,
                        "label": point_label(points[i], i), "cached": cached})

        if notify is not None:
            notify({"event": "sweep_start", "points": len(points),
                    "cached": len(points) - len(misses)})
            missing = set(misses)
            for i in range(len(points)):
                if i not in missing:
                    done(i, cached=True)
        fan_out = self._fan_out(len(misses))
        if fan_out and cache is not None:
            # longest-recorded-cost-first shrinks the parallel critical
            # path; points never seen before sort first (conservatively
            # "could be long")
            def rank(i: int) -> float:
                cost = cache.recorded_cost(points[i])
                return -cost if cost is not None else float("-inf")

            misses.sort(key=rank)
        args = [(obs_cfg, points[i]) for i in misses]
        if fan_out:
            procs = min(self.jobs, len(misses))
            outs = _get_pool(self.jobs).imap(
                _run_point_entry, args, _chunksize(len(misses), procs)
            )
        else:
            outs = map(_run_point_entry, args)
        for i, (result, payload, cost) in zip(misses, outs):
            results[i] = result
            payloads[i] = payload
            if cache is not None:
                cache.put(keys[i], points[i], fps[i], obs_key,
                          result, payload, cost)
            # after the cache write: an abort never loses finished work
            done(i, cached=False)
        if sess is not None:
            for payload in payloads:
                if payload:
                    sess.absorb(payload)
            if cache is not None:
                sess.note_cache(cache.stats.delta(before))
        return results
