"""Wall-clock benchmark harness: how fast does the simulator run on the host?

Three measurements, written to ``BENCH_wallclock.json`` at the repo
root so every PR leaves a perf trajectory behind:

1. **Engine micro-bench** — events/sec pumping a synthetic event mix
   through the current engine *and* through a faithful replica of the
   pre-optimization engine (``@dataclass(order=True)`` heap entries).
   Comparing both on the same host in the same process isolates the
   engine speedup from machine noise.
2. **Workload events/sec** — a fixed jacobi + memcpy + barrier
   workload through the full machine model (coherence, network,
   processors), reporting simulator events *and* simulated cycles per
   wall-clock second.
3. **Macro-vs-micro ablation** — the same workload with macro-effects
   (``ComputeLoad`` / ``LoadComputeStore`` / ``StoreRun`` /
   ``SpinUntilGE`` batches) as written, and with every thread wrapped
   in ``repro.proc.effects.expand`` (each macro-effect replaced by its
   micro program). Event counts and simulated cycles must be identical
   (the batch runners chain per-element events); only the wall clock
   may differ.
4. **Large-sweep parallel bench** — a 32-point accum sweep big enough
   to clear the SweepRunner's fan-out threshold, serial vs parallel,
   reporting ``parallel_speedup``. On single-cpu hosts this records an
   explicit ``{"skipped": "1 cpu"}`` marker instead of a number.
5. **Partitioned-run bench** — one 256-node jacobi run split across
   node-sharded engines (``repro.perf.partition``) at 2 and 4 shards,
   reporting events/sec and ``speedup_vs_serial`` per shard count plus
   a ``result_identical`` bit (partitioned runs must reproduce the
   serial answer exactly). Single-cpu hosts record the same explicit
   ``{"skipped": "1 cpu"}`` marker as (4).
6. **Sweep wall time** — the full experiment sweep end-to-end at
   ``--jobs 1`` vs ``--jobs N`` through the parallel SweepRunner, and
   cold vs warm through the content-addressed run cache
   (``repro.perf.cache``). Worker-pool startup is measured separately
   from compute: the pool is persistent and shared across all eight
   experiments, so its cost is paid once, not per experiment.

CI regression gate::

    python benchmarks/wallclock.py --check BENCH_wallclock.json

re-measures (1)-(5) and exits non-zero if workload events/sec fell
more than 25% below the committed baseline, if the macro/micro
ablation diverges in events or simulated cycles, or if the parallel
sweep or the partitioned run fails to reach 1.0x speedup / diverges
from serial (both auto-skipped on 1-cpu hosts). ``REPRO_BENCH_JOBS``
overrides the job count when ``--jobs`` is not given.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import ALL_EXPERIMENTS  # noqa: E402
from repro.perf.sweep import default_jobs  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

#: same trimmed parameterizations the CLI's --quick uses
from repro.experiments.spec import QUICK_ARGS  # noqa: E402


# ----------------------------------------------------------------------
# 1. Engine micro-bench (current engine vs pre-PR replica)
# ----------------------------------------------------------------------
@dataclass(order=True)
class _LegacyEvent:
    time: int
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class LegacySimulator:
    """Faithful replica of the pre-optimization event loop: dataclass
    heap entries (ordered via ``__lt__`` dispatch), ceil arithmetic on
    every delay, no due-lane. Kept here as the micro-bench yardstick."""

    def __init__(self) -> None:
        self._queue: list[_LegacyEvent] = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0

    def schedule(self, delay, fn):
        when = self.now + int(-(-delay // 1))
        ev = _LegacyEvent(when, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._queue, ev)
        return ev

    def run(self) -> None:
        while self._queue:
            ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            self.now = ev.time
            self.events_processed += 1
            ev.fn()


def _pump(sim, schedule, n_events: int) -> float:
    """Drive ``n_events`` through 32 interleaved delay-varying chains;
    returns events/sec. The delay pattern mixes same-cycle, short and
    longer delays the way the machine model does."""
    count = [0]

    def tick(d: int) -> None:
        count[0] += 1
        if count[0] < n_events:
            schedule(d, lambda: tick((d % 7) + 1))

    for i in range(32):
        schedule(i % 5, lambda i=i: tick((i % 7) + 1))
    t0 = time.perf_counter()
    sim.run()
    return sim.events_processed / (time.perf_counter() - t0)


def engine_microbench(n_events: int = 300_000, repeats: int = 3) -> dict:
    best_new = best_legacy = 0.0
    for _ in range(repeats):
        sim = Simulator()
        best_new = max(best_new, _pump(sim, sim.call_after, n_events))
        legacy = LegacySimulator()
        best_legacy = max(best_legacy, _pump(legacy, legacy.schedule, n_events))
    return {
        "events": n_events,
        "events_per_sec": round(best_new),
        "legacy_events_per_sec": round(best_legacy),
        "speedup_vs_legacy": round(best_new / best_legacy, 2),
    }


# ----------------------------------------------------------------------
# 2. Fixed workload events/sec (full machine model)
# ----------------------------------------------------------------------
def _program(macro: bool) -> Callable:
    """How a workload wraps its threads: as written (macro-effects run
    through the batch runners) or expanded into micro programs."""
    from repro.proc.effects import expand

    return (lambda gen: gen) if macro else expand


def _wl_jacobi(macro: bool = True) -> tuple[int, int]:
    from repro.apps.jacobi import JacobiApp
    from repro.experiments.common import make_machine

    program = _program(macro)
    events = cycles = 0
    for mode in ("sm", "mp"):
        m = make_machine(16)
        app = JacobiApp(m, grid_size=64, iters=4, mode=mode)
        for node in range(m.n_nodes):
            m.processor(node).run_thread(program(app.node_thread(node)))
        m.run()
        events += m.sim.events_processed
        cycles += m.sim.now
    return events, cycles


def _wl_memcpy(macro: bool = True) -> tuple[int, int]:
    from repro.experiments.common import make_machine, run_thread_timed
    from repro.proc.effects import ComputeLoad
    from repro.runtime.bulk import BulkTransfer, copy_no_prefetch, copy_prefetch

    nbytes = 4096
    events = cycles = 0
    for copier in (copy_no_prefetch, copy_prefetch):
        m = make_machine(4)
        src = m.alloc(0, nbytes)
        dst = m.alloc(1, nbytes)
        for i in range(nbytes // 8):
            m.store.write(src + i * 8, i)

        def bench(m=m, src=src, dst=dst, copier=copier):
            # warm read of the source block
            yield ComputeLoad(src, nbytes // 8)
            yield from copier(src, dst, nbytes)

        run_thread_timed(m, _program(macro)(bench()))
        events += m.sim.events_processed
        cycles += m.sim.now
    m = make_machine(4)
    bulk = BulkTransfer(m)
    src = m.alloc(0, nbytes)
    dst = m.alloc(1, nbytes)

    def mp_bench():
        yield from bulk.send(1, src, dst, nbytes, wait_ack=True)

    run_thread_timed(m, mp_bench())
    return events + m.sim.events_processed, cycles + m.sim.now


def _wl_barrier(macro: bool = True) -> tuple[int, int]:
    from repro.experiments.common import make_machine
    from repro.proc.effects import Compute
    from repro.runtime.barrier import MPTreeBarrier, SMTreeBarrier

    program = _program(macro)
    events = cycles = 0
    for make in (
        lambda m: SMTreeBarrier(m, arity=2),
        lambda m: MPTreeBarrier(m, fanout=8),
    ):
        m = make_machine(64)
        barrier = make(m)

        def participant(node: int):
            for _ in range(4):
                yield from barrier.enter(node)
                yield Compute(1)

        for node in range(64):
            m.processor(node).run_thread(program(participant(node)))
        m.run()
        events += m.sim.events_processed
        cycles += m.sim.now
    return events, cycles


def workload_bench(repeats: int = 2, macro: bool = True) -> dict:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        parts = [_wl_jacobi(macro), _wl_memcpy(macro), _wl_barrier(macro)]
        wall = time.perf_counter() - t0
        if best is None or wall < best[2]:
            events = sum(p[0] for p in parts)
            cycles = sum(p[1] for p in parts)
            best = (events, cycles, wall)
    events, cycles, wall = best
    return {
        "workload": "jacobi(64x64, sm+mp) + memcpy(4KB, 3 impls) + barrier(64p, sm+mp)",
        "macro": macro,
        "events": events,
        "sim_cycles": cycles,
        "wall_sec": round(wall, 3),
        "events_per_sec": round(events / wall),
        "sim_cycles_per_sec": round(cycles / wall),
    }


def ablation_bench(repeats: int = 2) -> dict:
    """Macro-effects as written vs expanded into their micro programs,
    over the same workload. The batch runners chain per-element events,
    so events and simulated cycles must match exactly; only wall clock
    may differ."""
    macro = workload_bench(repeats, macro=True)
    micro = workload_bench(repeats, macro=False)
    return {
        "macro_events_per_sec": macro["events_per_sec"],
        "micro_events_per_sec": micro["events_per_sec"],
        "macro_wall_sec": macro["wall_sec"],
        "micro_wall_sec": micro["wall_sec"],
        "macro_speedup": round(micro["wall_sec"] / macro["wall_sec"], 2),
        "events_identical": macro["events"] == micro["events"],
        "sim_cycles_identical": macro["sim_cycles"] == micro["sim_cycles"],
    }


# ----------------------------------------------------------------------
# Large-sweep parallel bench: does fan-out actually pay off?
# ----------------------------------------------------------------------
def parallel_bench(jobs: int) -> dict:
    """Serial vs parallel over a sweep big enough to clear the
    SweepRunner fan-out threshold (32 accum points). Single-cpu hosts
    get an explicit skip marker instead of a meaningless number."""
    from repro.experiments.common import sweep_map
    from repro.perf.sweep import SweepPoint, parallel_min_points, warm_pool

    if (os.cpu_count() or 1) < 2:
        return {"skipped": "1 cpu"}
    jobs = max(2, jobs)
    sizes = [256 * (1 << (i // 4)) * (4 + i % 4) for i in range(16)]
    points = [
        SweepPoint("repro.experiments.fig8_accum:measure_point",
                   {"impl": impl, "nbytes": nbytes})
        for nbytes in sizes
        for impl in ("sm", "mp")
    ]
    assert len(points) >= parallel_min_points(), "sweep too small to fan out"
    t0 = time.perf_counter()
    serial = sweep_map(points, jobs=1)
    serial_wall = time.perf_counter() - t0
    pool_startup = warm_pool(jobs)
    t0 = time.perf_counter()
    parallel = sweep_map(points, jobs=jobs)
    parallel_wall = time.perf_counter() - t0
    return {
        "sweep_points": len(points),
        "jobs": jobs,
        "serial_wall_sec": round(serial_wall, 3),
        "pool_startup_sec": round(pool_startup, 3),
        "parallel_wall_sec": round(parallel_wall, 3),
        "parallel_speedup": round(serial_wall / parallel_wall, 2),
        "results_identical": parallel == serial,
    }


# ----------------------------------------------------------------------
# Partitioned-run bench: node-sharded engines on one big machine
# ----------------------------------------------------------------------
def partition_bench() -> dict:
    """One 256-node jacobi run, serial vs split across 2 and 4 shard
    workers (``repro.perf.partition``). The sweep runner parallelizes
    *across* points; this parallelizes *within* a single run, which is
    what a 1024-node simulation actually needs. Single-cpu hosts get
    the explicit skip marker — shard workers would just time-slice."""
    if (os.cpu_count() or 1) < 2:
        return {"skipped": "1 cpu"}
    from repro.apps.jacobi import JacobiApp
    from repro.experiments.common import make_machine
    from repro.perf.partition import run_partitioned

    n_nodes = 256
    kwargs = {"mode": "mp", "grid_size": 64, "n_nodes": n_nodes,
              "iters": 4, "validate": False}
    # in-process serial reference: the wall-clock yardstick and the
    # model event count (partitioned shards process the same model
    # events, plus window-barrier overhead the speedup has to beat)
    t0 = time.perf_counter()
    m = make_machine(n_nodes)
    app = JacobiApp(m, grid_size=kwargs["grid_size"],
                    iters=kwargs["iters"], mode=kwargs["mode"])
    _, cycles = app.run()
    serial_wall = time.perf_counter() - t0
    serial_result = app.cycles_per_iteration(cycles)
    events = m.sim.events_processed
    out = {
        "workload": f"fig11 jacobi mp 64x64, {n_nodes} nodes, 4 iters",
        "events": events,
        "serial_wall_sec": round(serial_wall, 3),
        "serial_events_per_sec": round(events / serial_wall),
        "shards": {},
    }
    for k in (2, 4):
        t0 = time.perf_counter()
        result = run_partitioned(
            "repro.experiments.fig11_jacobi:measure_jacobi",
            kwargs, n_nodes, k,
        )
        wall = time.perf_counter() - t0
        out["shards"][str(k)] = {
            "wall_sec": round(wall, 3),
            "events_per_sec": round(events / wall),
            "speedup_vs_serial": round(serial_wall / wall, 2),
            "result_identical": result == serial_result,
        }
    return out


# ----------------------------------------------------------------------
# 3. Full experiment sweep: serial vs parallel, cold vs warm cache
# ----------------------------------------------------------------------
def sweep_bench(jobs: int) -> dict:
    import tempfile

    from repro.perf.cache import RunCache, activate
    from repro.perf.sweep import warm_pool

    def run_all(n: int) -> tuple[float, str]:
        t0 = time.perf_counter()
        tables = [
            fn(jobs=n, **QUICK_ARGS[exp_id]).format_table()
            for exp_id, fn in ALL_EXPERIMENTS.items()
        ]
        return time.perf_counter() - t0, "\n\n".join(tables)

    serial, _ = run_all(1)
    # warm the persistent pool first so pool startup is charged once,
    # separately from the compute time of the 8-experiment sweep
    pool_startup = warm_pool(jobs)
    parallel, _ = run_all(jobs)
    with tempfile.TemporaryDirectory() as td:
        cache = RunCache(td)
        with activate(cache):
            cold, cold_tables = run_all(jobs)
            warm, warm_tables = run_all(jobs)
        cache_stats = cache.stats.snapshot()
    return {
        "experiments": list(ALL_EXPERIMENTS),
        "jobs": jobs,
        "serial_wall_sec": round(serial, 2),
        "pool_startup_sec": round(pool_startup, 3),
        "parallel_wall_sec": round(parallel, 2),
        "parallel_speedup": round(serial / parallel, 2),
        "cache_cold_wall_sec": round(cold, 2),
        "cache_warm_wall_sec": round(warm, 3),
        "cache_warm_speedup": round(cold / max(warm, 1e-9), 1),
        "cache_tables_identical": cold_tables == warm_tables,
        "cache": cache_stats,
    }


# ----------------------------------------------------------------------
def measure(jobs: int, quick: bool, skip_sweep: bool = False) -> dict:
    n_events = 60_000 if quick else 300_000
    repeats = 1 if quick else 3
    out = {
        "schema": 3,
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "engine_microbench": engine_microbench(n_events, repeats),
        # best-of-2 even in quick mode: the regression gate compares a
        # quick CI measurement against a full-run baseline, and a
        # single sample on a contended runner can false-trip the 25%
        # floor on host noise alone
        "workload": workload_bench(2 if quick else 3),
        "macro_ablation": ablation_bench(1 if quick else 2),
        "parallel": parallel_bench(jobs),
        "partition": partition_bench(),
    }
    if not skip_sweep:
        out["sweep"] = sweep_bench(jobs)
    return out


def check_against(baseline_path: Path, measured: dict, tolerance: float = 0.25) -> int:
    baseline = json.loads(baseline_path.read_text())
    base_eps = baseline["workload"]["events_per_sec"]
    got_eps = measured["workload"]["events_per_sec"]
    floor = base_eps * (1 - tolerance)
    print(f"workload events/sec: baseline={base_eps:,} measured={got_eps:,} "
          f"floor(-{tolerance:.0%})={floor:,.0f}")
    failed = False
    if got_eps < floor:
        print("FAIL: events/sec regressed more than "
              f"{tolerance:.0%} vs the committed baseline")
        failed = True
    abl = measured["macro_ablation"]
    if not (abl["events_identical"] and abl["sim_cycles_identical"]):
        print(f"FAIL: macro/micro ablation diverged: {abl}")
        failed = True
    else:
        print(f"macro ablation: identical events+cycles, "
              f"{abl['macro_speedup']}x wall speedup over micro")
    par = measured["parallel"]
    if par.get("skipped"):
        print(f"parallel sweep gate: skipped ({par['skipped']})")
    elif not par["results_identical"]:
        print(f"FAIL: parallel sweep results diverged from serial: {par}")
        failed = True
    elif par["parallel_speedup"] < 1.0:
        print(f"FAIL: parallel sweep slower than serial: {par}")
        failed = True
    else:
        print(f"parallel sweep: {par['parallel_speedup']}x speedup over "
              f"{par['sweep_points']} points at jobs={par['jobs']}")
    part = measured.get("partition", {})
    if part.get("skipped"):
        print(f"partition gate: skipped ({part['skipped']})")
    else:
        best = max(s["speedup_vs_serial"] for s in part["shards"].values())
        if not all(s["result_identical"] for s in part["shards"].values()):
            print(f"FAIL: partitioned run diverged from serial: {part}")
            failed = True
        elif best < 1.0:
            print(f"FAIL: no shard count beat serial wall-clock: {part}")
            failed = True
        else:
            print(f"partition: best {best}x over serial on "
                  f"{part['workload']}")
    if failed:
        return 1
    ratio = measured["engine_microbench"]["speedup_vs_legacy"]
    print(f"engine speedup vs pre-PR replica: {ratio}x")
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="parallel job count for the sweep comparison "
                    "(default: REPRO_BENCH_JOBS / cpu count / REPRO_JOBS)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_wallclock.json",
                    help="where to write the JSON result")
    ap.add_argument("--quick", action="store_true",
                    help="smaller event counts / single repeat (CI-sized)")
    ap.add_argument("--skip-sweep", action="store_true",
                    help="only the micro-bench and workload measurements")
    ap.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                    help="compare against a committed baseline JSON and exit "
                    "non-zero on >25%% events/sec regression (implies "
                    "--skip-sweep; does not overwrite the baseline)")
    args = ap.parse_args(argv)
    # REPRO_BENCH_JOBS lets CI pin the bench fan-out without touching
    # the command line (the same workflow runs on differently-sized
    # runners); --jobs still wins when given explicitly
    env_jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0") or "0")
    jobs = args.jobs or env_jobs or default_jobs()

    measured = measure(jobs, args.quick, skip_sweep=args.skip_sweep or args.check)
    print(json.dumps(measured, indent=2))
    if args.check is not None:
        return check_against(args.check, measured)
    args.out.write_text(json.dumps(measured, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
