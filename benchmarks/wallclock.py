"""Wall-clock benchmark harness: how fast does the simulator run on the host?

Four measurements, written to ``BENCH_wallclock.json`` at the repo
root so every PR leaves a perf trajectory behind:

1. **Workload events/sec** — a fixed jacobi + memcpy + barrier
   workload through the full machine model (coherence, network,
   processors), reporting simulator events *and* simulated cycles per
   wall-clock second, plus events/sec calibrated to a reference host
   speed: perfbench's calibration slices (``perfbench/calibrate.py``,
   a fixed loop that uses nothing from the package) are timed between
   the workload's parts, and the best rate is divided by
   ``calibration_factor`` (``REFERENCE_S / median slice``).
2. **Macro-vs-micro ablation** — the same workload with macro-effects
   (``ComputeLoad`` / ``LoadComputeStore`` / ``StoreRun`` / ``Poll``
   batches) as written, and with every thread wrapped
   in ``repro.proc.effects.expand`` (each macro-effect replaced by its
   micro program). Event counts and simulated cycles must be identical
   (the batch runners chain per-element events); only the wall clock
   may differ.
3. **Large-sweep parallel bench** — a 32-point accum sweep big enough
   to clear the SweepRunner's fan-out threshold, serial vs parallel,
   reporting ``parallel_speedup``. On single-cpu hosts this records an
   explicit ``{"skipped": "1 cpu"}`` marker instead of a number.
4. **Sweep wall time** — the full experiment sweep end-to-end at
   ``--jobs 1`` vs ``--jobs N`` through the parallel SweepRunner, and
   cold vs warm through the content-addressed run cache
   (``repro.perf.cache``). Worker-pool startup is measured separately
   from compute: the pool is persistent and shared across all eight
   experiments, so its cost is paid once, not per experiment.

CI regression gate::

    python benchmarks/wallclock.py --check BENCH_wallclock.json

re-measures (1)-(3) and exits non-zero if calibrated workload
events/sec fell more than 25% below the baseline's calibrated rate (so
the gate compares the program, not the host's speed of the moment),
if the macro/micro ablation diverges in events or simulated cycles, or
if the parallel sweep fails to reach 1.0x speedup / diverges from
serial (auto-skipped on 1-cpu hosts). ``REPRO_BENCH_JOBS`` overrides the job count when
``--jobs`` is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(1, str(REPO_ROOT / "perfbench"))

from calibrate import Calibration, factor  # noqa: E402
from repro.experiments import ALL_EXPERIMENTS  # noqa: E402
from repro.perf.sweep import default_jobs  # noqa: E402

#: same trimmed parameterizations the CLI's --quick uses
from repro.experiments.spec import QUICK_ARGS  # noqa: E402


# ----------------------------------------------------------------------
# 1. Fixed workload events/sec (full machine model); 2. its macro/micro
# ablation
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
    """Best of ``repeats`` timed passes, with two calibration slices
    before each part of every pass and after the last, so the host
    speed is sampled all through the measurement."""
    cal = Calibration()
    best = None
    for _ in range(repeats):
        wall = 0.0
        parts = []
        for part in (_wl_jacobi, _wl_memcpy, _wl_barrier):
            cal.take(2)
            t0 = time.perf_counter()
            parts.append(part(macro))
            wall += time.perf_counter() - t0
        cal.take(2)
        if best is None or wall < best[2]:
            events = sum(p[0] for p in parts)
            cycles = sum(p[1] for p in parts)
            best = (events, cycles, wall)
    events, cycles, wall = best
    speed = factor(cal.slices)
    return {
        "workload": "jacobi(64x64, sm+mp) + memcpy(4KB, 3 impls) + barrier(64p, sm+mp)",
        "macro": macro,
        "events": events,
        "sim_cycles": cycles,
        "wall_sec": round(wall, 3),
        "events_per_sec": round(events / wall),
        "sim_cycles_per_sec": round(cycles / wall),
        "calibration_factor": round(speed, 4),
        "calibrated_events_per_sec": round(events / (wall * speed)),
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
# 3. Large-sweep parallel bench: does fan-out actually pay off?
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
# 4. Full experiment sweep: serial vs parallel, cold vs warm cache
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
    out = {
        "schema": 5,
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        # best-of-2 even in quick mode: the regression gate compares a
        # quick CI measurement against a full-run baseline, and a
        # single sample on a contended runner can false-trip the 25%
        # floor on host noise alone
        "workload": workload_bench(2 if quick else 3),
        "macro_ablation": ablation_bench(1 if quick else 2),
        "parallel": parallel_bench(jobs),
    }
    if not skip_sweep:
        out["sweep"] = sweep_bench(jobs)
    return out


def check_against(baseline_path: Path, measured: dict, tolerance: float = 0.25) -> int:
    baseline = json.loads(baseline_path.read_text())
    base_eps = baseline["workload"]["calibrated_events_per_sec"]
    got = measured["workload"]
    got_eps = got["calibrated_events_per_sec"]
    floor = base_eps * (1 - tolerance)
    print(f"calibrated workload events/sec: baseline={base_eps:,} "
          f"measured={got_eps:,} floor(-{tolerance:.0%})={floor:,.0f} "
          f"(raw {got['events_per_sec']:,}, calibration factor "
          f"{got['calibration_factor']})")
    failed = False
    if got_eps < floor:
        print("FAIL: calibrated events/sec regressed more than "
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
    if failed:
        return 1
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
                    help="fewer repeats (CI-sized)")
    ap.add_argument("--skip-sweep", action="store_true",
                    help="skip the full experiment sweep (4): only the "
                    "workload, ablation and parallel-sweep measurements")
    ap.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                    help="compare against a committed baseline JSON and exit "
                    "non-zero on >25%% calibrated events/sec regression "
                    "(implies --skip-sweep; does not overwrite the baseline)")
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
