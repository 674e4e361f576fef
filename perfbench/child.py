"""One fresh process: one pass over one in-process workload.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``run`` (untraced), ``probe`` (untraced, then the machine
footprint probe), ``trace`` (the pass under cProfile) or ``footprint``
(the probe alone, for the service workload). Set-up is imports, a
warm-up of every operation kind at toy size (so lazy first-use costs
land here) and construction of every machine. Then each machine is
drained in order, with host-speed calibration slices before each
drain (untraced modes; ``MIN_SLICES`` or more in all). Last comes the resubmit: every result is
stored in the package's run cache, then fetched back by key as an
exact resubmission would be, and must come back unchanged.

Prints one JSON line: per-operation host times, simulated cycles,
result values and event/effect/fault counts, the calibration slices,
the resubmit times, and ``setup_end`` on the system-wide monotonic
clock so the parent can add interpreter start-up to set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG_DIR = os.path.join(ROOT, "src", "repro")
TMP = os.path.join(ROOT, ".perfbench_tmp")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from calibrate import Calibration  # noqa: E402
from repro.experiments.common import make_machine  # noqa: E402
from repro.obs.export import build_perfetto, build_run_manifest  # noqa: E402
from repro.obs.session import ObsConfig, session  # noqa: E402
from repro.perf.cache import RunCache, code_fingerprint  # noqa: E402
from repro.perf.sweep import SweepPoint  # noqa: E402

#: every observer the package has: tracer, cycle profiler, metrics,
#: time-series sampler and all three checkers
OBSERVE_ALL = ObsConfig(
    sample_interval=500, trace=True, check=("race", "coherence", "deadlock")
)
#: times the resubmit of the whole operation list is repeated
RESUBMITS = 10
#: fewest calibration slices a process takes, spread over its drains
MIN_SLICES = 12


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _finalize(s, seed: int) -> dict:
    """Close an observation session the way the CLI does: collect,
    build the run manifest and the Perfetto document."""
    data = s.data()
    manifest = build_run_manifest(
        experiment="perfbench.observed",
        params={"seed": seed},
        timings={"machines": len(data["records"])},
        metrics=data["metrics"],
        cycle_attribution=data["cycle_attribution"],
        check=data["check"],
    )
    doc = build_perfetto(data["records"])
    findings = (manifest["check"] or {}).get("findings") or []
    if findings:
        raise wl.CheckFailed(f"{len(findings)} checker findings: {findings[0]}")
    return {
        "cycles": sum(r["cycles"] for r in data["records"]),
        "machines": len(data["records"]),
        "trace_events": len(doc["traceEvents"]),
    }


def run_pass(ops: list, seed: int, observe: bool,
             cal: Calibration | None) -> tuple[list, float]:
    """Build every machine, then drain each; returns (records, the
    monotonic time construction ended)."""
    out = []
    per_drain = -(-MIN_SLICES // len(ops))
    with session(OBSERVE_ALL) if observe else nullcontext() as s:
        built = []
        for name, opname, kw in ops:
            t0 = time.perf_counter()
            try:
                m, drain, err = *wl.OPS[opname](seed, **kw), None
            except Exception as exc:  # a failed operation, counted by the parent
                m = drain = None
                err = _error(exc)
            built.append((name, m, drain, time.perf_counter() - t0, err))
        built_at = time.monotonic()
        for name, m, drain, build_s, err in built:
            rec = {"op": name, "build_s": build_s, "drain_s": 0.0, "values": None}
            if err is None:
                if cal is not None:
                    cal.take(per_drain)
                t0 = time.perf_counter()
                try:
                    rec["values"] = drain()
                except Exception as exc:
                    err = _error(exc)
                rec["drain_s"] = time.perf_counter() - t0
                rec["events"] = m.sim.events_processed
                rec["effects"] = sum(n.processor.stats.effects for n in m.nodes)
                rec["faults"] = m.network.stats.faults_injected
            rec["error"] = err
            out.append(rec)
        del built
        if observe:
            rec = {"op": "observe_finalize", "build_s": 0.0, "values": None,
                   "events": 0, "effects": 0, "faults": 0}
            t0 = time.perf_counter()
            try:
                rec["values"] = _finalize(s, seed)
                rec["error"] = None
            except Exception as exc:
                rec["error"] = _error(exc)
            rec["drain_s"] = time.perf_counter() - t0
            out.append(rec)
    if cal is not None:
        cal.take()
    return out, built_at


def resubmit(ops: list, seed: int, records: list, cache: RunCache) -> list[float]:
    """Store each operation's result in ``cache``, then answer the whole
    list again from it ``RESUBMITS`` times: a key per operation (its
    descriptor and the package's code fingerprint, as a sweep point is
    keyed), then a cache get. Returns the seconds each answer took. A
    result that does not come back unchanged fails its operation."""
    kwargs = {name: dict(kw, op=opname, seed=seed) for name, opname, kw in ops}

    def key(rec):
        point = SweepPoint(f"perfbench.workloads:{rec['op']}", kwargs.get(rec["op"], {}))
        return point, cache.key_for(point, code_fingerprint("repro"))

    done = [r for r in records if r["error"] is None]
    for rec in done:
        point, k = key(rec)
        cache.put(k, point, "", "", rec["values"], None, rec["drain_s"])
    times = []
    for _ in range(RESUBMITS):
        t0 = time.perf_counter()
        answers = []
        for rec in done:
            point, k = key(rec)
            answers.append((rec, cache.get(k, point)))
        times.append(time.perf_counter() - t0)
        for rec, entry in answers:
            if entry is None or entry["result"] != rec["values"]:
                rec["error"] = "the run cache did not return the stored result"
    return times


def warm_up(observe: bool) -> None:
    for opname, kw in wl.WARMUP:
        _, drain = wl.OPS[opname](0, **kw)
        drain()
    if observe:
        with session(OBSERVE_ALL) as s:
            wl.OPS["barrier"](0, impl="sm", nodes=4, episodes=1)[1]()
            _finalize(s, 0)
    code_fingerprint("repro")


def probe(nodes: int) -> dict:
    """Construction time and footprint of the workload's largest machine."""
    import tracemalloc

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        make_machine(nodes)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    m = make_machine(nodes)
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del m
    return {"build_ms": median(times) * 1e3, "bytes_per_node": size / nodes}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode == "footprint":
        print(json.dumps({"probe": probe(wl.LARGEST[workload])}))
        return 0
    observe = workload == "observed"
    ops = wl.WORKLOADS[workload]()
    warm_up(observe)
    cache_dir = os.path.join(TMP, f"child-{os.getpid()}")
    cal = None if mode == "trace" else Calibration()
    prof = None
    if mode == "trace":
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    cache = RunCache(cache_dir)
    try:
        t0 = time.perf_counter()
        records, setup_end = run_pass(ops, seed, observe, cal)
        resubmit_s = resubmit(ops, seed, records, cache)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    out = {"setup_end": setup_end, "ops": records, "resubmit_s": resubmit_s,
           "calibration_s": cal.slices if cal else [], "wall_s": wall,
           "cache": cache.stats.snapshot()}
    if prof is not None:
        from layers import attribute

        prof.disable()
        prof.create_stats()
        out["profile"] = attribute(prof.stats, PKG_DIR)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "probe":
        out["probe"] = probe(wl.LARGEST[workload])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
