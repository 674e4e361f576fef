"""perfbench: end-to-end and per-layer host-time benchmark of the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload NAME --record   # rewrite expected.json

Workloads (see design.json): ``shared_memory``, ``message_passing`` and
``observed`` run seeded lists of simulations in fresh processes
(``child.py``); ``service`` drives a ``serve`` daemon with a seeded
request stream (``service.py``). Every time is host time; a simulated
result that differs from the recorded one is a failure, not a speed
change.

``--trace 0`` repeats the workload in fresh processes (daemons) for
``--seconds`` and reports the end-to-end metrics as medians and
percentiles over them, each time scaled to a reference host speed by a
calibration timed in the same process (``calibrate.py``).
``--trace 1`` runs it once untraced, then under cProfile, checks that
both simulated the same cycles and events, and reports per-layer host
time. Each metric is printed by name with its unit; the last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
#: the seed whose results ``expected.json`` records
DEFAULT_SEED = 0
IN_PROCESS = ("shared_memory", "message_passing", "observed")
WORKLOADS = (*IN_PROCESS, "service")
#: fewest fresh processes an untraced in-process run takes percentiles over
MIN_PROCESSES = 10
#: the traced run's layer self times must sum to its wall time within
#: this share; cProfile itself leaves about 6% of a call-heavy run's
#: wall time outside every function's self time
COVERAGE_TOLERANCE = 0.10

END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "job_p50_ms": "ms", "job_p90_ms": "ms", "dedup_p50_ms": "ms",
}
PER_LAYER = {
    "sim.self_s": "s", "sim.events": "count", "sim.ns_per_event": "ns",
    "proc.self_s": "s", "proc.resumes": "count", "proc.effects": "count",
    "proc.ns_per_effect": "ns",
    "memory.self_s": "s", "memory.accesses": "count", "memory.packets": "count",
    "memory.ns_per_op": "ns",
    "network.self_s": "s", "network.sends": "count", "network.ns_per_send": "ns",
    "cmmu.self_s": "s", "cmmu.launches": "count", "cmmu.storebacks": "count",
    "cmmu.ns_per_message": "ns",
    "runtime.self_s": "s", "apps.self_s": "s",
    "faults.self_s": "s", "faults.injected": "count",
    "machine.build_ms": "ms", "machine.bytes_per_node": "B",
    "obs.self_s": "s", "check.self_s": "s", "trace.self_s": "s",
    "observers.share": "ratio",
    "perf.self_s": "s", "cache.hit_ratio": "ratio", "cache.get_ms": "ms",
    "cache.put_ms": "ms", "perf.fingerprint_ms": "ms",
    "serve.self_s": "s", "serve.queue_ms": "ms", "serve.exec_ms": "ms",
    "serve.store_get_ms": "ms", "serve.publish_ms": "ms", "serve.journal_ms": "ms",
    "other.self_s": "s", "tracing.overhead_s": "s", "tracing.coverage": "ratio",
}


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_env() -> dict:
    """Environment of every process the benchmark starts: the package
    source on the path and none of the package's own ``REPRO_*``
    settings (cache and store directories, job counts)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def repeat_until(seconds: float, minimum: int, once) -> list:
    """Call ``once()`` until another call would overrun ``seconds``
    (at least ``minimum`` times); returns the results."""
    out = []
    t0 = time.monotonic()
    while True:
        out.append(once())
        elapsed = time.monotonic() - t0
        if len(out) >= minimum and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, mode: str) -> dict:
    """One fresh process; returns its record plus ``setup_s`` measured
    from spawn (interpreter start-up included)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": ["timed out"]}
    if proc.returncode != 0:
        return {"crashed": proc.stderr.strip().splitlines()[-1:] or ["no output"]}
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["setup_end"] - spawned
    return rec


def signature(op: dict) -> tuple:
    """Everything a run of one operation must reproduce exactly."""
    return (op["op"], json.dumps(op["values"], sort_keys=True),
            op.get("events"), op.get("effects"), op.get("faults"))


def account_in_process(children: list[dict], n_ops: int, expected: dict | None,
                       tally: Tally) -> None:
    """Count every operation of every process as attempted; fail errors,
    mismatches against ``expected`` (op -> values) and any departure
    from the first process that ran (exact agreement)."""
    reference = None
    for child in children:
        if "crashed" in child:
            for _ in range(n_ops):
                tally.check(False, f"process crashed: {child['crashed']}")
            continue
        reference = reference or [signature(o) for o in child["ops"]]
        for op, ref in zip(child["ops"], reference):
            if not tally.check(op["error"] is None, f"{op['op']}: {op['error']}"):
                continue
            if expected is not None and op["values"] != expected.get(op["op"]):
                tally.fail(f"{op['op']}: {op['values']} != recorded {expected.get(op['op'])}")
            elif signature(op) != ref:
                tally.fail(f"{op['op']}: result differs between runs")


def in_process_end_to_end(children: list[dict]) -> dict:
    """Medians and percentiles over the fresh processes, each time
    scaled to reference host speed by its own process's calibration.
    A job is one process's computation of the whole operation list
    (construction plus drain); a dedup is one answer of the whole list
    from the run cache, ``RESUBMITS`` of them per process."""
    ok = [c for c in children if "crashed" not in c]
    if not ok:
        return {}
    f = [factor(c["calibration_s"]) for c in ok]
    job = [k * 1e3 * sum(op["build_s"] + op["drain_s"] for op in c["ops"])
           for k, c in zip(f, ok)]
    dedup = [k * 1e3 * t for k, c in zip(f, ok) for t in c["resubmit_s"]]
    run = [sum(op["drain_s"] for op in c["ops"]) for c in ok]
    print(f"host speed: calibration factor median {statistics.median(f):.4f} over "
          f"{len(ok)} processes; uncalibrated run_s median {statistics.median(run):.4f} s")
    return {
        "setup_s": statistics.median(k * c["setup_s"] for k, c in zip(f, ok)),
        "run_s": statistics.median(k * r for k, r in zip(f, run)),
        "peak_rss_mb": statistics.median(c["maxrss_kb"] / 1024 for c in ok),
        "job_p50_ms": percentile(job, 50), "job_p90_ms": percentile(job, 90),
        "dedup_p50_ms": percentile(dedup, 50),
    }


def check_coverage(profile: dict, tally: Tally) -> None:
    """The layer self times must add up to everything the profile
    measured, and that to the traced span (``wall_s``)."""
    attributed = sum(profile["self_s"].values())
    if abs(attributed - profile["total_s"]) > 1e-6 * max(1.0, profile["total_s"]):
        tally.fail(f"attribution lost time: {attributed} of {profile['total_s']} s")
    coverage = attributed / profile["wall_s"]
    if abs(coverage - 1) > COVERAGE_TOLERANCE:
        tally.fail(f"layer self times cover {coverage:.1%} of the traced span")


def per_op(entry: dict, scale: float) -> float:
    return scale * entry["inclusive_s"] / entry["calls"] if entry["calls"] else 0.0


def layer_metrics(profiles: list[dict], counts: dict, extra: dict) -> dict:
    """Per-layer metrics: medians of the profiled self times and per-call
    times over ``profiles``, exact counts from ``counts``."""
    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    def self_s(layer):
        return med(lambda p: p["self_s"][layer])

    def entry(name, field="calls"):
        return med(lambda p: p["entries"][name][field])

    def ns(name):
        return med(lambda p: per_op(p["entries"][name], 1e9))

    def ms(name):
        return med(lambda p: per_op(p["entries"][name], 1e3))

    def ratio(a, b):
        return a / b if b else 0.0

    mem_calls = entry("memory.access") + entry("memory.handle_packet")
    mem_time = entry("memory.access", "inclusive_s") + entry("memory.handle_packet", "inclusive_s")
    observers = self_s("obs") + self_s("check") + self_s("trace")
    out = {
        "sim.self_s": self_s("sim"), "sim.events": counts["events"],
        "sim.ns_per_event": 1e9 * ratio(self_s("sim"), counts["events"]),
        "proc.self_s": self_s("proc"), "proc.resumes": entry("proc.step"),
        "proc.effects": counts["effects"],
        "proc.ns_per_effect": 1e9 * ratio(self_s("proc"), counts["effects"]),
        "memory.self_s": self_s("memory"), "memory.accesses": entry("memory.access"),
        "memory.packets": entry("memory.handle_packet"),
        "memory.ns_per_op": 1e9 * ratio(mem_time, mem_calls),
        "network.self_s": self_s("network"), "network.sends": entry("network.send"),
        "network.ns_per_send": ns("network.send"),
        "cmmu.self_s": self_s("cmmu"), "cmmu.launches": entry("cmmu.launch"),
        "cmmu.storebacks": entry("cmmu.storeback"),
        "cmmu.ns_per_message": ns("cmmu.launch"),
        "runtime.self_s": self_s("runtime"), "apps.self_s": self_s("apps"),
        "faults.self_s": self_s("faults"), "faults.injected": counts["faults"],
        "obs.self_s": self_s("obs"), "check.self_s": self_s("check"),
        "trace.self_s": self_s("trace"),
        "observers.share": ratio(observers, med(lambda p: p["total_s"])),
        "perf.self_s": self_s("perf"), "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"), "perf.fingerprint_ms": ms("perf.fingerprint"),
        "serve.self_s": self_s("serve"), "serve.store_get_ms": ms("serve.store_get"),
        "serve.publish_ms": ms("serve.publish"), "serve.journal_ms": ms("serve.journal"),
        "other.self_s": self_s("other"),
        "tracing.coverage": med(lambda p: p["total_s"] / p["wall_s"]),
        "cache.hit_ratio": 0.0, "serve.queue_ms": 0.0, "serve.exec_ms": 0.0,
    }
    out.update(extra)
    return out


def run_in_process(workload: str, seed: int, seconds: float, trace: bool,
                   expected: dict | None, tally: Tally) -> dict:
    from workloads import WORKLOADS as OPS_OF

    n_ops = len(OPS_OF[workload]()) + (workload == "observed")
    if not trace:
        children = repeat_until(seconds, MIN_PROCESSES,
                                lambda: run_child(workload, seed, "run"))
        account_in_process(children, n_ops, expected, tally)
        return in_process_end_to_end(children)

    t0 = time.monotonic()
    reference = run_child(workload, seed, "probe")
    traced = repeat_until(seconds - (time.monotonic() - t0), 1,
                          lambda: run_child(workload, seed, "trace"))
    children = [reference, *traced]
    account_in_process(children, n_ops, expected, tally)
    ok = [c for c in traced if "crashed" not in c]
    if "crashed" in reference or not ok:
        return {}
    for c in ok:
        c["profile"]["wall_s"] = c["wall_s"]
        check_coverage(c["profile"], tally)
    counts = {k: sum(op.get(k, 0) for op in reference["ops"])
              for k in ("events", "effects", "faults")}
    untraced_run = sum(op["drain_s"] for op in reference["ops"])
    traced_run = statistics.median(sum(op["drain_s"] for op in c["ops"]) for c in ok)
    probe = reference["probe"]
    gets = reference["cache"]["hits"] + reference["cache"]["misses"]
    print(f"tracing overhead ({workload}): traced run_s {traced_run:.3f} s - "
          f"untraced run_s {untraced_run:.3f} s = {traced_run - untraced_run:.3f} s "
          f"({traced_run / untraced_run:.2f}x)")
    return layer_metrics(
        [c["profile"] for c in ok], counts,
        {"cache.hit_ratio": reference["cache"]["hits"] / gets if gets else 0.0,
         "machine.build_ms": probe["build_ms"],
         "machine.bytes_per_node": probe["bytes_per_node"],
         "tracing.overhead_s": traced_run - untraced_run},
    )


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        expected_all: dict | None = None) -> tuple[dict, Tally]:
    tally = Tally()
    if expected_all is None and seed == DEFAULT_SEED:
        expected_all = load_expected()
    expected = expected_all.get(workload) if expected_all is not None else None
    if workload == "service":
        from service import run_service

        metrics = run_service(seed, seconds, trace, expected, tally)
    else:
        metrics = run_in_process(workload, seed, seconds, trace, expected, tally)
    return metrics, tally


def report(metrics: dict, units: dict, tally: Tally) -> dict:
    """Print every metric by name with its unit; return the result."""
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'attempted':<24} {tally.attempted} count")
    print(f"{'failed_share':<24} {share:.6g} ratio")
    complete = all(name in metrics for name in units)
    out = {}
    for name, unit in units.items():
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": unit}
            print(f"{name:<24} {metrics[name]:.6g} {unit}")
    return {
        "correct": tally.failed == 0 and complete and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": out,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"record the workload's results for seed {DEFAULT_SEED} "
                    "as the expected ones")
    ap.add_argument("--self-test", action="store_true",
                    help="prove that a perturbed expected value counts as a failure")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no package source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.record:
        from selftest import record

        return record(args.workload)
    metrics, tally = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(metrics, PER_LAYER if args.trace else END_TO_END, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
