"""The service workload: one closed-loop client against a ``serve`` daemon.

Each pass starts a daemon (``serve --workers 1 --jobs 1``) on fresh
store and cache directories, warms it with one job per spec template
(so imports, code fingerprints and the first request land in set-up),
then sends the seeded request stream through ``ServeClient``, one
request in flight at a time. Each request is: submit, follow the job's
SSE stream to a terminal state, fetch ``report.txt`` and ``run.json``.
The daemon is stopped with SIGINT and its peak RSS read from ``wait4``.
Between requests the client times a calibration slice every
``SLICE_EVERY`` requests (``calibrate.py``); the pass's times are
scaled to reference host speed by them.

``ServeClient`` opens a connection per HTTP call. A keep-alive
connection is not used: the daemon writes a response's headers and
body separately, and on a reused connection Nagle's algorithm holds
the body until the client's delayed ACK (about 40 ms per response),
which would swamp every cost this workload exists to measure.

The stream is a fixed multiset of requests; the seed picks only their
order, the resubmit targets and which specs the cache-hit requests
reorder, so the stream costs the same for every seed. No production
traffic has been measured, so the counts are an assumption; they are
equal per spec template, and the gated percentiles each cover one
request kind, so no percentile depends on the assumed kind shares:

* ``miss``: a new spec whose sweep points are new too (``job_*``),
  ``MISSES`` per template, made distinct by parameters from a fixed
  list per template (no observer is attached to any spec);
* ``hit``: a new spec (new run key) that reorders an earlier miss's
  list parameter, so all its sweep points come from the shared run
  cache (``HITS`` per list-valued template; in ``run_s`` and
  ``cache.hit_ratio`` only);
* ``resubmit``: an exact earlier spec, answered from the run store
  (``dedup_*``).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calibrate import Calibration, factor
from run import (
    HERE, ROOT, Tally, check_coverage, child_env, layer_metrics, percentile, repeat_until,
)

from repro.serve.client import ServeClient, ServeError

TMP = os.path.join(ROOT, ".perfbench_tmp")

#: new specs per pass for each template
MISSES = 8
#: cache-hit specs per pass for each template with a list parameter
HITS = 4
RESUBMITS = 48
#: fewest daemons an untraced run takes medians over
MIN_DAEMONS = 3
#: requests between two calibration slices in the client
SLICE_EVERY = 8


def _sizes(i: int) -> list[int]:
    """The ``i``-th of ``MISSES`` disjoint block-size pairs; every pair
    copies the same number of bytes."""
    return [64 + 32 * i, 64 + 32 * (2 * MISSES - 1 - i)]


#: template -> the ``MISSES`` distinct params of its miss specs, and
#: the list parameter a cache-hit spec reverses (None: it has none)
TEMPLATES = {
    "fig7": ([{"block_sizes": _sizes(i)} for i in range(MISSES)], "block_sizes"),
    "fig8": ([{"block_sizes": _sizes(i)} for i in range(MISSES)], "block_sizes"),
    "faults": ([{"loss_rates": [0.0, 0.05], "nbytes": 256, "n_nodes": 8, "episodes": 2,
                 "seed": 1 + i} for i in range(MISSES)], "loss_rates"),
    "barrier": ([{"n_nodes": n, "episodes": e} for n in (8, 12, 16, 20) for e in (2, 3)],
                None),
    "rti": ([{"n_nodes": n, "trials": t} for n in (8, 10, 12, 14) for t in (2, 3)], None),
}
#: warm-up params per template, distinct from every stream spec
WARMUP = {
    "fig7": {"block_sizes": [1024]},
    "fig8": {"block_sizes": [1024]},
    "faults": {"loss_rates": [0.0, 0.05], "nbytes": 256, "n_nodes": 8, "episodes": 2,
               "seed": 1 + MISSES},
    "barrier": {"n_nodes": 6, "episodes": 1},
    "rti": {"n_nodes": 6, "trials": 1},
}


def make_stream(seed: int) -> list[dict]:
    """The seeded request list: ``{"kind", "spec", "of"}``, where ``of``
    is the index of the request a resubmit repeats. Each step draws a
    kind in proportion to how many of it remain, among the kinds that
    have something earlier to refer to."""
    rng = random.Random(seed)
    misses = [{"experiment": exp, "params": params}
              for exp, (variants, _) in TEMPLATES.items() for params in variants]
    rng.shuffle(misses)
    hits = {exp: HITS for exp, (_, listed) in TEMPLATES.items() if listed}
    remaining = {"miss": len(misses), "hit": sum(hits.values()), "resubmit": RESUBMITS}
    stream: list[dict] = []
    reorderable: list[int] = []
    while any(remaining.values()):
        feasible = [k for k, n in remaining.items() if n and (
            k == "miss" or (k == "hit" and reorderable) or (k == "resubmit" and stream))]
        kind = rng.choices(feasible, weights=[remaining[k] for k in feasible])[0]
        remaining[kind] -= 1
        if kind == "miss":
            spec = misses.pop()
            if hits.get(spec["experiment"]):
                reorderable.append(len(stream))
            stream.append({"kind": kind, "spec": spec, "of": None})
        elif kind == "hit":
            orig = stream[reorderable.pop(rng.randrange(len(reorderable)))]["spec"]
            exp = orig["experiment"]
            hits[exp] -= 1
            if not hits[exp]:
                reorderable = [i for i in reorderable
                               if stream[i]["spec"]["experiment"] != exp]
            spec = json.loads(json.dumps(orig))
            spec["params"][TEMPLATES[exp][1]].reverse()
            stream.append({"kind": kind, "spec": spec, "of": None})
        else:
            of = rng.choice([i for i, r in enumerate(stream) if r["of"] is None])
            stream.append({"kind": kind, "spec": stream[of]["spec"], "of": of})
    return stream


def warmup_specs() -> list[dict]:
    """One job per template, with params the stream never uses."""
    return [{"experiment": exp, "params": params} for exp, params in WARMUP.items()]


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
def request(client: ServeClient, spec: dict) -> dict:
    """Submit, follow the job's SSE stream to a terminal state, fetch
    the artifacts; returns the outcome and its latency."""
    t0 = time.perf_counter()
    out: dict = {"dedup": None}
    try:
        job = client.submit(spec)
        out.update(id=job["id"], dedup=job["dedup"], state="no terminal event")
        for event in client.events(job["id"]):
            out["state"] = event.get("event", out["state"])
        if out["state"] == "done":
            out["report.txt"] = client.fetch(job["id"], "report.txt")
            out["run.json"] = client.fetch(job["id"], "run.json")
    except (OSError, http.client.HTTPException, ServeError, ValueError) as exc:
        out["state"] = f"{type(exc).__name__}: {exc}"
    out["latency_s"] = time.perf_counter() - t0
    return out


# ----------------------------------------------------------------------
# Daemon
# ----------------------------------------------------------------------
def start_daemon(workdir: str, profile_out: str | None) -> tuple[subprocess.Popen, int]:
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1",
             "--jobs", "1", "--store", os.path.join(workdir, "store"),
             "--cache-dir", os.path.join(workdir, "cache"), "--log-level", "warning"]
    if profile_out is None:
        cmd = [sys.executable, "-m", "repro.cli", *serve]
    else:
        cmd = [sys.executable, os.path.join(HERE, "launch_daemon.py"), profile_out, *serve]
    with open(os.path.join(workdir, "daemon.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=log, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if match is None:
        stop_daemon(proc)
        raise RuntimeError(f"daemon did not start: {line.strip() or 'no output'}")
    return proc, int(match.group(1))


def stop_daemon(proc: subprocess.Popen, timeout: float = 30.0) -> tuple[bool, float]:
    """SIGINT, wait for the graceful drain; returns (clean exit, peak RSS MB)."""
    proc.send_signal(signal.SIGINT)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode == 0, usage.ru_maxrss / 1024


def _counter(snapshot: dict, name: str) -> float:
    return sum(r["value"] for r in snapshot["rows"] if r["name"] == name)


def one_pass(stream: list[dict], profile: bool) -> dict:
    """Start a daemon, warm it, drive the stream, stop it. A pass that
    cannot run returns ``{"error": reason}``."""
    workdir = os.path.join(TMP, f"pass-{time.monotonic_ns()}")
    os.makedirs(workdir)
    try:
        return _drive(workdir, stream, profile)
    except (OSError, RuntimeError, ValueError, KeyError, http.client.HTTPException) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _drive(workdir: str, stream: list[dict], profile: bool) -> dict:
    spawned = time.monotonic()
    prof_path = os.path.join(workdir, "daemon.prof") if profile else None
    proc, port = start_daemon(workdir, prof_path)
    try:
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=60)
        warm = [request(client, spec) for spec in warmup_specs()]
        before = client.metrics()
        setup_s = time.monotonic() - spawned
        cal = Calibration()
        results = []
        for i, req in enumerate(stream):
            if i % SLICE_EVERY == 0:
                cal.take()
            results.append(request(client, req["spec"]))
        cal.take()
        after = client.metrics()
        jobs = {j["id"]: j for j in client.jobs()}
    finally:
        clean, rss_mb = stop_daemon(proc)
    out = {"setup_s": setup_s, "run_s": sum(r["latency_s"] for r in results),
           "peak_rss_mb": rss_mb, "clean_exit": clean, "calibration_s": cal.slices,
           "warm_ok": all(w["state"] == "done" for w in warm), "results": results}
    hits = _counter(after, "serve.cache.hits") - _counter(before, "serve.cache.hits")
    misses = _counter(after, "serve.cache.misses") - _counter(before, "serve.cache.misses")
    out["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    new = [jobs[r["id"]] for r in results if r.get("id") in jobs and r["dedup"] is False]
    out["queue_ms"] = 1e3 * statistics.median([j["queue_seconds"] or 0.0 for j in new] or [0])
    out["exec_ms"] = 1e3 * statistics.median([j["run_seconds"] or 0.0 for j in new] or [0])
    if profile:
        import pstats

        from layers import attribute

        with open(prof_path + ".json") as fh:
            cpu_s = json.load(fh)["cpu_s"]
        out["profile"] = attribute(pstats.Stats(prof_path).stats,
                                   os.path.join(ROOT, "src", "repro"))
        # the daemon profile is timed in thread CPU time, so coverage
        # compares against the daemon's CPU time over the same span
        out["profile"]["wall_s"] = cpu_s
    return out


# ----------------------------------------------------------------------
def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def account(passes: list[dict], stream: list[dict], expected: list | None,
            tally: Tally) -> None:
    """Every stream request is an attempted operation. It fails if it
    ends other than ``done``, has the wrong dedup flag, or its
    ``report.txt`` differs from the recorded bytes (default seed), from
    the request it resubmits, or from the first pass."""
    reference = None
    for p in passes:
        if "error" in p:
            for _ in stream:
                tally.check(False, f"pass did not run: {p['error']}")
            continue
        if not p["clean_exit"] or not p["warm_ok"]:
            tally.fail("daemon warm-up or shutdown failed")
        results = p["results"]
        reports = [digest(r["report.txt"]) if r["state"] == "done" else None
                   for r in results]
        reference = reference or reports
        for i, (req, res) in enumerate(zip(stream, results)):
            name = f"request {i} ({req['kind']} {req['spec']['experiment']})"
            if not tally.check(res["state"] == "done", f"{name}: ended {res['state']}"):
                continue
            original = results[req["of"]] if req["of"] is not None else res
            if res["dedup"] != (req["kind"] == "resubmit"):
                tally.fail(f"{name}: dedup flag is {res['dedup']}")
            elif expected is not None and reports[i] != expected[i]:
                tally.fail(f"{name}: report.txt differs from the recorded bytes")
            elif (res["report.txt"], res["run.json"]) != (
                    original.get("report.txt"), original.get("run.json")):
                tally.fail(f"{name}: artifacts differ from the request it resubmits")
            elif reports[i] != reference[i]:
                tally.fail(f"{name}: report.txt differs between passes")


def sim_counts(p: dict) -> dict:
    """Exact simulation counts from the run manifests of computed jobs."""
    counts = {"events": 0, "effects": 0, "faults": 0}
    names = {"events": "sim.events_processed", "effects": "proc.effects",
             "faults": "net.faults_injected"}
    for r in p["results"]:
        if r["state"] == "done" and not r["dedup"]:
            metrics = json.loads(r["run.json"])["metrics"]
            for key, name in names.items():
                counts[key] += _counter(metrics, name)
    return counts


def service_end_to_end(passes: list[dict], stream: list[dict]) -> dict:
    """Medians over the daemons and percentiles over the pooled
    requests of each kind, each time scaled to reference host speed by
    the calibration its pass took."""
    f = [factor(p["calibration_s"]) for p in passes]
    job = [k * 1e3 * r["latency_s"] for k, p in zip(f, passes)
           for req, r in zip(stream, p["results"]) if req["kind"] == "miss"]
    dedup = [k * 1e3 * r["latency_s"] for k, p in zip(f, passes)
             for req, r in zip(stream, p["results"]) if req["kind"] == "resubmit"]
    print(f"service samples: {len(job)} new-spec requests, {len(dedup)} resubmits, "
          f"{len(passes)} daemons")
    print(f"host speed: calibration factor median {statistics.median(f):.4f} over "
          f"{len(passes)} daemons; uncalibrated run_s median "
          f"{statistics.median(p['run_s'] for p in passes):.4f} s")
    return {
        "setup_s": statistics.median(k * p["setup_s"] for k, p in zip(f, passes)),
        "run_s": statistics.median(k * p["run_s"] for k, p in zip(f, passes)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "job_p50_ms": percentile(job, 50), "job_p90_ms": percentile(job, 90),
        "dedup_p50_ms": percentile(dedup, 50),
    }


def run_service(seed: int, seconds: float, trace: bool, expected: list | None,
                tally: Tally) -> dict:
    stream = make_stream(seed)
    os.makedirs(TMP, exist_ok=True)
    try:
        if not trace:
            passes = repeat_until(seconds, MIN_DAEMONS, lambda: one_pass(stream, False))
            account(passes, stream, expected, tally)
            passes = [p for p in passes if "error" not in p]
            if not passes:
                return {}
            return service_end_to_end(passes, stream)
        reference = one_pass(stream, False)
        traced = one_pass(stream, True)
        account([reference, traced], stream, expected, tally)
        if "error" in reference or "error" in traced:
            return {}
        counts = sim_counts(reference)
        if sim_counts(traced) != counts:
            tally.fail("traced daemon simulated different event/effect counts")
        prof = traced["profile"]
        check_coverage(prof, tally)
        overhead = traced["run_s"] - reference["run_s"]
        print(f"tracing overhead (service): traced run_s {traced['run_s']:.3f} s - "
              f"untraced run_s {reference['run_s']:.3f} s = {overhead:.3f} s "
              f"({traced['run_s'] / reference['run_s']:.2f}x)")
        footprint = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "service", "0", "footprint"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
        probe = json.loads(footprint.stdout.strip().splitlines()[-1])["probe"]
        return layer_metrics([prof], counts, {
            "cache.hit_ratio": reference["cache_hit_ratio"],
            "serve.queue_ms": reference["queue_ms"], "serve.exec_ms": reference["exec_ms"],
            "machine.build_ms": probe["build_ms"],
            "machine.bytes_per_node": probe["bytes_per_node"],
            "tracing.overhead_s": overhead,
        })
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
