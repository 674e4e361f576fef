"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    alewife-repro list
    alewife-repro run fig7
    alewife-repro run all
    alewife-repro run fig9 --nodes 16 --quick
    alewife-repro fig8_accum --metrics-out run.json --trace-out trace.json
    alewife-repro serve --port 8787 --store .repro_store
    alewife-repro submit fig8 --quick --wait --fetch-to out/
    alewife-repro status JOB_ID
    alewife-repro serve tail JOB_ID
    alewife-repro serve tail --all
    alewife-repro fetch JOB_ID run.json --out run.json

The last form is a convenience: an experiment id (``fig8``) or its
module basename (``fig8_accum``) given as the first argument implies
``run``. ``--metrics-out`` writes the machine-readable ``run.json``
manifest (parameters, metrics snapshot, cycle attribution, timings);
``--trace-out`` writes a Perfetto-loadable trace
(https://ui.perfetto.dev); ``--sample-interval N`` records a
time-series sample every N simulated cycles.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.tables import ExperimentResult, ascii_plot
from repro.experiments import ALL_EXPERIMENTS

def _experiment_aliases() -> dict[str, str]:
    """Experiment ids plus their module basenames (``fig8_accum`` →
    ``fig8``), so ``python -m repro.cli fig8_accum ...`` implies
    ``run fig8 ...``."""
    aliases = {exp_id: exp_id for exp_id in ALL_EXPERIMENTS}
    for exp_id, fn in ALL_EXPERIMENTS.items():
        aliases[(fn.__module__ or "").rsplit(".", 1)[-1]] = exp_id
    return aliases


def plot_result(res: ExperimentResult) -> str | None:
    """Render figure-style experiments as ASCII plots (paper axes)."""
    series: dict[str, list[tuple[float, float]]] = {}
    if res.exp_id in ("fig7", "fig8"):
        for r in res.rows:
            series.setdefault(r["implementation"], []).append(
                (r["block_bytes"], r["cycles"])
            )
        return ascii_plot(
            series, logx=True, logy=True,
            title=f"{res.title} — cycles vs block size (log-log)",
        )
    if res.exp_id == "fig9":
        for r in res.rows:
            series.setdefault("hybrid", []).append((r["delay_l"] + 1, r["speedup_hybrid"]))
            series.setdefault("sm-only", []).append((r["delay_l"] + 1, r["speedup_sm"]))
        return ascii_plot(series, title=f"{res.title} — speedup vs delay l")
    if res.exp_id == "fig10":
        for r in res.rows:
            series.setdefault("hybrid", []).append((r["seq_msec"], r["speedup_hybrid"]))
            series.setdefault("sm-only", []).append((r["seq_msec"], r["speedup_sm"]))
        return ascii_plot(
            series, logx=True, title=f"{res.title} — speedup vs problem size"
        )
    if res.exp_id == "faults":
        for r in res.rows:
            series.setdefault(r["workload"], []).append((r["drop_pct"], r["cycles"]))
        return ascii_plot(
            series, title=f"{res.title} — cycles vs drop rate (%)"
        )
    if res.exp_id == "fig11":
        for r in res.rows:
            side = int(r["grid"].split("x")[0])
            series.setdefault("shared-memory", []).append((side, r["cycles_per_iter_sm"]))
            series.setdefault("message-passing", []).append((side, r["cycles_per_iter_mp"]))
        return ascii_plot(
            series, logx=True, logy=True,
            title=f"{res.title} — cycles/iteration vs grid side",
        )
    return None


def experiment_spec(
    exp_id: str,
    quick: bool = False,
    nodes: int | None = None,
    params: dict | None = None,
    trace: bool = False,
    sample_interval: int = 0,
    check: str | None = None,
) -> dict:
    """The spec (:mod:`repro.experiments.spec`) that ``run``'s and
    ``submit``'s flags describe; unset flags stay out of it."""
    spec: dict = {"experiment": exp_id}
    if quick:
        spec["quick"] = True
    if nodes is not None:
        spec["nodes"] = nodes
    if params is not None:
        spec["params"] = params
    if trace:
        spec["trace"] = True
    if sample_interval:
        spec["sample_interval"] = sample_interval
    if check:
        spec["check"] = [k for k in check.split(",") if k]
    return spec


def run_experiment(
    exp_id: str,
    quick: bool = False,
    nodes: int | None = None,
    plot: bool = False,
    fault_rate: float | None = None,
    fault_seed: int | None = None,
    jobs: int | None = None,
    profile: bool = False,
    metrics_out: str | None = None,
    trace_out: str | None = None,
    sample_interval: int = 0,
    trace_kinds: str = "packet,handler,context",
    check: str | None = None,
) -> str:
    import dataclasses

    from repro.experiments import spec as specs

    # the fault flags are the faults experiment's loss_rates/seed params
    params: dict = {}
    if fault_rate is not None:
        params["loss_rates"] = (0.0, fault_rate)
    if fault_seed is not None:
        params["seed"] = fault_seed
    try:
        exp_id, kwargs, obs_cfg = specs.resolve(experiment_spec(
            exp_id, quick, nodes, params or None,
            bool(trace_out), sample_interval, check,
        ))
    except ValueError as exc:
        raise SystemExit(str(exc))
    fn = ALL_EXPERIMENTS[exp_id]
    run_kwargs = dict(kwargs)
    if jobs is not None:
        if jobs < 0:
            raise SystemExit(f"--jobs must be >= 0, got {jobs}")
        # 0 means "pick for me" (cpu count / REPRO_JOBS)
        run_kwargs["jobs"] = jobs if jobs > 0 else None
    observed = bool(metrics_out or trace_out or obs_cfg.sample_interval
                    or obs_cfg.check)
    obs_cfg = dataclasses.replace(
        obs_cfg, trace_kinds=tuple(k for k in trace_kinds.split(",") if k)
    )

    def invoke():
        if profile:
            from repro.perf import run_profiled

            return run_profiled(lambda: fn(**run_kwargs), label=exp_id)
        return fn(**run_kwargs), None

    t_wall = time.time()
    obs_data = None
    if observed:
        from repro.obs.session import session as obs_session

        with obs_session(obs_cfg) as s:
            result, report = invoke()
            obs_data = s.data()
    else:
        result, report = invoke()
    wall = time.time() - t_wall

    out = result.format_table()
    if report is not None:
        out += "\n\n" + report.rstrip()
    if plot:
        fig = plot_result(result)
        if fig is not None:
            out += "\n\n" + fig
    if obs_data is not None:
        artifacts = specs.build_artifacts(
            exp_id, kwargs, result, obs_data, wall, trace=obs_cfg.trace
        )
        out += "\n" + _write_obs_outputs(
            obs_data, artifacts, metrics_out, trace_out
        )
        if obs_cfg.check:
            from repro.check import CheckReport

            report = CheckReport.from_dict(obs_data.get("check") or {})
            out += "\n" + report.summarize()
    return out


def _write_obs_outputs(
    data: dict,
    artifacts: dict[str, bytes],
    metrics_out: str | None,
    trace_out: str | None,
) -> str:
    """Write the asked-for artifacts; returns status lines."""
    from repro.analysis.tables import format_table
    from repro.obs.profiler import BUCKETS

    lines = []
    attr = data.get("cycle_attribution")
    if attr and attr["total_cycles"]:
        total = attr["total_cycles"]
        rows = [{
            "bucket": b,
            "cycles": cycles,
            "share": f"{100.0 * cycles / total:.1f}%",
        } for b in BUCKETS
            if (cycles := sum(rec["buckets"].get(b, 0)
                              for rec in attr["per_node"].values()))]
        lines.append(format_table(
            f"cycle attribution — {total:,} node-cycles over "
            f"{attr['machines']} machine(s)",
            ["bucket", "cycles", "share"], rows))
    if trace_out:
        with open(trace_out, "wb") as fh:
            fh.write(artifacts["trace.json"])
        n = sum(len(r["trace"]) for r in data["records"] if "trace" in r)
        dropped = sum(r.get("trace_dropped", 0) for r in data["records"])
        note = f" ({dropped} events dropped at capture)" if dropped else ""
        lines.append(
            f"wrote {n} trace events -> {trace_out}{note} "
            "(load at https://ui.perfetto.dev)"
        )
    if metrics_out:
        with open(metrics_out, "wb") as fh:
            fh.write(artifacts["run.json"])
        n_rows = len(data["metrics"]["rows"]) if data["metrics"] else 0
        lines.append(f"wrote run manifest ({n_rows} metric rows) -> {metrics_out}")
    if data.get("cache"):
        c = data["cache"]
        lines.append(
            f"run cache: {c.get('hits', 0)} hits, {c.get('misses', 0)} misses "
            f"({c.get('invalidations', 0)} invalidated)"
        )
    return "\n".join(lines)


def run_demo() -> str:
    """An instrumented end-to-end run: 16-node machine, hybrid runtime,
    a fork/join tree, with the tracer and machine report attached."""
    from repro.analysis.report import collect
    from repro.apps.grain import grain_parallel, sequential_cycles
    from repro.machine import Machine, MachineConfig
    from repro.runtime import Runtime
    from repro.trace import Tracer

    m = Machine(MachineConfig(n_nodes=16))
    tracer = Tracer(m, kinds={"packet", "handler"})
    rt = Runtime(m, scheduler="hybrid")
    result, cycles = rt.run_to_completion(
        0, lambda rt, nd: grain_parallel(rt, nd, 9, 100)
    )
    seq = sequential_cycles(9, 100)
    att, won = rt.total_steals()
    out = [
        "demo: grain(n=9, l=100) on 16 nodes, hybrid scheduler",
        f"  result={result}  cycles={cycles:,}  speedup={seq / cycles:.1f}  "
        f"steals={won}/{att}",
        "",
        collect(m).format(),
        "",
        tracer.summarize(),
    ]
    return "\n".join(out)


def print_version() -> int:
    """``--version``: package version plus the current code
    fingerprint (what the run cache and run store key against)."""
    import repro
    from repro.perf.cache import repo_fingerprint

    print(f"alewife-repro {repro.__version__}")
    print(f"code fingerprint: {repo_fingerprint()}")
    return 0


# ----------------------------------------------------------------------
# serve / submit / status / fetch (the repro.serve client surface)
# ----------------------------------------------------------------------
def _build_spec(args: argparse.Namespace) -> dict:
    params = None
    if args.params:
        import json

        try:
            params = json.loads(args.params)
        except ValueError as exc:
            raise SystemExit(f"--params is not valid JSON: {exc}")
    if args.experiment == "fuzz":
        # campaign job: {"fuzz": {"seeds": ..., "budget": ...}}
        for flag in ("quick", "nodes", "trace", "sample_interval", "check"):
            if getattr(args, flag, None):
                raise SystemExit(f"--{flag.replace('_', '-')} does not apply "
                                 "to fuzz campaigns; use --params")
        return {"fuzz": params if args.params else {}}
    return experiment_spec(
        args.experiment, args.quick, args.nodes, params,
        args.trace, args.sample_interval, args.check,
    )


def _job_line(job: dict) -> str:
    wall = ""
    if job.get("run_seconds") is not None:
        wall = f" wall={job['run_seconds']:.2f}s"
    progress = job.get("progress") or {}
    prog = ""
    if progress.get("total"):
        prog = f" progress={progress.get('done', 0)}/{progress['total']}"
    return (
        f"job {job['id']} state={job['state']} "
        f"dedup={str(job['dedup']).lower()}"
        f"{prog}{wall} key={job['key'][:16]}…"
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.server)
    spec = _build_spec(args)
    try:
        job = client.submit(spec)
        print(_job_line(job))
        if args.wait and job["state"] not in ("done", "failed", "cancelled"):
            job = client.wait(job["id"], timeout=args.timeout)
            print(_job_line(job))
        if job["state"] == "failed":
            print(job.get("error") or "job failed", end="")
            return 1
        if args.fetch_to and job["state"] == "done":
            import pathlib

            out = pathlib.Path(args.fetch_to)
            out.mkdir(parents=True, exist_ok=True)
            for name in client.artifacts(job["id"])["artifacts"]:
                (out / name).write_bytes(client.fetch(job["id"], name))
                print(f"fetched {name} -> {out / name}")
    except (ServeError, TimeoutError, OSError) as exc:
        raise SystemExit(f"submit failed: {exc}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.server)
    try:
        if args.job_id:
            print(_job_line(client.status(args.job_id)))
        else:
            health = client.health()
            print(
                f"repro-serve {health['version']} up "
                f"{health['uptime_seconds']:.0f}s — queue depth "
                f"{health['queue_depth']}, jobs {health['jobs']}"
            )
            for job in client.jobs():
                print(_job_line(job))
    except (ServeError, OSError) as exc:
        raise SystemExit(f"status failed: {exc}")
    return 0


def _event_line(event: dict) -> str:
    """One terminal line per SSE event."""
    etype = event.get("event", "message")
    if etype == "snapshot":
        job = event.get("job") or {}
        pos = event.get("queue_position")
        line = f"snapshot job={job.get('id')} state={job.get('state')}"
        if pos:
            line += f" queue_position={pos}"
        progress = job.get("progress")
        if progress:
            line += f" progress={progress.get('done')}/{progress.get('total')}"
        return line
    if etype == "progress":
        line = f"progress {event.get('done')}/{event.get('total')}"
        if event.get("point"):
            line += f" point={event['point']}"
        if event.get("cache_hits"):
            line += f" cache_hits={event['cache_hits']}"
        return line
    if etype == "heartbeat":
        pos = event.get("queue_position")
        return f"heartbeat{f' queue_position={pos}' if pos else ''}"
    parts = [etype]
    for key in ("job", "dedup", "error"):
        value = event.get(key)
        if value not in (None, False, ""):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def cmd_tail(args: argparse.Namespace) -> int:
    """Follow one job's SSE event stream (or, with ``--all``, poll
    every job and print each state/progress change)."""
    from repro.serve.client import (
        TERMINAL_STATES,
        ServeClient,
        ServeError,
    )

    if bool(args.job_id) == bool(args.all):
        raise SystemExit("tail: give a JOB_ID or --all (not both)")
    client = ServeClient(args.server)
    try:
        if args.job_id:
            state = None
            for event in client.events(args.job_id, timeout=args.timeout):
                print(_event_line(event), flush=True)
                if event.get("event") == "snapshot":
                    state = (event.get("job") or {}).get("state")
                elif event.get("event") in TERMINAL_STATES:
                    state = event["event"]
            return 1 if state == "failed" else 0
        seen: dict[str, tuple] = {}
        while True:
            jobs = client.jobs()
            for job in jobs:
                progress = job.get("progress") or {}
                mark = (job["state"], progress.get("done"))
                if seen.get(job["id"]) != mark:
                    seen[job["id"]] = mark
                    print(_job_line(job), flush=True)
            if jobs and all(
                j["state"] in TERMINAL_STATES for j in jobs
            ):
                return 0
            time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0
    except (ServeError, OSError) as exc:
        raise SystemExit(f"tail failed: {exc}")


def cmd_fetch(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.server)
    try:
        blob = client.fetch(args.job_id, args.artifact)
    except (ServeError, OSError) as exc:
        raise SystemExit(f"fetch failed: {exc}")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
        print(f"fetched {args.artifact} -> {args.out}")
    else:
        sys.stdout.write(blob.decode(errors="replace"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alewife-repro",
        description="Reproduce the tables and figures of the PPoPP'93 "
        "Alewife message-passing/shared-memory integration paper.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="list the available experiments")
    sub.add_parser(
        "demo",
        help="run a small instrumented fork/join workload and print the "
        "machine report and a trace summary",
    )
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", choices=[*ALL_EXPERIMENTS, "all"])
    runp.add_argument("--quick", action="store_true", help="CI-sized parameters")
    runp.add_argument("--nodes", type=int, default=None, help="override machine size")
    runp.add_argument("--plot", action="store_true", help="render an ASCII figure too")
    runp.add_argument(
        "--fault-rate", type=float, default=None,
        help="packet drop probability for the faults experiment "
        "(runs loss rates 0 and this value)",
    )
    runp.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault-injection RNG seed for the faults experiment",
    )
    runp.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan sweep points out over N worker processes "
        "(0 = auto; results are byte-identical at any job count)",
    )
    runp.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top functions per experiment",
    )
    runp.add_argument(
        "--metrics-out", default=None, metavar="RUN_JSON",
        help="write the machine-readable run manifest (params, metrics "
        "snapshot, cycle attribution, timings) to this path",
    )
    runp.add_argument(
        "--trace-out", default=None, metavar="TRACE_JSON",
        help="record a trace and write it as Perfetto-loadable Chrome "
        "trace-event JSON (open at https://ui.perfetto.dev)",
    )
    runp.add_argument(
        "--sample-interval", type=int, default=0, metavar="CYCLES",
        help="record a time-series sample (in-flight packets, link "
        "utilization, hit rate, queue depth) every N simulated cycles",
    )
    runp.add_argument(
        "--trace-kinds", default="packet,handler,context", metavar="K1,K2",
        help="comma-separated trace kinds for --trace-out "
        "(default: packet,handler,context)",
    )
    runp.add_argument(
        "--check", default=None, metavar="C1,C2",
        help="attach dynamic checkers (race,coherence,deadlock); "
        "findings are printed, and written into --metrics-out "
        "manifests for 'python -m repro.check' to gate on",
    )
    runp.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run-cache location (default: $REPRO_CACHE_DIR or "
        "'.repro_cache'); hits replay previous deterministic results "
        "bit-identically",
    )
    runp.add_argument(
        "--no-cache", action="store_true",
        help="disable the run cache: recompute every sweep point",
    )
    runp.add_argument(
        "--cache-stats", action="store_true",
        help="print run-cache hit/miss/invalidation counters at the end",
    )

    servep = sub.add_parser(
        "serve",
        help="run the simulation service daemon (REST job API over the "
        "orchestrator + run store; see docs/SERVICE.md)",
    )
    servep.add_argument("--host", default="127.0.0.1")
    servep.add_argument("--port", type=int, default=8787)
    servep.add_argument(
        "--store", default=None, metavar="DIR",
        help="run-store location (default: $REPRO_STORE_DIR or '.repro_store')",
    )
    servep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared run-cache location (default: $REPRO_CACHE_DIR or "
        "'.repro_cache')",
    )
    servep.add_argument("--no-cache", action="store_true",
                        help="run jobs without the point-level run cache")
    servep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent job worker threads (default: 1)",
    )
    servep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="sweep worker-pool width each job may fan out over",
    )
    servep.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="daemon log level (default: info)",
    )
    servep.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="append structured daemon logs here instead of stderr",
    )
    servep.add_argument(
        "--journal", default=None, metavar="PATH",
        help="job journal location (default: <store>/journal.jsonl); "
        "queued jobs are replayed from it on startup",
    )

    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument(
        "--server", default=None, metavar="URL",
        help="service URL (default: $REPRO_SERVE_URL or "
        "http://127.0.0.1:8787)",
    )
    subp = sub.add_parser("submit", parents=[client_common],
                          help="submit an experiment job to the service")
    subp.add_argument("experiment", choices=list(ALL_EXPERIMENTS) + ["fuzz"],
                      help="experiment id, or 'fuzz' for a fuzzing campaign")
    subp.add_argument("--quick", action="store_true", help="CI-sized parameters")
    subp.add_argument("--nodes", type=int, default=None)
    subp.add_argument(
        "--params", default=None, metavar="JSON",
        help="driver kwargs as a JSON object, "
        "e.g. '{\"block_sizes\": [64, 256]}'",
    )
    subp.add_argument("--trace", action="store_true",
                      help="capture a Perfetto trace artifact")
    subp.add_argument("--sample-interval", type=int, default=0, metavar="CYCLES")
    subp.add_argument("--check", default=None, metavar="C1,C2",
                      help="attach dynamic checkers (race,coherence,deadlock)")
    subp.add_argument("--wait", action="store_true",
                      help="follow the job until it finishes")
    subp.add_argument("--timeout", type=float, default=None, metavar="SEC")
    subp.add_argument("--fetch-to", default=None, metavar="DIR",
                      help="after --wait, download every artifact here")

    statp = sub.add_parser("status", parents=[client_common],
                           help="service health and job states")
    statp.add_argument("job_id", nargs="?", default=None)

    tailp = sub.add_parser(
        "tail", parents=[client_common],
        help="follow a job's live event stream (also reachable as "
        "'serve tail'); --all polls every job for state changes",
    )
    tailp.add_argument("job_id", nargs="?", default=None)
    tailp.add_argument("--all", action="store_true",
                       help="follow every job until all are terminal")
    tailp.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="stop following a single job after SEC seconds")
    tailp.add_argument("--poll", type=float, default=1.0, metavar="SEC",
                       help="poll interval for --all (default: 1.0)")

    fetchp = sub.add_parser("fetch", parents=[client_common],
                            help="download one artifact of a finished job")
    fetchp.add_argument("job_id")
    fetchp.add_argument("artifact",
                        help="run.json | report.txt | table.json | trace.json")
    fetchp.add_argument("--out", default=None, metavar="PATH",
                        help="write here instead of stdout")

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--version":
        return print_version()
    # 'python -m repro.cli fig8_accum ...': an experiment id or module
    # basename in subcommand position implies 'run'
    if argv and argv[0] in _experiment_aliases():
        argv = ["run", _experiment_aliases()[argv[0]], *argv[1:]]
    # 'serve tail ...' is the documented spelling of 'tail ...'
    if argv[:2] == ["serve", "tail"]:
        argv = ["tail", *argv[2:]]
    args = parser.parse_args(argv)

    if args.cmd == "list":
        for exp_id, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__module__ or "").rsplit(".", 1)[-1]
            print(f"{exp_id:<8} {doc}")
        return 0

    if args.cmd == "demo":
        print(run_demo())
        return 0

    if args.cmd == "serve":
        from repro.serve.server import serve

        return serve(
            host=args.host, port=args.port, store_dir=args.store,
            cache_dir=args.cache_dir, no_cache=args.no_cache,
            workers=args.workers, jobs=args.jobs,
            log_level=args.log_level, log_file=args.log_file,
            journal_path=args.journal,
        )

    if args.cmd == "submit":
        return cmd_submit(args)
    if args.cmd == "status":
        return cmd_status(args)
    if args.cmd == "tail":
        return cmd_tail(args)
    if args.cmd == "fetch":
        return cmd_fetch(args)

    targets = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.experiment == "all" and (args.metrics_out or args.trace_out):
        raise SystemExit(
            "--metrics-out/--trace-out write one file per run; "
            "pick a single experiment instead of 'all'"
        )
    from repro.perf.cache import RunCache, activate

    cache = None if args.no_cache else RunCache(args.cache_dir)
    with activate(cache):
        for exp_id in targets:
            t0 = time.time()
            print(
                run_experiment(
                    exp_id,
                    quick=args.quick,
                    nodes=args.nodes,
                    plot=args.plot,
                    fault_rate=args.fault_rate,
                    fault_seed=args.fault_seed,
                    jobs=args.jobs,
                    profile=args.profile,
                    metrics_out=args.metrics_out,
                    trace_out=args.trace_out,
                    sample_interval=args.sample_interval,
                    trace_kinds=args.trace_kinds,
                    check=args.check,
                )
            )
            print(f"[{exp_id} took {time.time() - t0:.1f}s wall]\n")
    if args.cache_stats:
        if cache is None:
            print("run cache: disabled (--no-cache)")
        else:
            print(f"run cache [{cache.root}]: {cache.stats.summary()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
