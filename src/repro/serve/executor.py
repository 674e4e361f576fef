"""Turning a job spec into an experiment run and its artifact set.

Specs (``{"experiment": "fig8", "quick": true, ...}``) are resolved by
:func:`repro.experiments.spec.resolve` and their artifacts built by
:func:`repro.experiments.spec.build_artifacts` — the same code
``repro run`` uses, so a job's ``run.json`` and ``trace.json`` match a
direct run's. Resolution is strict: a malformed spec is rejected at
submission time (HTTP 400), not discovered by a failed job. A
``{"fuzz": {...}}`` spec runs a fuzzing campaign instead.

The **run key** is the service-level twin of the run cache's key:

    sha256( descriptor(schema, experiment, sorted kwargs)
            × code_fingerprint(experiment module)
            × repr(ObsConfig) )

Identical submissions from any number of clients therefore collapse
onto one key; editing any code the experiment can reach changes the
fingerprint and honestly re-runs. Execution happens under the shared
:class:`~repro.perf.cache.RunCache` (activated on the worker's
thread), so even two *different* jobs overlapping in sweep points
share point-level results.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable

from repro.serve.orchestrator import JobCancelled

#: bump when the spec → kwargs resolution or artifact set changes
#: incompatibly (orphans every stored run)
EXECUTOR_SCHEMA = 1

#: legal keys inside a {"fuzz": {...}} spec, with bounds-checked types
_FUZZ_KEYS = {
    "seeds": int, "base_seed": int, "budget": (int, float),
    "inject_bug": bool, "minimize": bool,
}


class ExperimentExecutor:
    """Resolve specs to keys and execute them into artifact sets."""

    def __init__(self, cache: Any = None, jobs: int = 1) -> None:
        #: shared RunCache (or None) activated per executing thread
        self.cache = cache
        #: sweep-level worker-pool width handed to experiment drivers
        self.jobs = max(1, int(jobs))

    # -- spec resolution ----------------------------------------------
    def resolve_fuzz(self, spec: dict) -> dict[str, Any]:
        """Validate a ``{"fuzz": {...}}`` spec → campaign kwargs."""
        body = spec.get("fuzz")
        if not isinstance(body, dict):
            raise ValueError("spec 'fuzz' must be an object")
        extra_top = set(spec) - {"fuzz"}
        if extra_top:
            raise ValueError(
                f"fuzz spec takes no other top-level keys: {sorted(extra_top)}"
            )
        unknown = set(body) - set(_FUZZ_KEYS)
        if unknown:
            raise ValueError(f"unknown fuzz keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        for key, typ in _FUZZ_KEYS.items():
            if key not in body:
                continue
            value = body[key]
            if isinstance(value, bool) and typ is not bool:
                raise ValueError(f"fuzz {key!r} must be a number")
            if not isinstance(value, typ):
                raise ValueError(f"fuzz {key!r} has the wrong type")
            kwargs[key] = value
        if kwargs.get("seeds", 1) < 1:
            raise ValueError("fuzz 'seeds' must be >= 1")
        if kwargs.get("budget", 1) <= 0:
            raise ValueError("fuzz 'budget' must be > 0")
        return kwargs

    # -- keying --------------------------------------------------------
    def key_for(self, spec: dict) -> str:
        """The run key: descriptor × code fingerprint × obs key."""
        from repro.perf.cache import code_fingerprint

        if isinstance(spec, dict) and "fuzz" in spec:
            exp_id, kwargs = "fuzz", self.resolve_fuzz(spec)
            module, obs_key = "repro.fuzz.campaign", ""
        else:
            from repro.experiments import ALL_EXPERIMENTS, spec as specs

            exp_id, kwargs, obs_cfg = specs.resolve(spec)
            module, obs_key = ALL_EXPERIMENTS[exp_id].__module__, repr(obs_cfg)
        descriptor = repr((EXECUTOR_SCHEMA, exp_id, sorted(kwargs.items())))
        payload = f"{descriptor}\n{code_fingerprint(module)}\n{obs_key}"
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- execution -----------------------------------------------------
    def execute(
        self, spec: dict,
        should_cancel: Callable[[], bool] = lambda: False,
        progress: Callable[[dict], None] = lambda update: None,
        job_info: dict | None = None,
    ) -> tuple[dict, dict[str, bytes]]:
        """Run the experiment and build its artifacts; returns
        ``(meta, artifacts)`` for :meth:`RunStore.publish`.

        ``progress`` receives aggregated sweep progress
        dicts — ``{"done", "total", "cache_hits", "point"}`` — once
        per completed sweep point, on this thread. The same per-point
        hook doubles as the cooperative cancellation probe, so a
        cancel interrupts between sweep points, not just between
        phases. ``job_info`` carries the service-side correlation
        context (trace id, submission timestamps) stamped into the
        Perfetto trace artifact as host-side spans.
        """
        from repro.experiments import ALL_EXPERIMENTS, spec as specs
        from repro.obs.session import session as obs_session
        from repro.perf import progress as perf_progress
        from repro.perf.cache import activate, code_fingerprint

        if "fuzz" in spec:
            return self._execute_fuzz(spec, should_cancel, progress)

        exp_id, kwargs, obs_cfg = specs.resolve(spec)
        fn = ALL_EXPERIMENTS[exp_id]
        if should_cancel():
            raise JobCancelled()

        # host-side sweep observer: aggregates per-sweep events into
        # job-level progress, records per-point wall times for the
        # trace's host spans, and probes cancellation between points
        tally = {"done": 0, "total": 0, "cache_hits": 0}
        point_log: list[dict[str, Any]] = []

        def on_sweep_event(event: dict) -> None:
            if event["event"] == "sweep_start":
                tally["total"] += event["points"]
            elif event["event"] == "point":
                tally["done"] += 1
                if event.get("cached"):
                    tally["cache_hits"] += 1
                point_log.append({
                    "label": event.get("label", ""),
                    "mono": time.monotonic(),
                    "cached": bool(event.get("cached")),
                })
            if should_cancel():
                raise JobCancelled()
            progress({**tally, "point": event.get("label")})

        t0 = time.time()
        t0_mono = time.monotonic()
        with activate(self.cache):
            cache_before = (
                self.cache.stats.snapshot() if self.cache is not None else None
            )
            with obs_session(obs_cfg) as s, perf_progress.activate(
                on_sweep_event
            ):
                result = fn(**kwargs, jobs=self.jobs)
                data = s.data()
        wall = time.time() - t0
        if should_cancel():
            raise JobCancelled()

        trace_id = (job_info or {}).get("trace_id")
        artifacts = specs.build_artifacts(
            exp_id, kwargs, result, data, wall,
            trace=obs_cfg.trace,
            host_events=_host_trace_events(
                exp_id, job_info, t0_mono, time.monotonic(), point_log
            ) if obs_cfg.trace else None,
            trace_id=trace_id,
        )
        meta = {
            "experiment": exp_id,
            "params": kwargs,
            "wall_seconds": round(wall, 3),
            "fingerprint": code_fingerprint(fn.__module__),
            "obs_key": repr(obs_cfg),
            "trace_id": trace_id,
            "cache": (
                self.cache.stats.delta(cache_before)
                if cache_before is not None
                else None
            ),
        }
        return meta, artifacts

    def _execute_fuzz(
        self, spec: dict,
        should_cancel: Callable[[], bool],
        progress: Callable[[dict], None],
    ) -> tuple[dict, dict[str, bytes]]:
        """Run a fuzzing campaign as a daemon job. Campaign progress
        events fold into the job's SSE progress (seeds done / findings
        so far); the campaign runs with caching disabled (its own
        default) and ``jobs`` from the executor, and its report lands
        as campaign.json / findings.json / report.txt artifacts."""
        from repro.fuzz.campaign import (
            CampaignConfig,
            dump_report,
            format_report,
            run_campaign,
        )
        from repro.experiments.spec import dump_json
        from repro.perf.cache import code_fingerprint

        kwargs = self.resolve_fuzz(spec)
        cfg = CampaignConfig(jobs=self.jobs, corpus_dir=None,
                             bundle_artifacts=False, **kwargs)

        def on_fuzz_event(event: dict) -> None:
            if should_cancel():
                raise JobCancelled()
            progress({
                "done": event["done"], "total": event["total"],
                "findings": event["findings"],
                "point": f"fuzz:{event['phase']}",
            })

        t0 = time.time()
        report = run_campaign(
            cfg, progress=on_fuzz_event, should_cancel=should_cancel
        )
        if should_cancel():
            raise JobCancelled()
        meta = {
            "experiment": "fuzz",
            "params": kwargs,
            "wall_seconds": round(time.time() - t0, 3),
            "fingerprint": code_fingerprint("repro.fuzz.campaign"),
            "obs_key": "",
            "findings": len(report["findings"]),
        }
        artifacts = {
            "report.txt": (format_report(report) + "\n").encode(),
            "campaign.json": dump_report(report),
            "findings.json": dump_json(report["findings"]),
        }
        return meta, artifacts


def _host_trace_events(
    exp_id: str,
    job_info: dict | None,
    t0_mono: float,
    t1_mono: float,
    point_log: list[dict[str, Any]],
) -> list[dict]:
    """Host-side spans for the job's Perfetto trace: the daemon's
    queued wait, the executor's run, and one span per sweep point
    (bounded by consecutive parent-side completion times).

    Timestamps are microseconds of *wall time since submission* on the
    dedicated host process track (since the run began, and with no
    queued span, for a job submitted to an earlier daemon); the
    sim-side tracks stay in simulated cycles. One trace.json then
    shows daemon → orchestrator → executor → sim-engine attribution in
    a single Perfetto load, correlated by the trace id stamped on
    every host event.
    """
    from repro.obs.export import host_span_events

    info = job_info or {}
    submitted, started = info.get("submitted_mono"), info.get("started_mono")
    base = t0_mono if submitted is None else submitted

    def us(mono: float) -> int:
        return max(0, int((mono - base) * 1e6))

    spans: list[dict[str, Any]] = []
    if submitted is not None and started is not None:
        spans.append({
            "name": "job.queued", "tid": 0,
            "ts0": us(submitted), "ts1": us(started),
        })
    spans.append({
        "name": f"job.execute:{exp_id}", "tid": 1,
        "ts0": us(t0_mono), "ts1": us(t1_mono),
    })
    prev = t0_mono
    for point in point_log:
        spans.append({
            "name": point["label"] or "point", "tid": 2,
            "ts0": us(prev), "ts1": us(point["mono"]),
            "args": {"cached": point["cached"]},
        })
        prev = point["mono"]
    return host_span_events(spans, trace_id=info.get("trace_id"))

