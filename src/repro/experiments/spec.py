"""Experiment specs: the one resolver and the one artifact builder.

A *spec* is the plain-JSON description of one experiment run::

    {
      "experiment": "fig8",          # required, one of ALL_EXPERIMENTS
      "quick": true,                 # start from QUICK_ARGS
      "nodes": 16,                   # machine-size override (where legal)
      "params": {"block_sizes": [64, 256]},   # driver kwargs
      "trace": false,                # capture a Perfetto trace artifact
      "sample_interval": 0,          # time-series sampling period
      "check": ["race", "deadlock"]  # dynamic checkers to attach
    }

``repro run`` builds a spec from its flags and the ``repro.serve``
executor receives one from a client. Both resolve it with
:func:`resolve` and turn the finished run into bytes with
:func:`build_artifacts`, so a run's ``run.json`` and ``trace.json`` are
the same whichever of them computed it.

Resolution is strict: unknown experiments, unknown parameter names and
malformed values raise ``ValueError``. Lists arriving from JSON become
tuples, so a JSON spec resolves to exactly the kwargs of the tuple
parameterizations below (and the serve run key is canonical).
"""

from __future__ import annotations

import inspect
import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.tables import ExperimentResult
    from repro.obs.session import ObsConfig

#: trimmed parameterizations for ``"quick": true`` (CI-sized runs)
QUICK_ARGS = {
    "barrier": dict(n_nodes=16),
    "rti": dict(n_nodes=16, trials=3),
    "fig7": dict(block_sizes=(64, 256, 1024)),
    "fig8": dict(block_sizes=(64, 256, 1024)),
    "fig9": dict(delays=(0, 1000), depth=9, n_nodes=16),
    "fig10": dict(tols=(3e-3, 1e-3), n_nodes=16),
    "fig11": dict(grid_sizes=(32, 64), n_nodes=16, iters=3),
    "faults": dict(loss_rates=(0.0, 0.05), nbytes=512, n_nodes=16, episodes=2),
}

#: the keyword each experiment takes its machine size by (``"nodes"``)
NODES_KW = {exp_id: "n_nodes" for exp_id in
            ("barrier", "rti", "fig9", "fig10", "fig11", "faults")}

_SPEC_KEYS = {
    "experiment", "quick", "nodes", "params", "trace", "sample_interval",
    "check",
}


def _tuples(value: Any) -> Any:
    """JSON params → canonical kwargs (lists become tuples, recursively)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    return value


def resolve(spec: dict) -> tuple[str, dict[str, Any], "ObsConfig"]:
    """Validate ``spec`` → (experiment id, driver kwargs, ObsConfig).

    The kwargs never hold ``jobs``: how many processes compute a run
    is not part of what it computes."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.obs.session import ObsConfig

    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    if "fuzz" in spec:
        raise ValueError("fuzz specs resolve via resolve_fuzz")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    exp_id = spec.get("experiment")
    if exp_id not in ALL_EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {exp_id!r}; one of {sorted(ALL_EXPERIMENTS)}"
        )
    signature = inspect.signature(ALL_EXPERIMENTS[exp_id]).parameters
    kwargs: dict[str, Any] = dict(QUICK_ARGS[exp_id]) if spec.get("quick") else {}
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError("spec 'params' must be an object")
    legal = set(signature) - {"jobs"}
    bad = set(params) - legal
    if bad:
        raise ValueError(
            f"experiment {exp_id!r} has no parameters {sorted(bad)}; "
            f"legal: {sorted(legal)}"
        )
    kwargs.update(_tuples(params))
    nodes = spec.get("nodes")
    nodes_kw = NODES_KW.get(exp_id)
    if nodes is not None:
        if nodes_kw is None:
            raise ValueError(f"experiment {exp_id!r} does not take a node count")
        kwargs[nodes_kw] = int(nodes)
    sample_interval = int(spec.get("sample_interval") or 0)
    if sample_interval < 0:
        raise ValueError("'sample_interval' must be >= 0")
    checks: tuple[str, ...] = ()
    if spec.get("check"):
        from repro.check import validate_checks

        checks = validate_checks(spec["check"])
    obs_cfg = ObsConfig(
        sample_interval=sample_interval,
        trace=bool(spec.get("trace")),
        check=checks,
    )
    return exp_id, kwargs, obs_cfg


def dump_json(doc: Any) -> bytes:
    """An artifact's JSON bytes (tuples are written as lists)."""
    return json.dumps(doc, indent=1, default=str).encode() + b"\n"


def build_artifacts(
    exp_id: str,
    kwargs: dict[str, Any],
    result: "ExperimentResult",
    data: dict,
    wall: float,
    trace: bool = False,
    host_events: list[dict] | None = None,
    trace_id: str | None = None,
) -> dict[str, bytes]:
    """A finished run as its artifact set: ``report.txt``,
    ``table.json``, ``run.json`` and (with ``trace``) ``trace.json``.

    ``kwargs`` are the resolved driver kwargs (the manifest's
    ``params``), ``data`` the run's observation session
    (:meth:`~repro.obs.session.ObsSession.data`) and ``wall`` its wall
    seconds. ``host_events``/``trace_id`` add the service's host-side
    spans to the trace."""
    from repro.obs.export import build_perfetto, build_run_manifest

    records = data["records"]
    manifest = build_run_manifest(
        experiment=exp_id,
        params=kwargs,
        timings={
            "wall_seconds": round(wall, 3),
            "machines": len(records),
            "simulated_cycles": sum(r["cycles"] for r in records),
        },
        metrics=data["metrics"],
        cycle_attribution=data["cycle_attribution"],
        samples=[r["samples"] for r in records if "samples" in r],
        **{k: data[k] for k in ("check", "cache") if data.get(k) is not None},
    )
    table = {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
    }
    artifacts = {
        "report.txt": (result.format_table() + "\n").encode(),
        "table.json": dump_json(table),
        "run.json": dump_json(manifest),
    }
    if trace:
        artifacts["trace.json"] = dump_json(
            build_perfetto(records, host_events=host_events, trace_id=trace_id)
        )
    return artifacts
