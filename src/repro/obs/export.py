"""Exporters: Perfetto/Chrome trace JSON and the run.json manifest.

``build_perfetto`` turns recorded trace events into the Chrome
trace-event JSON format (the ``traceEvents`` array form), loadable at
https://ui.perfetto.dev or ``chrome://tracing``:

* one *process* per machine (pid = machine index, named by its label),
* one *thread track* per node (tid = node id),
* message-handler executions as duration spans (``ph: "B"/"E"``,
  paired per node from handler entry to handler return),
* thread-context lifetimes as async spans (``ph: "b"/"e"``, paired by
  context id, so overlapping contexts on one node stay readable),
* packets / coherence transactions / effects / faults as instants
  (``ph: "i"``).

Timestamps are simulated cycles written as microseconds — Perfetto's
"us" ruler then reads directly as cycles.

``build_run_manifest`` / ``validate_run_manifest`` define the
machine-readable ``run.json`` contract: the required keys in
:data:`RUN_MANIFEST_REQUIRED` plus the invariant that each node's
cycle-attribution buckets sum to its total cycles. CI runs
``python -m repro.obs.validate run.json`` to enforce it.
"""

from __future__ import annotations

from typing import Any, Iterable

#: keys every run.json must carry (CI-enforced)
RUN_MANIFEST_REQUIRED = (
    "schema",
    "experiment",
    "params",
    "timings",
    "metrics",
    "cycle_attribution",
)

RUN_MANIFEST_SCHEMA = "repro-run/1"

#: trace-event kinds rendered as instants (everything not a span)
_INSTANT_KINDS = {"packet", "txn", "effect", "fault", "check"}


def _as_tuples(events: Iterable[Any]) -> list[tuple]:
    """Normalize TraceEvent objects / (time,node,kind,what,detail)
    tuples / to_jsonl dicts into plain tuples."""
    out = []
    for ev in events:
        if isinstance(ev, (tuple, list)):
            out.append(tuple(ev))
        elif isinstance(ev, dict):
            out.append(
                (ev["time"], ev["node"], ev["kind"], ev["what"], ev.get("detail", ""))
            )
        else:
            out.append((ev.time, ev.node, ev.kind, ev.what, ev.detail))
    return out


def events_to_chrome(
    events: Iterable[Any], pid: int = 0, process_name: str = ""
) -> list[dict]:
    """Convert one machine's trace events into Chrome trace events.

    Every emitted event carries the schema-required ``ph``, ``ts``,
    ``pid``, ``tid``, and ``name`` keys.
    """
    evs = _as_tuples(events)
    out: list[dict] = []
    if process_name:
        out.append({
            "ph": "M", "ts": 0, "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": process_name},
        })
    nodes = sorted({e[1] for e in evs})
    for node in nodes:
        out.append({
            "ph": "M", "ts": 0, "pid": pid, "tid": node,
            "name": "thread_name", "args": {"name": f"node {node}"},
        })
    open_handler: dict[int, tuple[int, str]] = {}  # node -> (ts, name)
    open_ctx: dict[str, tuple] = {}  # cid -> (ts, node, label)
    max_ts = 0
    for time, node, kind, what, detail in evs:
        max_ts = max(max_ts, time)
        if kind == "handler":
            if detail == "return":
                started = open_handler.pop(node, None)
                if started is None:
                    continue  # return without a captured entry: skip
                ts0, name = started
                out.append({"ph": "B", "ts": ts0, "pid": pid, "tid": node,
                            "name": name, "cat": "handler"})
                out.append({"ph": "E", "ts": time, "pid": pid, "tid": node,
                            "name": name, "cat": "handler"})
            else:
                open_handler[node] = (time, what)
        elif kind == "context":
            cid, _, label = detail.partition(":")
            name = label or "ctx"
            if what == "spawn":
                open_ctx[cid] = (time, node, name)
            elif what == "finish":
                started = open_ctx.pop(cid, None)
                if started is None:
                    continue  # finish of a pre-trace context: skip
                ts0, node0, name0 = started
                common = {"cat": "context", "id": cid, "pid": pid, "name": name0}
                out.append({"ph": "b", "ts": ts0, "tid": node0, **common})
                out.append({"ph": "e", "ts": time, "tid": node, **common})
        elif kind in _INSTANT_KINDS:
            out.append({
                "ph": "i", "ts": time, "pid": pid, "tid": node,
                "name": what, "cat": kind, "s": "t",
                "args": {"detail": detail},
            })
    # auto-close anything still open when the capture ended
    for node, (ts0, name) in open_handler.items():
        out.append({"ph": "B", "ts": ts0, "pid": pid, "tid": node,
                    "name": name, "cat": "handler"})
        out.append({"ph": "E", "ts": max_ts, "pid": pid, "tid": node,
                    "name": name, "cat": "handler"})
    for cid, (ts0, node0, name0) in open_ctx.items():
        common = {"cat": "context", "id": cid, "pid": pid, "name": name0}
        out.append({"ph": "b", "ts": ts0, "tid": node0, **common})
        out.append({"ph": "e", "ts": max_ts, "tid": node0, **common})
    return out


#: pid of the host-side track (far above any machine index)
HOST_PID = 1_000_000


def host_span_events(
    spans: list[dict],
    pid: int = HOST_PID,
    process_name: str = "host: repro-serve",
    trace_id: str | None = None,
) -> list[dict]:
    """Host-side (wall-clock) duration spans as Chrome trace events.

    Each span dict carries ``name``, ``tid``, ``ts0``/``ts1`` (already
    in the track's microsecond timeline) and optional ``args``. The
    ``trace_id`` is stamped into every event's args — the correlation
    key shared with the journal and the job status JSON.
    """
    tid_names = {0: "daemon", 1: "executor", 2: "sweep points"}
    out: list[dict] = [{
        "ph": "M", "ts": 0, "pid": pid, "tid": 0,
        "name": "process_name",
        "args": {"name": process_name + (f" trace={trace_id}" if trace_id else "")},
    }]
    for tid in sorted({s["tid"] for s in spans}):
        out.append({
            "ph": "M", "ts": 0, "pid": pid, "tid": tid,
            "name": "thread_name",
            "args": {"name": tid_names.get(tid, f"host {tid}")},
        })
    for span in spans:
        args = dict(span.get("args") or {})
        if trace_id:
            args["trace_id"] = trace_id
        common = {
            "pid": pid, "tid": span["tid"], "name": span["name"],
            "cat": "host", "args": args,
        }
        out.append({"ph": "B", "ts": span["ts0"], **common})
        out.append({"ph": "E", "ts": span["ts1"], **common})
    return out


def build_perfetto(
    records: list[dict],
    host_events: list[dict] | None = None,
    trace_id: str | None = None,
) -> dict:
    """The session records' traces as one Perfetto-loadable document
    (pid = machine index), ready for ``json.dump``.

    ``host_events`` (already Chrome-format, e.g. from
    :func:`host_span_events`) are appended on their own process track,
    so service-side wall-clock spans and sim-side cycle spans load as
    one correlated trace; ``trace_id`` is recorded at the document
    top level as the cross-layer correlation key.
    """
    trace_events: list[dict] = []
    for pid, rec in enumerate(records):
        if "trace" not in rec:
            continue
        trace_events.extend(
            events_to_chrome(
                rec["trace"], pid=pid, process_name=rec.get("label", f"m{pid}")
            )
        )
    trace_events.extend(host_events or [])
    doc = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if trace_id:
        doc["trace_id"] = trace_id
    return doc


# ----------------------------------------------------------------------
# run.json manifest
# ----------------------------------------------------------------------
def validate_run_manifest(manifest: dict) -> list[str]:
    """Check the run.json contract; returns a list of problems
    (empty = valid)."""
    errors = [
        f"missing required key {key!r}"
        for key in RUN_MANIFEST_REQUIRED
        if key not in manifest
    ]
    if errors:
        return errors
    if manifest["schema"] != RUN_MANIFEST_SCHEMA:
        errors.append(
            f"schema is {manifest['schema']!r}, expected {RUN_MANIFEST_SCHEMA!r}"
        )
    attr = manifest["cycle_attribution"]
    if attr is not None:
        per_node = attr.get("per_node")
        if per_node is None:
            errors.append("cycle_attribution has no per_node breakdown")
        else:
            for node, rec in per_node.items():
                got = sum(rec["buckets"].values())
                if got != rec["total"]:
                    errors.append(
                        f"node {node}: buckets sum to {got}, total is {rec['total']}"
                    )
            total = sum(rec["total"] for rec in per_node.values())
            if total != attr.get("total_cycles"):
                errors.append(
                    f"per-node totals sum to {total}, "
                    f"total_cycles is {attr.get('total_cycles')}"
                )
    return errors


def build_run_manifest(
    experiment: str,
    params: dict,
    timings: dict,
    metrics: dict | None,
    cycle_attribution: dict | None,
    **extra: Any,
) -> dict:
    """Assemble and validate a run.json manifest without writing it."""
    manifest = {
        "schema": RUN_MANIFEST_SCHEMA,
        "experiment": experiment,
        "params": params,
        "timings": timings,
        "metrics": metrics,
        "cycle_attribution": cycle_attribution,
        **extra,
    }
    errors = validate_run_manifest(manifest)
    if errors:
        raise ValueError(f"invalid run manifest: {errors}")
    return manifest

