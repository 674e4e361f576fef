"""REST routes and handlers, independent of the HTTP plumbing.

:class:`ServeApp` owns the orchestrator, store, and executor, and maps
``(method, path)`` onto handlers returning plain responses — the
``ThreadingHTTPServer`` handler in :mod:`repro.serve.server` is a thin
byte-shoveling shell around :meth:`ServeApp.handle`, and the tests
drive the routes directly.

Routes::

    GET  /healthz                      liveness + version + fingerprint
    GET  /metrics                      Prometheus text exposition
    GET  /v1/metrics                   serve.* metrics snapshot (JSON)
    GET  /v1/jobs                      all jobs (newest last)
    POST /v1/jobs                      submit {"spec": {...}}
    GET  /v1/jobs/<id>                 one job
    GET  /v1/jobs/<id>/events          SSE live lifecycle/progress stream
    POST /v1/jobs/<id>/cancel          cancel (idempotent)
    GET  /v1/jobs/<id>/artifacts       artifact names of a done job
    GET  /v1/jobs/<id>/artifacts/<n>   raw artifact bytes

The ``serve.*`` metrics ride the same
:class:`~repro.obs.metrics.MetricsRegistry` machinery the simulator
uses — queue depth, jobs by state, submission/dedup counters, the
dedup hit ratio, queue/run latency histograms, store size, and the
shared run cache's counters — registered once
(:meth:`_registry`) and rendered two ways: the JSON snapshot at
``/v1/metrics`` and Prometheus exposition text at ``/metrics``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterator

from repro import __version__
from repro.perf.store import objects
from repro.serve.orchestrator import JobOrchestrator, OrchestratorClosed
from repro.serve.store import ARTIFACT_TYPES, RunStore

JSON_TYPE = "application/json"
SSE_TYPE = "text/event-stream; charset=utf-8"


class Response:
    """One HTTP response: status, body bytes, content type — or, when
    ``stream`` is set, an iterator of body chunks the server sends
    with chunked transfer encoding (the SSE endpoint)."""

    def __init__(
        self, status: int, body: Any, content_type: str = JSON_TYPE,
        stream: Iterator[bytes] | None = None,
    ) -> None:
        self.status = status
        self.content_type = content_type
        self.stream = stream
        if stream is not None:
            self.body = b""
        elif isinstance(body, bytes):
            self.body = body
        else:
            self.body = json.dumps(body, indent=1, default=str).encode() + b"\n"

    def json(self) -> Any:
        """Decode the body (test convenience)."""
        return json.loads(self.body)


def _error(status: int, message: str) -> Response:
    return Response(status, {"error": message})


class ServeApp:
    """The service behind the REST surface."""

    def __init__(self, orchestrator: JobOrchestrator) -> None:
        self.orchestrator = orchestrator
        self.store: RunStore = orchestrator.store
        self.started = time.time()

    # -- handlers ------------------------------------------------------
    def healthz(self) -> Response:
        from repro.perf.cache import repo_fingerprint

        return Response(200, {
            "status": "ok",
            "version": __version__,
            "code_fingerprint": repo_fingerprint(),
            "uptime_seconds": round(time.time() - self.started, 3),
            "queue_depth": self.orchestrator.queue_depth(),
            "jobs": self.orchestrator.jobs_by_state(),
            "counters": dict(self.orchestrator.counters),
        })

    def _registry(self):
        """The service metrics registry: orchestrator instruments
        (queue depth, jobs by state, counters, dedup hit ratio,
        latency histograms), store gauges, and run-cache counters —
        built fresh per scrape so every read is current."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        self.orchestrator.register_metrics(reg)
        runs = self.store.runs
        reg.gauge("serve.store_runs", lambda: sum(
            self.store.get(obj.key) is not None for obj in objects(runs)
        ))
        reg.gauge("serve.store_bytes", lambda: sum(
            obj.nbytes for obj in objects(runs)
        ))
        cache = getattr(self.orchestrator.executor, "cache", None)
        if cache is not None:
            for field in cache.stats.snapshot():
                reg.counter(
                    f"serve.cache.{field}",
                    lambda f=field, c=cache: c.stats.snapshot()[f],
                )
        from repro.fuzz.campaign import register_metrics as fuzz_metrics

        fuzz_metrics(reg)
        return reg

    def metrics(self) -> Response:
        return Response(200, self._registry().collect().as_dict())

    def metrics_prometheus(self) -> Response:
        from repro.obs.promexport import CONTENT_TYPE, render_prometheus

        text = render_prometheus(self._registry().collect())
        return Response(200, text.encode(), CONTENT_TYPE)

    def job_events(self, job_id: str, timeout: float | None = None) -> Response:
        """SSE stream of one job's lifecycle: a snapshot (including
        queue position while queued), then every event — started,
        per-sweep-point progress, terminal — as it lands."""
        orch = self.orchestrator
        if orch.get(job_id) is None:
            return _error(404, f"no job {job_id!r}")

        def sse() -> Iterator[bytes]:
            for event in orch.stream_events(job_id, timeout=timeout):
                payload = json.dumps(event, default=str)
                yield (
                    f"event: {event.get('event', 'message')}\n"
                    f"data: {payload}\n\n"
                ).encode()

        return Response(200, b"", SSE_TYPE, stream=sse())

    def submit(self, body: dict) -> Response:
        if not isinstance(body, dict):
            return _error(400, "request body must be a JSON object")
        unknown = sorted(set(body) - {"spec"})
        if unknown:
            return _error(400, f"unknown request body keys: {unknown}")
        try:
            job = self.orchestrator.submit(body.get("spec"))
        except ValueError as exc:
            return _error(400, str(exc))
        except OrchestratorClosed as exc:
            return _error(503, str(exc))
        return Response(202 if not job.dedup else 200, job.as_dict())

    def list_jobs(self) -> Response:
        return Response(
            200, {"jobs": [j.as_dict() for j in self.orchestrator.jobs()]}
        )

    def job_status(self, job_id: str) -> Response:
        job = self.orchestrator.get(job_id)
        if job is None:
            return _error(404, f"no job {job_id!r}")
        return Response(200, job.as_dict())

    def cancel(self, job_id: str) -> Response:
        try:
            job = self.orchestrator.cancel(job_id)
        except KeyError as exc:
            return _error(404, str(exc))
        return Response(200, job.as_dict())

    def artifacts(self, job_id: str) -> Response:
        job = self.orchestrator.get(job_id)
        if job is None:
            return _error(404, f"no job {job_id!r}")
        entry = self.store.get(job.key)
        if entry is None:
            return _error(
                409, f"job {job_id!r} is {job.state}; no artifacts published"
            )
        return Response(200, {
            "job": job.id,
            "key": job.key,
            "artifacts": entry["artifacts"],
            "meta": {k: v for k, v in entry.items() if k != "artifacts"},
        })

    def artifact(self, job_id: str, name: str) -> Response:
        job = self.orchestrator.get(job_id)
        if job is None:
            return _error(404, f"no job {job_id!r}")
        path = self.store.artifact_path(job.key, name)
        if path is None:
            return _error(404, f"job {job_id!r} has no artifact {name!r}")
        return Response(
            200,
            path.read_bytes(),
            ARTIFACT_TYPES.get(name, "application/octet-stream"),
        )

    # -- routing -------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        """Dispatch one request; never raises (500 on handler bugs)."""
        try:
            return self._route(method, path, body)
        except Exception as exc:  # the daemon must outlive a bad request
            return _error(500, f"{type(exc).__name__}: {exc}")

    def _route(self, method: str, path: str, body: bytes) -> Response:
        from urllib.parse import parse_qs, urlsplit

        split = urlsplit(path)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        parts = [p for p in split.path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return self.healthz()
        if method == "GET" and parts == ["metrics"]:
            return self.metrics_prometheus()
        if method == "GET" and parts == ["v1", "metrics"]:
            return self.metrics()
        if parts[:2] == ["v1", "jobs"]:
            rest = parts[2:]
            if method == "POST" and not rest:
                try:
                    payload = json.loads(body or b"{}")
                except ValueError:
                    return _error(400, "request body is not valid JSON")
                return self.submit(payload)
            if method == "GET" and not rest:
                return self.list_jobs()
            if method == "GET" and len(rest) == 1:
                return self.job_status(rest[0])
            if method == "GET" and len(rest) == 2 and rest[1] == "events":
                timeout = None
                if "timeout" in query:
                    try:
                        timeout = float(query["timeout"])
                    except ValueError:
                        return _error(400, "'timeout' must be a number")
                return self.job_events(rest[0], timeout=timeout)
            if method == "POST" and len(rest) == 2 and rest[1] == "cancel":
                return self.cancel(rest[0])
            if method == "GET" and len(rest) == 2 and rest[1] == "artifacts":
                return self.artifacts(rest[0])
            if method == "GET" and len(rest) == 3 and rest[1] == "artifacts":
                return self.artifact(rest[0], rest[2])
        return _error(404, f"no route {method} {path}")
