"""Stdlib HTTP client for the repro-serve API.

Powers the ``alewife-repro submit / status / fetch`` subcommands and
the tests; any HTTP client (curl, a browser) speaks the same surface —
see docs/SERVICE.md for the raw API.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from typing import Any

SERVE_URL_ENV = "REPRO_SERVE_URL"
DEFAULT_SERVE_URL = "http://127.0.0.1:8787"

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class ServeError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Minimal blocking client over ``urllib``."""

    def __init__(self, base_url: str | None = None, timeout: float = 30.0) -> None:
        self.base_url = (
            base_url or os.environ.get(SERVE_URL_ENV) or DEFAULT_SERVE_URL
        ).rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------
    def _open(self, method: str, path: str, body: dict | None = None):
        """Send one request; returns the open response or raises
        :class:`ServeError` carrying the service's error message."""
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            return urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            try:
                message = json.loads(payload).get(
                    "error", payload.decode(errors="replace")
                )
            except ValueError:
                message = payload.decode(errors="replace")
            raise ServeError(exc.code, message) from None

    def _request(
        self, method: str, path: str, body: dict | None = None,
        raw: bool = False,
    ) -> Any:
        with self._open(method, path, body) as resp:
            payload = resp.read()
            ctype = resp.headers.get("Content-Type", "")
        if not raw and ctype.startswith("application/json"):
            return json.loads(payload)
        return payload

    # -- API -----------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def submit(self, spec: dict) -> dict:
        return self._request("POST", "/v1/jobs", {"spec": spec})

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def artifacts(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/artifacts")

    def fetch(self, job_id: str, name: str) -> bytes:
        """Raw artifact bytes, exactly as published (bit-identical for
        deduplicated resubmissions)."""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/artifacts/{name}", raw=True
        )

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Follow the job's event stream until the server ends it, then
        return the job's status; raises TimeoutError if the job is
        still not terminal after ``timeout`` seconds."""
        for _ in self.events(job_id, timeout=timeout):
            pass
        job = self.status(job_id)
        if job["state"] not in TERMINAL_STATES:
            raise TimeoutError(
                f"job {job_id} still {job['state']} after {timeout}s"
            )
        return job

    def events(self, job_id: str, timeout: float | None = None):
        """Follow the job's live SSE event stream
        (``GET /v1/jobs/<id>/events``), yielding one decoded event
        dict per server-sent event until the job is terminal (the
        server closes the stream) or ``timeout`` seconds pass
        server-side. An idle stream carries a heartbeat every 10 s,
        so a read timeout (``ServeClient(timeout=...)``) above that
        never expires on a live job."""
        path = f"/v1/jobs/{job_id}/events"
        if timeout is not None:
            path += f"?timeout={timeout}"
        with self._open("GET", path) as resp:
            for raw in resp:
                line = raw.decode("utf-8", errors="replace").strip()
                if line.startswith("data:"):
                    try:
                        yield json.loads(line[len("data:"):].strip())
                    except ValueError:
                        continue
