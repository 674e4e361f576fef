"""Stdlib HTTP client for the repro-serve API.

Powers the ``alewife-repro submit / status / fetch`` subcommands and
the tests; any HTTP client (curl, a browser) speaks the same surface —
see docs/SERVICE.md for the raw API.

Calls reuse kept-alive ``http.client`` connections. A call takes an
idle connection from the client's pool, or opens one, and gives it
back once the response body is read to its end, so a client used by
one thread holds one connection and one shared by N threads at most N.
Every failure is a :class:`ServeError` (the daemon answered with a
non-2xx status) or an :class:`OSError` (the transport failed).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator
from urllib.parse import urlsplit

SERVE_URL_ENV = "REPRO_SERVE_URL"
DEFAULT_SERVE_URL = "http://127.0.0.1:8787"

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class ServeError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def _error_message(payload: bytes) -> str:
    try:
        return json.loads(payload).get("error", payload.decode(errors="replace"))
    except ValueError:
        return payload.decode(errors="replace")


class ServeClient:
    """Minimal blocking client over kept-alive ``http.client``
    connections; safe to share between threads."""

    def __init__(self, base_url: str | None = None, timeout: float = 30.0) -> None:
        self.base_url = (
            base_url or os.environ.get(SERVE_URL_ENV) or DEFAULT_SERVE_URL
        ).rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// URL: {self.base_url!r}")
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- plumbing ------------------------------------------------------
    @contextmanager
    def _response(
        self, method: str, path: str, body: dict | None = None
    ) -> Iterator[http.client.HTTPResponse]:
        """The response to one request, its body left for the block to
        read. The connection returns to the pool once the body is read
        to its end and closes otherwise (an error, an abandoned
        stream). A non-2xx answer raises :class:`ServeError` carrying
        the service's error message; a malformed or cut-off answer
        raises :class:`ConnectionError`."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
        resp = None
        try:
            resp = self._send(conn, method, path, body)
            if not 200 <= resp.status < 300:
                raise ServeError(resp.status, _error_message(resp.read()))
            yield resp
        except http.client.HTTPException as exc:
            raise ConnectionError(f"{self.base_url}: {exc!r}") from exc
        finally:
            if resp is not None and resp.isclosed():
                with self._lock:
                    self._idle.append(conn)
            else:
                conn.close()

    def _send(
        self, conn: http.client.HTTPConnection, method: str, path: str,
        body: dict | None,
    ) -> http.client.HTTPResponse:
        """Send one request on ``conn`` and read the response head. A
        kept-alive connection the daemon has closed (it restarted, or
        dropped the idle socket) fails before any response byte
        arrives; it is replaced and the request sent once more."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        while True:
            reused = conn.sock is not None
            try:
                try:
                    conn.request(method, self._prefix + path, data, headers)
                except ConnectionError:
                    if conn.sock is None:
                        raise
                    # the daemon may have answered before reading the
                    # whole body (a 413) and closed: read that answer
                return conn.getresponse()
            except ConnectionError:
                conn.close()  # its next request opens a new socket
                if not reused:
                    raise

    def _request(
        self, method: str, path: str, body: dict | None = None,
        raw: bool = False,
    ) -> Any:
        with self._response(method, path, body) as resp:
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
        server ends the stream) or ``timeout`` seconds pass
        server-side. An idle stream carries a heartbeat every 10 s,
        so a read timeout (``ServeClient(timeout=...)``) above that
        never expires on a live job. The stream holds its connection
        until the server ends it: a call made inside the loop uses
        another, and a stream left early closes its own."""
        path = f"/v1/jobs/{job_id}/events"
        if timeout is not None:
            path += f"?timeout={timeout}"
        with self._response("GET", path) as resp:
            for raw in resp:
                line = raw.decode("utf-8", errors="replace").strip()
                if line.startswith("data:"):
                    try:
                        yield json.loads(line[len("data:"):].strip())
                    except ValueError:
                        continue
