"""End-to-end service tests: spec resolution/keying, REST routing, and
the acceptance contract — submitting the same sweep twice returns
bit-identical artifacts with the second submission answered from the
run store (dedup counter increments, no worker-pool dispatch)."""

from __future__ import annotations

import http.client
import io
import json
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.experiments.spec import resolve
from repro.serve.api import ServeApp
from repro.serve.client import ServeClient, ServeError
from repro.serve.executor import ExperimentExecutor
from repro.serve.orchestrator import JobOrchestrator
from repro.serve.server import MAX_BODY_BYTES, ServeServer, build_app
from repro.serve.store import RunStore

#: the smallest real experiment spec (2 sweep points)
TINY_SPEC = {"experiment": "fig8", "params": {"block_sizes": [64]}}


# ----------------------------------------------------------------------
# Spec resolution and run keys
# ----------------------------------------------------------------------
class TestExecutorSpec:
    def test_resolve_quick_matches_cli_quick_args(self):
        from repro.experiments.spec import QUICK_ARGS

        exp_id, kwargs, _ = resolve(
            {"experiment": "fig9", "quick": True}
        )
        assert exp_id == "fig9"
        assert kwargs == QUICK_ARGS["fig9"]

    def test_json_lists_normalize_to_cli_tuples(self):
        # a JSON submission and a CLI-style tuple parameterization are
        # the *same work* and must collapse onto the same run key
        ex = ExperimentExecutor()
        json_spec = {"experiment": "fig8", "params": {"block_sizes": [64, 256]}}
        _, kwargs, _ = resolve(json_spec)
        assert kwargs["block_sizes"] == (64, 256)
        tuple_spec = {"experiment": "fig8",
                      "params": {"block_sizes": (64, 256)}}
        assert ex.key_for(json_spec) == ex.key_for(tuple_spec)

    def test_key_sensitive_to_params_and_obs(self):
        ex = ExperimentExecutor()
        base = ex.key_for(TINY_SPEC)
        assert base != ex.key_for(
            {"experiment": "fig8", "params": {"block_sizes": [128]}}
        )
        assert base != ex.key_for({**TINY_SPEC, "trace": True})
        assert len(base) == 64

    def test_bad_specs_rejected(self):
        ex = ExperimentExecutor()
        for spec in (
            None,
            {},
            {"experiment": "nope"},
            {"experiment": "fig8", "params": {"bogus_param": 1}},
            {"experiment": "fig7", "nodes": 8},  # fig7 is fixed-size
            {"experiment": "fig8", "wat": 1},
            {"experiment": "fig8", "check": ["notachecker"]},
            {"experiment": "fig8", "sample_interval": -1},
            {"experiment": "fig11", "partitions": 2},  # simulation is serial
        ):
            with pytest.raises(ValueError):
                ex.key_for(spec)

    def test_nodes_override_lands_in_kwargs(self):
        _, kwargs, _ = resolve(
            {"experiment": "barrier", "nodes": 16}
        )
        assert kwargs["n_nodes"] == 16


# ----------------------------------------------------------------------
# Routing-level behaviour (no sockets)
# ----------------------------------------------------------------------
@pytest.fixture()
def app(tmp_path):
    app = build_app(
        store_dir=tmp_path / "store", cache_dir=tmp_path / "cache", workers=1
    )
    app.orchestrator.start()
    yield app
    app.orchestrator.shutdown(drain=False, timeout=30.0)


class TestRouting:
    def test_unknown_route_404(self, app):
        assert app.handle("GET", "/nope").status == 404
        assert app.handle("POST", "/healthz").status == 404

    def test_submit_validation_400(self, app):
        bad = json.dumps({"spec": {"experiment": "nope"}}).encode()
        resp = app.handle("POST", "/v1/jobs", bad)
        assert resp.status == 400
        assert "unknown experiment" in resp.json()["error"]
        assert app.handle("POST", "/v1/jobs", b"not json").status == 400
        # the body holds the spec and nothing else
        extra = json.dumps({"spec": TINY_SPEC, "priority": 0}).encode()
        resp = app.handle("POST", "/v1/jobs", extra)
        assert resp.status == 400
        assert "priority" in resp.json()["error"]

    def test_handler_bug_is_500_not_crash(self, app):
        app.orchestrator.queue_depth = lambda: 1 / 0  # sabotage one metrics gauge
        resp = app.handle("GET", "/v1/metrics")
        assert resp.status == 500
        assert "ZeroDivisionError" in resp.json()["error"]

    def test_healthz_reports_version_and_fingerprint(self, app):
        import repro
        from repro.perf.cache import repo_fingerprint

        body = app.handle("GET", "/healthz").json()
        assert body["status"] == "ok"
        assert body["version"] == repro.__version__
        assert body["code_fingerprint"] == repo_fingerprint()
        assert body["jobs"]["queued"] == 0

    def test_prometheus_endpoint_renders_exposition_text(self, app):
        resp = app.handle("GET", "/metrics")
        assert resp.status == 200
        assert resp.content_type.startswith("text/plain; version=0.0.4")
        text = resp.body.decode()
        assert "# TYPE serve_queue_depth gauge" in text
        assert 'serve_jobs{state="queued"} 0' in text
        assert 'serve_job_queue_seconds_bucket{le="+Inf"} 0' in text

    def test_job_events_unknown_job_404(self, app):
        assert app.handle("GET", "/v1/jobs/nope/events").status == 404

    def test_job_events_bad_timeout_400(self, app):
        resp = app.handle("GET", "/v1/jobs/x/events?timeout=soon")
        assert resp.status == 400

    def test_artifacts_of_unfinished_job_409(self, tmp_path):
        # a queued job has no published run yet; the API says so
        # instead of 404ing the job id. Workers never started, so the
        # job stays queued for the duration of the test.
        idle = build_app(
            store_dir=tmp_path / "s2", cache_dir=tmp_path / "c2", workers=1
        )
        job = idle.orchestrator.submit(TINY_SPEC)
        resp = idle.handle("GET", f"/v1/jobs/{job.id}/artifacts")
        assert resp.status == 409


# ----------------------------------------------------------------------
# Full loop over real HTTP with the real executor
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    app = build_app(store_dir=tmp / "store", cache_dir=tmp / "cache", workers=1)
    app.orchestrator.start()
    server = ServeServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    yield app, client
    client.close()
    server.shutdown()
    server.server_close()
    app.orchestrator.shutdown(drain=False, timeout=30.0)


class TestEndToEnd:
    def test_submit_wait_dedup_bit_identical(self, service):
        app, client = service
        first = client.submit(TINY_SPEC)
        assert first["state"] in ("queued", "running")
        first = client.wait(first["id"], timeout=120.0)
        assert first["state"] == "done", first.get("error")
        assert first["dedup"] is False

        executed_before = app.orchestrator.counters["executed"]
        dedup_before = app.orchestrator.counters["dedup_hits"]

        second = client.submit(TINY_SPEC)
        # terminal at submission: served from the run store
        assert second["state"] == "done"
        assert second["dedup"] is True
        assert app.orchestrator.counters["dedup_hits"] == dedup_before + 1
        # no worker-pool dispatch happened for the resubmission
        assert app.orchestrator.counters["executed"] == executed_before

        # artifacts are the same bytes, bit for bit
        for name in ("run.json", "report.txt", "table.json"):
            a = client.fetch(first["id"], name)
            b = client.fetch(second["id"], name)
            assert a == b and len(a) > 0

        # the run manifest is a valid repro-run/1 document
        from repro.obs.export import validate_run_manifest

        manifest = json.loads(client.fetch(first["id"], "run.json"))
        assert validate_run_manifest(manifest) == []
        assert manifest["experiment"] == "fig8"

        # and the table matches a direct in-process run of the driver
        from repro.experiments import ALL_EXPERIMENTS

        direct = ALL_EXPERIMENTS["fig8"](block_sizes=(64,))
        report = client.fetch(first["id"], "report.txt").decode()
        assert report == direct.format_table() + "\n"

    def test_artifact_listing_and_meta(self, service):
        _, client = service
        job = client.submit(TINY_SPEC)  # dedup hit from previous test
        listing = client.artifacts(job["id"])
        assert sorted(listing["artifacts"]) == [
            "report.txt", "run.json", "table.json",
        ]
        assert listing["meta"]["experiment"] == "fig8"

    def test_metrics_surface_serve_counters(self, service):
        _, client = service
        rows = {
            (r["name"], tuple(sorted(r["labels"].items()))): r["value"]
            for r in client.metrics()["rows"]
        }
        assert rows[("serve.queue_depth", ())] == 0
        assert rows[("serve.dedup_hits", ())] >= 1
        assert rows[("serve.store_runs", ())] >= 1
        assert 0.0 < rows[("serve.dedup_hit_ratio", ())] <= 1.0
        assert rows[("serve.jobs", (("state", "done"),))] >= 2
        assert ("serve.cache.hits", ()) in rows

    def test_unknown_job_and_artifact_404(self, service):
        _, client = service
        with pytest.raises(ServeError) as exc:
            client.status("doesnotexist")
        assert exc.value.status == 404
        job = client.submit(TINY_SPEC)
        with pytest.raises(ServeError) as exc:
            client.fetch(job["id"], "nope.bin")
        assert exc.value.status == 404

    def test_cancel_endpoint_roundtrip(self, service):
        _, client = service
        job = client.submit(TINY_SPEC)  # already done via dedup
        cancelled = client.cancel(job["id"])  # idempotent no-op
        assert cancelled["state"] == "done"

    def test_status_carries_dual_clocks_progress_and_trace_id(self, service):
        _, client = service
        spec = {"experiment": "fig8", "params": {"block_sizes": [256]}}
        job = client.submit(spec)
        job = client.wait(job["id"], timeout=120.0)
        assert job["state"] == "done", job.get("error")
        assert job["trace_id"] == job["id"]
        # wall-clock fields, ordered
        assert (
            job["submitted_at"] <= job["started_at"] <= job["finished_at"]
        )
        # monotonic-derived durations
        assert job["queue_seconds"] >= 0
        assert job["run_seconds"] > 0
        # final progress: every sweep point accounted for
        assert job["progress"]["done"] == job["progress"]["total"] > 0

    def test_event_stream_over_http(self, service):
        _, client = service
        spec = {"experiment": "fig8", "params": {"block_sizes": [1024]}}
        job = client.submit(spec)
        events = list(client.events(job["id"], timeout=120.0))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "snapshot"
        assert kinds[-1] == "done"  # server closes at the terminal event
        assert kinds.index("submitted") < kinds.index("started")
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "no progress events on the SSE stream"
        dones = [e["done"] for e in progress]
        assert dones == sorted(dones)  # monotone per-point completion
        assert progress[-1]["done"] == progress[-1]["total"] > 0

    def test_keep_alive_connection_does_not_stall(self, service):
        # a response leaves in one write, so a reused connection never
        # waits for the client's delayed ACK (Nagle's algorithm)
        _, client = service
        url = urlsplit(client.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            t0 = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
            elapsed = time.perf_counter() - t0
            # an SSE stream and a later request share the connection
            job = client.wait(client.submit(TINY_SPEC)["id"], timeout=120.0)
            conn.request("GET", f"/v1/jobs/{job['id']}/events")
            resp = conn.getresponse()
            assert b"event: done" in resp.read()
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        assert elapsed < 0.25

    def test_prometheus_scrape_over_http(self, service):
        _, client = service
        text = client._request("GET", "/metrics").decode()
        assert "# TYPE serve_submitted counter" in text
        assert 'serve_jobs{state="done"}' in text
        # at least one real execution happened: latency histograms filled
        assert 'serve_job_run_seconds_bucket{le="+Inf"}' in text
        assert "serve_job_run_seconds_count" in text
        assert "serve_store_runs" in text
        assert "serve_cache_hits" in text

    def test_trace_artifact_correlates_host_and_sim_spans(self, service):
        from repro.obs.export import HOST_PID

        _, client = service
        job = client.submit({**TINY_SPEC, "trace": True})
        job = client.wait(job["id"], timeout=120.0)
        assert job["state"] == "done", job.get("error")
        trace = json.loads(client.fetch(job["id"], "trace.json"))
        # the document-level correlation key matches the job
        assert trace["trace_id"] == job["trace_id"]
        host = [e for e in trace["traceEvents"] if e["pid"] == HOST_PID]
        sim = [e for e in trace["traceEvents"] if e["pid"] != HOST_PID]
        assert host and sim  # both layers in one trace
        spans = [e for e in host if e["ph"] == "B"]
        names = {e["name"] for e in spans}
        assert "job.queued" in names
        assert any(n.startswith("job.execute:fig8") for n in names)
        # per-sweep-point spans on the host track (sweep-point fn name)
        assert any(n.startswith("measure_point[") for n in names)
        # every host span is stamped with the job's trace id
        assert all(
            e["args"]["trace_id"] == job["trace_id"] for e in spans
        )


# ----------------------------------------------------------------------
# Malformed requests on a raw socket
# ----------------------------------------------------------------------
def _exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes; return everything the server sends back before
    it closes the connection (a hang fails the 3 s socket timeout)."""
    with socket.create_connection(("127.0.0.1", port), timeout=3.0) as sock:
        sock.sendall(request)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with the unread body still queued
        return reply


class TestMalformedContentLength:
    """A body the server cannot read gets an error reply and a closed
    connection, never a hang, a dropped request, or a misparse."""

    @pytest.mark.parametrize("length", ["-1", "abc", "1e3"])
    def test_bad_length_is_400_and_closes(self, service, length):
        app, client = service
        port = urlsplit(client.base_url).port
        reply = _exchange(port, (
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        ).encode())
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert b"Content-Length must be" in reply

    def test_oversized_body_is_413_and_nothing_after_it(self, service):
        # the unread body must not be parsed as the next request: the
        # connection ends after the 413, so the client knows to
        # reconnect instead of waiting for an answer to its next request
        app, client = service
        port = urlsplit(client.base_url).port
        reply = _exchange(port, (
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            '{"spec": '
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        ).encode())
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_chunked_body_is_411_and_nothing_after_it(self, service):
        # the body is not read, so its chunk framing must not be parsed
        # as the next request either
        app, client = service
        port = urlsplit(client.base_url).port
        body = json.dumps({"spec": TINY_SPEC})
        reply = _exchange(port, (
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
            f"{len(body):x}\r\n{body}\r\n0\r\n\r\n"
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        ).encode())
        assert reply.startswith(b"HTTP/1.1 411 ")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1


# ----------------------------------------------------------------------
# Kept-alive connections
# ----------------------------------------------------------------------
def _count_connections(monkeypatch) -> list:
    """Record the address of every TCP connection opened from now on."""
    opened = []
    real = socket.create_connection

    def create_connection(address, *args, **kwargs):
        opened.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return opened


def _serve(app: ServeApp, port: int = 0) -> ServeServer:
    server = ServeServer(("127.0.0.1", port), app)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _stop(server: ServeServer) -> None:
    """Stop the server as the daemon stops, and wait until its
    kept-alive connections have ended."""
    server.shutdown()
    server.server_close()
    server.app.orchestrator.journal.close()
    deadline = time.monotonic() + 5.0
    while server._connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not server._connections


class TestKeptAliveConnections:
    def test_kept_alive_stream_and_large_body_do_not_stall(self, service):
        # with TCP_NODELAY neither an SSE stream nor a body larger than
        # the handler's write buffer waits for the client's delayed ACK
        # (about 40 ms each under Nagle's algorithm)
        _, client = service
        job = client.wait(client.submit(TINY_SPEC)["id"], timeout=120.0)
        url = urlsplit(client.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            t0 = time.perf_counter()
            for _ in range(5):
                conn.request("GET", f"/v1/jobs/{job['id']}/events")
                assert b"event: done" in conn.getresponse().read()
                conn.request("GET", f"/v1/jobs/{job['id']}/artifacts/run.json")
                resp = conn.getresponse()
                assert resp.status == 200
                assert len(resp.read()) > io.DEFAULT_BUFFER_SIZE
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.2

    def test_client_reuses_one_connection(self, service, monkeypatch):
        _, client = service
        opened = _count_connections(monkeypatch)
        own = ServeClient(client.base_url)
        try:
            job = own.submit(TINY_SPEC)
            own.wait(job["id"], timeout=120.0)
            assert own.artifacts(job["id"])["artifacts"]
            for name in ("run.json", "report.txt", "table.json"):
                assert own.fetch(job["id"], name)
        finally:
            own.close()
        assert len(opened) == 1

    def test_client_reconnects(self, service, tmp_path, monkeypatch):
        _, client = service
        opened = _count_connections(monkeypatch)
        own = ServeClient(client.base_url)
        big = {"experiment": "fig8", "params": {"pad": "x" * MAX_BODY_BYTES}}
        try:
            # an answer that says `Connection: close` drops the connection
            assert own.health()["status"] == "ok"
            with pytest.raises(ServeError) as exc:
                own.submit(big)
            assert exc.value.status == 413
            assert own.health()["status"] == "ok"
            assert len(opened) == 2
            # the daemon may answer and close before the client has sent
            # the whole body, which then fails to send: the 413 is still
            # the answer
            real_send = http.client.HTTPConnection.send

            def send(conn, data):
                if len(data) > MAX_BODY_BYTES:
                    raise BrokenPipeError(32, "Broken pipe")
                return real_send(conn, data)

            monkeypatch.setattr(http.client.HTTPConnection, "send", send)
            with pytest.raises(ServeError) as exc:
                own.submit(big)
            assert exc.value.status == 413
            monkeypatch.setattr(http.client.HTTPConnection, "send", real_send)
            assert own.health()["status"] == "ok"
            assert len(opened) == 3
        finally:
            own.close()

        # a daemon restarted on the same port is reached again: the
        # stopped daemon ended the kept-alive connection, so it is
        # replaced and the request sent once more
        first = _serve(build_app(store_dir=tmp_path / "a", cache_dir=tmp_path / "c"))
        own = ServeClient(f"http://127.0.0.1:{first.port}")
        try:
            assert own.health()["status"] == "ok"
            _stop(first)
            restarted = build_app(store_dir=tmp_path / "b", cache_dir=tmp_path / "c")
            job = restarted.orchestrator.submit(TINY_SPEC)  # no workers: stays queued
            second = _serve(restarted, first.port)
            try:
                assert own.status(job.id)["state"] == "queued"
            finally:
                _stop(second)
        finally:
            own.close()
        assert len(opened) == 5

    def test_stream_in_flight_outlives_server_close(self, tmp_path):
        # closing the server stops it reading requests, not answering
        # them: a stream it is sending still ends with the terminal event
        app = build_app(store_dir=tmp_path / "store", cache_dir=tmp_path / "cache")
        server = _serve(app)
        own = ServeClient(f"http://127.0.0.1:{server.port}")
        events: list[str] = []
        try:
            job = own.submit(TINY_SPEC)  # no worker runs it yet
            follower = threading.Thread(target=lambda: events.extend(
                e["event"] for e in own.events(job["id"])))
            follower.start()
            deadline = time.monotonic() + 10.0
            while "submitted" not in events and time.monotonic() < deadline:
                time.sleep(0.01)
            server.shutdown()
            server.server_close()
            app.orchestrator.start()
            follower.join(timeout=60.0)
            assert not follower.is_alive()
        finally:
            own.close()
            app.orchestrator.shutdown(drain=False, timeout=30.0)
            app.orchestrator.journal.close()
        assert events[0] == "snapshot" and events[-1] == "done"

    def test_stream_abandoned_or_nested(self, service):
        _, client = service
        job = client.wait(client.submit(TINY_SPEC)["id"], timeout=120.0)
        own = ServeClient(client.base_url)
        try:
            # leaving a stream early closes its connection mid-body
            for event in own.events(job["id"]):
                assert event["event"] == "snapshot"
                break
            assert own.status(job["id"])["state"] == "done"
            # a call inside the loop does not touch the stream's connection
            seen = [(e["event"], own.status(job["id"])["state"])
                    for e in own.events(job["id"])]
            assert seen[0] == ("snapshot", "done")
            assert seen[-1] == ("done", "done")
            assert own.status(job["id"])["state"] == "done"
        finally:
            own.close()

    def test_client_shared_by_threads(self, service, monkeypatch):
        _, client = service
        job = client.submit(TINY_SPEC)
        opened = _count_connections(monkeypatch)
        own = ServeClient(client.base_url)
        answers, errors = [], []

        def poll() -> None:
            try:
                for _ in range(20):
                    answers.append(own.status(job["id"])["id"])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            own.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == [job["id"]] * 80
        assert 1 <= len(opened) <= 4


def test_stream_cut_mid_chunk_is_oserror():
    # a transport failure reaches the CLI's `... failed:` handler as an
    # OSError, never as http.client's IncompleteRead
    first = b'event: snapshot\ndata: {"event": "snapshot"}\n\n'
    second = b'event: progress\ndata: {"event": "progress"}\n\n'
    reply = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n" % len(first) + first + b"\r\n"
        + b"%x\r\n" % len(second) + second[: len(second) // 2]
    )
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def serve_one() -> None:
            conn, _ = listener.accept()
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(4096)
                conn.sendall(reply)

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        client = ServeClient(
            f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=5.0
        )
        events = []
        with pytest.raises(OSError):
            for event in client.events("job"):
                events.append(event)
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert events == [{"event": "snapshot"}]
