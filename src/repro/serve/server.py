"""The daemon: a stdlib ``ThreadingHTTPServer`` carrying ServeApp.

HTTP threads only parse requests and shovel bytes — every decision
lives in :class:`~repro.serve.api.ServeApp`, and every experiment runs
on the orchestrator's worker threads, so a slow simulation never
blocks health checks or status polls. Streaming responses (the SSE
job-event endpoint) are sent with chunked transfer encoding, one
chunk per event, flushed as they land.

Logging goes through the stdlib ``repro.serve`` logger — every
request is one structured line (method, path, status, duration in
milliseconds) at INFO, ``http.server``'s own chatter at DEBUG —
configured by ``--log-level``/``--log-file`` (stderr by default).

Startup/shutdown contract (``alewife-repro serve``):

1. build the run store, the job journal, the shared run cache, the
   executor, and the orchestrator; **replay the journal** (queued jobs
   from the previous process re-queue, interrupted runs are marked);
   start the workers;
2. serve until SIGINT/SIGTERM;
3. graceful shutdown: stop accepting HTTP (no new connection, and no
   new request on a kept-alive one; a response in flight, such as an
   SSE stream, completes), then ``orchestrator.shutdown(drain=True)``
   — in-flight jobs finish and publish, queued jobs stay queued *and
   journaled*, so the next daemon on this store picks them up exactly
   where this one stopped.
"""

from __future__ import annotations

import logging
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.api import Response, ServeApp
from repro.serve.executor import ExperimentExecutor
from repro.serve.journal import JobJournal, default_journal_path
from repro.serve.orchestrator import JobOrchestrator
from repro.serve.store import RunStore

#: request body cap: job specs are small JSON documents
MAX_BODY_BYTES = 1 << 20

logger = logging.getLogger("repro.serve")


def configure_logging(
    level: str = "info", log_file: str | None = None
) -> None:
    """Point the ``repro.serve`` logger at stderr (or ``log_file``)
    with structured single-line records. Idempotent per process —
    reconfiguring replaces the previous handler."""
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    handler: logging.Handler
    if log_file:
        handler = logging.FileHandler(log_file)
    else:
        handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(levelname)s %(name)s %(message)s"
    ))
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY on each accepted socket: no write waits on Nagle's
    # algorithm for the client's delayed ACK (about 40 ms on a
    # kept-alive connection, for an SSE chunk or a body larger than the
    # write buffer). Writes stay buffered: ``handle_one_request``
    # flushes once per response and ``_send_stream`` once per chunk, so
    # a small response still leaves in one write.
    disable_nagle_algorithm = True
    wbufsize = -1

    # http.server's own request lines (and errors) go to the leveled
    # logger instead of being swallowed or splattered on stderr
    def log_message(self, fmt: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)

    def log_error(self, fmt: str, *args) -> None:
        logger.warning("%s %s", self.address_string(), fmt % args)

    def _respond(self) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        t0 = time.perf_counter()
        length = (self.headers.get("Content-Length") or "0").strip()
        body = None
        if "Transfer-Encoding" in self.headers:
            resp = Response(411, {"error": "send the request body with "
                                           "a Content-Length"})
        elif not (length.isascii() and length.isdigit()):
            resp = Response(400, {"error": "Content-Length must be a "
                                           "non-negative integer"})
        elif int(length) > MAX_BODY_BYTES:
            resp = Response(413, {"error": "request body too large"})
        else:
            body = self.rfile.read(int(length))
            resp = app.handle(self.command, self.path, body)
        try:
            if resp.stream is not None:
                self._send_stream(resp)
            else:
                self.send_response(resp.status)
                self.send_header("Content-Type", resp.content_type)
                self.send_header("Content-Length", str(len(resp.body)))
                if body is None:
                    # the body was not read, so the bytes after these
                    # headers do not start the next request
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(resp.body)
        finally:
            logger.info(
                "request method=%s path=%s status=%d duration_ms=%.1f",
                self.command, self.path, resp.status,
                (time.perf_counter() - t0) * 1e3,
            )

    def _send_stream(self, resp: Response) -> None:
        """Send a streaming response chunk-by-chunk (HTTP/1.1 chunked
        transfer encoding), flushing each chunk so SSE clients see
        events live. A client hanging up just ends the stream."""
        self.send_response(resp.status)
        self.send_header("Content-Type", resp.content_type)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for chunk in resp.stream:
                if not chunk:
                    continue
                self.wfile.write(f"{len(chunk):x}\r\n".encode())
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    do_GET = do_POST = _respond


class ServeServer(ThreadingHTTPServer):
    """HTTP shell owning the app; one daemon thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: ServeApp) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._connections_lock:
            self._connections.discard(request)

    def server_close(self) -> None:
        """Stop listening, and stop reading from every kept-alive
        connection: an idle one ends now (its handler thread reads end
        of file), and a response in flight, such as an SSE stream,
        still completes before its connection ends."""
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile

    @property
    def port(self) -> int:
        return self.server_address[1]


def build_app(
    store_dir: str | None = None,
    cache_dir: str | None = None,
    no_cache: bool = False,
    workers: int = 1,
    jobs: int = 1,
    journal_path: str | None = None,
) -> ServeApp:
    """Wire store + journal + cache + executor + orchestrator into one
    app (workers not yet started). The journal lives next to the run
    store by default, is replayed here so queued jobs from a previous
    daemon survive, and keeps appending for the life of the app."""
    from repro.perf.cache import RunCache

    store = RunStore(store_dir)
    journal = JobJournal(journal_path or default_journal_path(store.root))
    cache = None if no_cache else RunCache(cache_dir)
    executor = ExperimentExecutor(cache=cache, jobs=jobs)
    orchestrator = JobOrchestrator(
        executor, store, workers=workers, journal=journal
    )
    recovered = orchestrator.recover()
    if any(recovered.values()):
        logger.info(
            "journal recovery: %d re-queued, %d interrupted, "
            "%d terminal re-registered",
            recovered["requeued"], recovered["interrupted"],
            recovered["terminal"],
        )
    return ServeApp(orchestrator)


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    store_dir: str | None = None,
    cache_dir: str | None = None,
    no_cache: bool = False,
    workers: int = 1,
    jobs: int = 1,
    log_level: str = "info",
    log_file: str | None = None,
    journal_path: str | None = None,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; returns an exit code."""
    configure_logging(log_level, log_file)
    app = build_app(
        store_dir=store_dir, cache_dir=cache_dir, no_cache=no_cache,
        workers=workers, jobs=jobs, journal_path=journal_path,
    )
    app.orchestrator.start()
    server = ServeServer((host, port), app)
    stop = threading.Event()

    def _signalled(signum, frame) -> None:
        stop.set()
        # shutdown() must come from another thread than serve_forever
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _signalled)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    print(
        f"repro-serve listening on http://{host}:{server.port} "
        f"(store: {app.store.root}, workers: {app.orchestrator.n_workers})",
        flush=True,
    )
    logger.info(
        "listening host=%s port=%d store=%s journal=%s workers=%d",
        host, server.port, app.store.root,
        app.orchestrator.journal.path, app.orchestrator.n_workers,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        print("repro-serve draining in-flight jobs...", flush=True)
        logger.info("draining in-flight jobs")
        app.orchestrator.shutdown(drain=True)
        app.orchestrator.journal.close()
        print("repro-serve stopped", flush=True)
        logger.info("stopped")
    return 0
