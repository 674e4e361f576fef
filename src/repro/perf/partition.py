"""Partitioned parallel simulation: node-sharded engines with
conservative lookahead.

One machine is split across worker processes by contiguous node
ranges.  Every worker builds the *complete* machine from the same
config (full replica — caches and directories are sparse dicts, so
the non-owned replicas stay cold and cheap) but only its own nodes'
processors execute; the rest are inert.  Each worker drives its own
:class:`~repro.sim.engine.Simulator` over bounded-lag *windows*:

    window = [S, S + L - 1]      (inclusive)

where ``S`` is the global minimum next-event time across shards (so
idle gaps — e.g. a macro compute phase — are skipped in one hop) and
``L`` is the fabric's minimum cross-shard delivery latency::

    L = injection_latency + hop_latency        (>= 1 hop, no body)

A packet sent at cycle ``s >= S`` arrives no earlier than ``s + L >
S + L - 1``, i.e. strictly after the window in which it was sent —
so exchanging cross-shard packets only at window barriers can never
deliver one late.  The coordinator routes each shard's egress records
to the destination shard, sorted by ``(send_cycle, src_shard, seq)``
(the ordered-merge discipline from :mod:`repro.perf.sweep`), which
makes runs deterministic at any worker interleaving: granting the
same windows one shard at a time (``sequential=True``) is
byte-identical to granting them in parallel, and the golden tests
gate exactly that.

Protocol payloads are closures in the serial engine; crossing a
process boundary they are encoded structurally (requests, fills) or
as one-shot *tokens* registered at the sending shard (invalidate /
forward continuations) and popped when the ack routes back.  Word
values ride data-bearing packets as line snapshots deposited into the
destination shard's backing store at the window barrier, so race-free
programs observe exactly the serial values.

With ``partitions=1`` the single worker runs the pristine serial
drain — byte-identical to an unpartitioned run by construction.
"""

from __future__ import annotations

import gc
import time
import traceback
from typing import Any, Callable

from repro.sim.engine import SimulationError


class PartitionError(SimulationError):
    """Raised for partition-protocol violations (lookahead, divergence)."""


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class PartitionPlan:
    """Contiguous near-equal node ranges, one per shard."""

    __slots__ = ("n_nodes", "n_shards", "bounds")

    def __init__(self, n_nodes: int, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"partitions must be >= 1, got {n_shards}")
        if n_shards > n_nodes:
            raise ValueError(
                f"cannot split {n_nodes} nodes into {n_shards} partitions"
            )
        self.n_nodes = n_nodes
        self.n_shards = n_shards
        base, rem = divmod(n_nodes, n_shards)
        bounds = []
        lo = 0
        for s in range(n_shards):
            hi = lo + base + (1 if s < rem else 0)
            bounds.append((lo, hi))
            lo = hi
        self.bounds = tuple(bounds)

    def shard_of(self, node: int) -> int:
        for s, (lo, hi) in enumerate(self.bounds):
            if lo <= node < hi:
                return s
        raise ValueError(f"node {node} outside plan of {self.n_nodes}")


# ----------------------------------------------------------------------
# Cross-shard payload encoding
# ----------------------------------------------------------------------
class _RemoteToken:
    """Stand-in for a continuation closure held at its origin shard.

    Travels inside INVALIDATE/FORWARD payloads to the remote node and
    back in the matching INV_ACK/ACK_REPLY; the origin shard pops the
    real closure when the token returns.  ``line`` lets the returning
    data-bearing ack carry its line snapshot."""

    __slots__ = ("shard", "idx", "line")

    def __init__(self, shard: int, idx: int, line: int) -> None:
        self.shard = shard
        self.idx = idx
        self.line = line

    def __call__(self) -> None:  # pragma: no cover - defensive
        raise PartitionError("remote continuation token invoked locally")


class ShardView:
    """Worker-side handle: node ownership, cross-shard egress, and the
    window driver that :meth:`Machine.run` delegates to."""

    def __init__(self, plan: PartitionPlan, shard: int, conn: Any) -> None:
        self.plan = plan
        self.shard = shard
        self.conn = conn
        self.lo, self.hi = plan.bounds[shard]
        self.machine = None
        self.lookahead: int = 0
        self._egress: list[tuple] = []
        self._signals: list[tuple[int, str, Any]] = []
        self._signal_handlers: dict[str, Callable[[Any], None]] = {}
        self._tokens: dict[int, Callable[[], None]] = {}
        self._token_seq = 0
        self._seq = 0

    # -- ownership -----------------------------------------------------
    def owns(self, node: int) -> bool:
        return self.lo <= node < self.hi

    def owned_nodes(self) -> range:
        return range(self.lo, self.hi)

    def bind(self, machine: Any) -> None:
        """Attach to the (single) machine this worker builds."""
        if self.machine is not None:
            raise PartitionError(
                "partitioned runs support exactly one machine per run"
            )
        if machine.n_nodes != self.plan.n_nodes:
            raise PartitionError(
                f"machine has {machine.n_nodes} nodes, plan has "
                f"{self.plan.n_nodes}"
            )
        self.machine = machine
        net = machine.network
        self.lookahead = net.min_cross_latency()
        if self.lookahead < 1:
            raise PartitionError(
                "partitioning needs injection_latency + hop_latency >= 1 "
                "(zero-latency links leave no conservative lookahead)"
            )

    # -- host-side collectives (usable outside machine.run) ------------
    def post_signal(self, key: str, value: Any = None) -> None:
        """Queue a host signal; delivered to every shard (self included,
        via its registered handler) at the next window barrier."""
        self._signals.append((self.shard, key, value))

    def on_signal(self, key: str, fn: Callable[[Any], None]) -> None:
        self._signal_handlers[key] = fn

    def allgather(self, tag: str, value: Any) -> list[Any]:
        """Exchange one picklable value per shard (shard order).  All
        shards must call this at the same point in their (replicated)
        host code."""
        self.conn.send(("reduce", self.shard, tag, value))
        msg = self.conn.recv()
        if msg[0] == "abort":
            raise PartitionError(msg[1])
        if msg[0] != "reduce_result" or msg[1] != tag:  # pragma: no cover
            raise PartitionError(f"allgather({tag!r}) got {msg[0]!r}")
        return msg[2]

    # -- egress (called from Network.send for cross-shard packets) -----
    def egress(self, net: Any, packet: Any, body_cycles: int) -> int:
        """Timing-walk a cross-shard packet over the locally-owned
        links of its route (real FIFO contention there; foreign links
        are charged uncontended) and queue its encoded record for the
        next window barrier.  Returns the arrival cycle."""
        sim = net.sim
        now = sim.now
        head = now + net.injection_latency
        hop = net.hop_latency
        tail = head
        lo, hi = self.lo, self.hi
        for a, b in net.mesh.route(packet.src, packet.dst):
            start = head + hop
            if lo <= a < hi:
                link = net._link(a, b)
                if link.busy_until > start:
                    start = link.busy_until
                link.busy_until = start + body_cycles
                link.total_busy += body_cycles
            head = start
            tail = start + body_cycles
        arrival = tail
        if arrival - now < self.lookahead:
            raise PartitionError(
                f"lookahead violated: {packet!r} would arrive in "
                f"{arrival - now} < L={self.lookahead} cycles"
            )
        packet.delivered_at = arrival
        stats = net.stats
        stats.packets += 1
        stats.words += packet.size_words
        stats.by_kind[packet.kind] += 1
        stats.total_latency += arrival - now
        spec, deposit = self._encode(packet)
        self._seq += 1
        self._egress.append((
            self._seq, now, arrival, packet.src, packet.dst,
            packet.kind.name, packet.size_words, spec, deposit,
        ))
        return arrival

    def _snap_line(self, line: int, src: int | None = None):
        """Snapshot a line for a cross-shard deposit.

        When ``src`` is the node *relinquishing* a MODIFIED line
        (forward-writeback, eviction writeback), its committed stores
        may still sit in the processor store buffer: serially
        ``store.write`` retires unconditionally a few cycles later and
        is shared-store-visible long before any remote load, but a
        replica snapshot taken at egress would miss it forever.
        Overlay the buffered values (oldest first, youngest wins) so
        the deposit carries the line's semantic value.
        """
        m = self.machine
        size = m.coherence.line_size
        snap = m.store.snapshot_range(line, size)
        if src is not None and m.coherence._mshr[src].get(line) is None:
            # no live MSHR txn for the line at src ⇒ every in-flight
            # store to it is committed (granted), merely unflushed; a
            # live txn would mean the store is still waiting for
            # exclusivity and its value must NOT leak early
            proc = m.processor(src)
            pending: dict[int, Any] = {}
            for slot in sorted(proc._store_buffer):
                addr, value = proc._store_buffer[slot]
                if line <= addr < line + size:
                    pending[addr - line] = value
            for addr, vals in proc._pending_writes.items():
                if vals and line <= addr < line + size:
                    pending[addr - line] = vals[-1]
            if pending:
                snap = [(o, v) for o, v in snap if o not in pending]
                snap.extend(sorted(pending.items()))
        return (line, size, snap)

    def _encode(self, packet: Any) -> tuple[tuple, Any]:
        """Encode a protocol payload structurally.  Exhaustive over the
        payload shapes the coherence engine and CMMU put on the wire;
        anything else is a loud error, not a silent wrong run."""
        from repro.memory.coherence import _Fill, _HomeReq
        from repro.network.packet import PacketKind

        kind = packet.kind
        p = packet.payload
        if isinstance(p, _HomeReq):
            # a writeback carries an evicted MODIFIED line
            deposit = (
                self._snap_line(p.line, src=packet.src)
                if kind is PacketKind.COH_WRITEBACK
                else None
            )
            return ("req", p.kind.name, p.node, p.line), deposit
        if isinstance(p, _Fill):
            # src is the home; when the home node itself just
            # relinquished ownership its committed stores may still be
            # buffered (see _snap_line)
            deposit = (
                self._snap_line(p.line, src=packet.src)
                if kind is PacketKind.COH_DATA_REPLY
                else None
            )
            return ("fill", p.node, p.line, p.state.name), deposit
        if isinstance(p, _RemoteToken):
            # forward-writeback: the owner relinquishes the line, so the
            # deposit must include its still-buffered stores
            deposit = (
                self._snap_line(p.line, src=packet.src)
                if kind is PacketKind.COH_ACK_REPLY
                else None
            )
            return ("tok", p.shard, p.idx), deposit
        if kind is PacketKind.COH_INVALIDATE:
            line, home, on_ack = p
            return ("inv", line, home, self._register_token(on_ack)), None
        if kind is PacketKind.COH_FORWARD:
            grant, line, home, cont = p
            token = self._register_token(cont)
            return ("fwd", grant.name, line, home, token), None
        if kind in (PacketKind.USER_MESSAGE, PacketKind.DMA_TRANSFER):
            try:
                import pickle

                pickle.dumps(p)
            except Exception as exc:
                raise PartitionError(
                    f"cross-shard message payload is not picklable: {p!r} "
                    f"({exc}) — host callbacks cannot cross shard boundaries"
                ) from exc
            return ("msg", p), None
        raise PartitionError(
            f"cannot encode cross-shard packet {packet!r} "
            f"(payload {type(p).__name__})"
        )

    def _register_token(self, fn: Callable[[], None]) -> int:
        self._token_seq += 1
        self._tokens[self._token_seq] = fn
        return self._token_seq

    # -- ingress (applied at window barriers) --------------------------
    def _inject(self, records: list[tuple]) -> None:
        m = self.machine
        sim = m.sim
        coh = m.coherence
        sinks = m.network._sinks
        from repro.memory.coherence import _Fill
        from repro.network.packet import Packet, PacketKind

        # Pass 1 — barrier effects: line-value deposits and the
        # reply-in-flight mark.  Both must precede every event of the
        # coming window: the deposit is the (serially: already visible)
        # write the reply carries, and the mark is what the serial
        # engine set synchronously at the home when the reply left —
        # any overtaking invalidate/forward arrives in a strictly later
        # window than the reply's send window, so marking at the
        # barrier is never late.
        for rec in records:
            deposit = rec[8]
            if deposit is not None:
                base, nbytes, snap = deposit
                m.store.write_snapshot(base, nbytes, snap)
            spec = rec[7]
            if spec[0] == "fill":
                txn = coh._mshr[spec[1]].get(spec[2])
                if txn is not None:
                    txn.reply_in_flight = True
        # Pass 2 — schedule the deliveries at their arrival cycles.
        for rec in records:
            _seq, send, arrival, src, dst, kind_name, words, spec, _dep = rec
            payload = self._decode(src, spec, coh)
            pkt = Packet(src, dst, PacketKind[kind_name], words, payload)
            pkt.launched_at = send
            pkt.delivered_at = arrival
            sink = sinks[dst]
            sim.call_at(arrival, lambda p=pkt, s=sink: s(p))

    def _decode(self, src: int, spec: tuple, coh: Any) -> Any:
        from repro.memory.cache import LineState
        from repro.memory.coherence import Request, _Fill, _HomeReq

        tag = spec[0]
        if tag == "req":
            return _HomeReq(Request[spec[1]], spec[2], spec[3])
        if tag == "fill":
            return _Fill(coh, spec[1], spec[2], LineState[spec[3]])
        if tag == "tok":
            if spec[1] != self.shard:  # pragma: no cover - routing bug
                raise PartitionError(
                    f"token for shard {spec[1]} delivered to {self.shard}"
                )
            return self._tokens.pop(spec[2])
        if tag == "inv":
            token = _RemoteToken(self.plan.shard_of(src), spec[3], spec[1])
            return (spec[1], spec[2], token)
        if tag == "fwd":
            token = _RemoteToken(self.plan.shard_of(src), spec[4], spec[2])
            return (LineState[spec[1]], spec[2], spec[3], token)
        if tag == "msg":
            return spec[1]
        raise PartitionError(f"unknown record spec {spec!r}")  # pragma: no cover

    # -- the window driver (Machine.run delegates here) ----------------
    def drive_run(
        self,
        sim: Any,
        until: int | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> int:
        if until is not None or stop_when is not None:
            raise SimulationError(
                "until/stop_when are not supported with partitions>1 "
                "(window barriers own the clock)"
            )
        if self.plan.n_shards == 1:
            # Single shard: the pristine serial drain (including its
            # daemon semantics) — but keep the coordinator handshake so
            # collectives outside machine.run stay lockstep-trivial.
            return sim.run(max_events=max_events)
        conn = self.conn
        base_events = sim.events_processed
        while True:
            egress, self._egress = self._egress, []
            signals, self._signals = self._signals, []
            conn.send((
                "ready", self.shard, sim.now, sim.next_model_time(),
                sim.events_processed - base_events, egress, signals,
                self.lookahead,
            ))
            msg = conn.recv()
            kind = msg[0]
            if kind == "window":
                _, start, end, records, all_signals = msg
                for _shard, key, value in all_signals:
                    handler = self._signal_handlers.get(key)
                    if handler is not None:
                        handler(value)
                if records:
                    self._inject(records)
                sim.run_window(end)
            elif kind == "finish":
                final_now = msg[1]
                if final_now > sim.now:
                    sim.now = final_now
                return sim.now
            elif kind == "abort":
                raise PartitionError(msg[1])
            else:  # pragma: no cover - protocol bug
                raise PartitionError(f"unexpected directive {kind!r}")


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_CURRENT: ShardView | None = None


def current_shard() -> ShardView | None:
    """The shard this process is simulating, if it is a partition
    worker (checked by ``make_machine`` and the runtime layers)."""
    return _CURRENT


def _worker_main(conn, fn_spec: str, kwargs: dict, plan: PartitionPlan,
                 shard: int, obs_cfg) -> None:
    global _CURRENT
    try:
        view = ShardView(plan, shard, conn)
        _CURRENT = view
        # the window drains allocate heavily and die young, like the
        # serial tight loop: pay no cyclic-GC passes mid-run
        gc.disable()
        from repro.perf.sweep import SweepPoint

        fn = SweepPoint(fn_spec, kwargs).resolve()
        if obs_cfg is not None and obs_cfg.enabled:
            from repro.obs.session import session as obs_session

            with obs_session(obs_cfg) as s:
                result = fn(**kwargs)
                payload = s.data()
            for rec in payload["records"]:
                rec["label"] = f"shard{shard}:{rec['label']}"
        else:
            result = fn(**kwargs)
            payload = None
        conn.send(("result", shard, result, payload))
    except BaseException:
        try:
            conn.send(("error", shard, traceback.format_exc()))
        except Exception:  # pragma: no cover - parent went away
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator (parent-process side)
# ----------------------------------------------------------------------
def validate_partitions(partitions: Any, n_nodes: int) -> int:
    """Shared strict validation for CLI / serve specs."""
    if isinstance(partitions, bool) or not isinstance(partitions, int):
        raise ValueError("'partitions' must be an integer")
    if not 1 <= partitions <= 64:
        raise ValueError(f"'partitions' must be in [1, 64], got {partitions}")
    if partitions > n_nodes:
        raise ValueError(
            f"'partitions' ({partitions}) cannot exceed n_nodes ({n_nodes})"
        )
    return partitions


class _Coordinator:
    """Window-barrier loop: gather one message per worker, route egress
    records, grant the next bounded-lag window (or finish)."""

    def __init__(self, conns: list, plan: PartitionPlan,
                 sequential: bool, notify=None) -> None:
        self.conns = conns
        self.plan = plan
        #: learned from the workers' ready messages (they compute it
        #: from the actual machine config, which may override the
        #: default network latencies)
        self.lookahead: int | None = None
        self.sequential = sequential
        self.notify = notify
        self.windows = 0
        self._last_notify = 0.0

    def _gather(self) -> list[tuple]:
        msgs = []
        for conn in self.conns:
            try:
                msgs.append(conn.recv())
            except EOFError:
                raise PartitionError(
                    "a partition worker died without reporting an error"
                ) from None
        for msg in msgs:
            if msg[0] == "error":
                self._abort(f"shard {msg[1]} failed")
                raise PartitionError(
                    f"shard {msg[1]} failed:\n{msg[2]}"
                )
        kinds = {m[0] for m in msgs}
        if len(kinds) > 1:
            self._abort("shards diverged")
            raise PartitionError(
                f"shards diverged: got mixed messages {sorted(kinds)} — "
                "replicated host code must reach collectives in lockstep"
            )
        return msgs

    def _abort(self, reason: str) -> None:
        for conn in self.conns:
            try:
                conn.send(("abort", reason))
            except Exception:
                pass

    def _send_directives(self, directives: list[tuple]) -> None:
        """Parallel mode broadcasts then gathers (the gather happens on
        the next loop turn); sequential-grant mode sends each shard its
        directive and *waits for its reply* before granting the next —
        same directives, serialized execution.  The replies it eats
        here are re-queued for the main loop via ``_staged``."""
        if not self.sequential:
            for conn, d in zip(self.conns, directives):
                conn.send(d)
            return
        staged = []
        for conn, d in zip(self.conns, directives):
            conn.send(d)
            if d[0] == "window":
                try:
                    staged.append(conn.recv())
                except EOFError:
                    raise PartitionError(
                        "a partition worker died without reporting an error"
                    ) from None
        # non-window directives collect no replies here; the main loop
        # must fall through to a fresh gather in that case
        self._staged = staged or None

    def run(self, max_events: int | None = None) -> tuple[list, list]:
        """Drive to completion; returns (results, obs payloads) in
        shard order."""
        n = len(self.conns)
        self._staged: list | None = None
        while True:
            if self._staged is not None:
                msgs, self._staged = self._staged, None
                for msg in msgs:
                    if msg[0] == "error":
                        self._abort(f"shard {msg[1]} failed")
                        raise PartitionError(f"shard {msg[1]} failed:\n{msg[2]}")
                kinds = {m[0] for m in msgs}
                if len(kinds) > 1:
                    self._abort("shards diverged")
                    raise PartitionError(
                        f"shards diverged: {sorted(kinds)}"
                    )
            else:
                msgs = self._gather()
            kind = msgs[0][0]
            if kind == "result":
                results = [None] * n
                payloads = [None] * n
                for msg in msgs:
                    results[msg[1]] = msg[2]
                    payloads[msg[1]] = msg[3]
                return results, payloads
            if kind == "reduce":
                tags = {m[2] for m in msgs}
                if len(tags) > 1:
                    self._abort("shards diverged")
                    raise PartitionError(
                        f"allgather tag mismatch across shards: {sorted(tags)}"
                    )
                values = [None] * n
                for msg in msgs:
                    values[msg[1]] = msg[3]
                tag = msgs[0][2]
                self._send_directives(
                    [("reduce_result", tag, values)] * n
                )
                if self.sequential:
                    self._staged = None  # reduce_result gets no reply here
                continue
            # kind == "ready"
            msgs.sort(key=lambda m: m[1])
            lookaheads = {m[7] for m in msgs}
            if len(lookaheads) > 1:
                self._abort("lookahead mismatch")
                raise PartitionError(
                    f"shards report different lookaheads {sorted(lookaheads)} "
                    "— machine configs must be replicated identically"
                )
            self.lookahead = msgs[0][7]
            nexts = [m[3] for m in msgs]
            nows = [m[2] for m in msgs]
            if max_events is not None:
                total = sum(m[4] for m in msgs)
                if total > max_events:
                    self._abort(
                        f"exceeded max_events={max_events} across "
                        f"{n} shards (runaway simulation?)"
                    )
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
            records = []
            signals = []
            for msg in msgs:
                records.extend(msg[5])
                signals.extend(msg[6])
            model_times = [t for t in nexts if t is not None]
            arrivals = [rec[2] for rec in records]
            if not model_times and not arrivals and not signals:
                final_now = max(nows)
                self._send_directives([("finish", final_now)] * n)
                self._staged = None
                continue  # workers answer with the next session/result
            if model_times or arrivals:
                start = min(model_times + arrivals)
            else:
                start = max(nows) + 1  # signal-only window
            end = start + self.lookahead - 1
            by_shard: list[list[tuple]] = [[] for _ in range(n)]
            for rec in sorted(records, key=lambda r: (r[1], self.plan.shard_of(r[3]), r[0])):
                by_shard[self.plan.shard_of(rec[4])].append(rec)
            self.windows += 1
            self._progress(nows)
            self._send_directives([
                ("window", start, end, by_shard[s], signals)
                for s in range(n)
            ])

    def _progress(self, nows: list[int]) -> None:
        """Rate-limited partition progress through the active sweep
        progress callback (doubles as the service's cancellation
        probe between windows)."""
        if self.notify is None:
            return
        t = time.monotonic()
        if t - self._last_notify < 0.25 and self.windows > 1:
            return
        self._last_notify = t
        self.notify({
            "event": "partition_window",
            "windows": self.windows,
            "shards": len(nows),
            "min_now": min(nows),
            "max_now": max(nows),
        })


def run_partitioned(
    fn_spec: str,
    kwargs: dict,
    n_nodes: int,
    partitions: int,
    obs_cfg=None,
    sequential: bool = False,
    max_events: int | None = None,
) -> Any:
    """Run ``fn_spec`` (a ``"module:callable"`` sweep-point spec whose
    callable builds one machine through ``make_machine``) split over
    ``partitions`` worker processes.  Returns the entry function's
    result (identical on every shard — verified).

    ``sequential=True`` grants each window one shard at a time — the
    serial reference used by the identity tests; results are
    byte-identical to the parallel grant order by construction.
    """
    import multiprocessing as mp

    partitions = validate_partitions(partitions, n_nodes)
    if obs_cfg is not None and obs_cfg.check:
        raise ValueError(
            "dynamic checkers need a global view and are not supported "
            "with partitions>1 (run the checked configuration serially)"
        )
    plan = PartitionPlan(n_nodes, partitions)
    from repro.obs.session import current as obs_current
    from repro.perf.progress import current as progress_current

    ctx = mp.get_context("fork")
    conns = []
    procs = []
    try:
        for shard in range(partitions):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, fn_spec, kwargs, plan, shard, obs_cfg),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        coord = _Coordinator(
            conns, plan, sequential, notify=progress_current()
        )
        results, payloads = coord.run(max_events=max_events)
    finally:
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
    first = results[0]
    for shard, result in enumerate(results[1:], start=1):
        try:
            same = bool(result == first)
        except Exception:  # pragma: no cover - exotic result types
            same = repr(result) == repr(first)
        if not same:
            raise PartitionError(
                f"shards diverged: shard {shard} returned {result!r}, "
                f"shard 0 returned {first!r}"
            )
    sess = obs_current()
    if sess is not None:
        for payload in payloads:
            if payload:
                sess.absorb(payload)
    return first
