"""Directory-based cache-coherence transaction engine.

This is the timing engine for all shared-memory traffic. Every
load/store/prefetch that misses (or needs an ownership change) becomes
a *transaction*:

  requester --request--> home --[invalidate/forward legs]--> home
            <--data/ack reply--

Key modelling decisions (see DESIGN.md for rationale):

* **Per-line serialization at the home.** The home directory processes
  one transaction per line at a time; later requests queue FIFO. This
  makes races structurally impossible while preserving the hot-line
  contention behaviour the paper's barrier experiment depends on.
* **Home port occupancy.** Alewife keeps directory entries in DRAM, so
  every protocol transaction occupies the home node's memory port.
  This shared-resource cost is what makes a prefetch+store pair (two
  transactions per line) slower than a single blocking read-exclusive
  miss in the Fig. 7 copy loop.
* **Timing only.** Word values live in the backing store; the engine
  moves no data.
* **No upgrade optimization by default.** A store that hits a SHARED
  line issues a full read-exclusive request (matching the behaviour
  needed to reproduce Fig. 7); set
  ``CoherenceParams.upgrade_optimization`` to model an
  upgrade-without-data protocol instead.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.memory.address import NODE_SHIFT, home_of
from repro.memory.cache import Cache, LineState
from repro.memory.directory import Directory, DirState
from repro.network.fabric import Network
from repro.network.packet import Packet, PacketKind
from repro.sim.engine import Resource, SimulationError, Simulator

OnDone = Callable[[], None]

# prebound PacketKind members: handle_packet runs once per protocol
# packet, and enum attribute access there is measurable
def _noop() -> None:
    """Placeholder callback for events that exist purely as simulated
    time (e.g. a fill-release with no waiters)."""


_PK_READ_REQ = PacketKind.COH_READ_REQ
_PK_WRITE_REQ = PacketKind.COH_WRITE_REQ
_PK_UPGRADE_REQ = PacketKind.COH_UPGRADE_REQ
_PK_DATA_REPLY = PacketKind.COH_DATA_REPLY
_PK_ACK_REPLY = PacketKind.COH_ACK_REPLY
_PK_INV_ACK = PacketKind.COH_INV_ACK
_PK_INVALIDATE = PacketKind.COH_INVALIDATE
_PK_FORWARD = PacketKind.COH_FORWARD
_PK_WRITEBACK = PacketKind.COH_WRITEBACK


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    PREFETCH = "prefetch"  # read-shared, non-binding, non-blocking


@dataclass
class CoherenceParams:
    """All timing knobs for the shared-memory system (cycles)."""

    load_hit: int = 2
    store_hit: int = 2
    #: directory logic + directory-entry DRAM access at the home
    home_ctrl_occupancy: int = 8
    #: additional occupancy when the transaction moves line data
    home_data_occupancy: int = 6
    #: LimitLESS software-extension trap when sharers overflow hardware
    trap_cycles: int = 40
    #: requester-side latency to get a request out / into the cache
    request_issue: int = 2
    #: requester-side line fill after the reply arrives
    fill_cycles: int = 2
    #: processor-visible cost of issuing a (non-blocking) prefetch
    prefetch_issue: int = 2
    #: maximum outstanding prefetches per node (extra ones are dropped)
    prefetch_slots: int = 4
    #: per-invalidation issue occupancy at the home
    inv_issue: int = 2
    #: store-to-SHARED issues an upgrade (no data) instead of a full miss
    upgrade_optimization: bool = False
    #: occupancy multiplier when the requester IS the home node — the
    #: local fast path skips the network-side protocol machinery
    #: (Alewife's local miss is ~11 cycles vs ~38 remote)
    local_home_discount: float = 0.5
    #: MESI: a read miss on an UNOWNED line fills EXCLUSIVE-clean, so a
    #: later store by the same node upgrades silently (no second
    #: transaction). Alewife's protocol was MSI-like; this knob exists
    #: for the protocol ablation.
    mesi: bool = False
    #: LimitLESS fidelity: in the real machine the pointer-overflow
    #: software handler runs ON the home node's processor, stealing
    #: CPU time from whatever thread runs there (not just memory-port
    #: time). Enable to charge the trap to the home CPU as well.
    limitless_trap_on_cpu: bool = False
    # packet sizes in 32-bit words
    req_words: int = 3
    ack_words: int = 2
    inv_words: int = 2
    header_words: int = 2  # header on data-bearing packets

    def data_reply_words(self, line_size: int) -> int:
        return self.header_words + line_size // 4


class _Txn:
    """Requester-side outstanding transaction (MSHR entry).

    Plain slotted class, not a dataclass: one is allocated per
    coherence miss, which makes construction cost and per-instance
    memory part of the simulator's hot path.
    """

    __slots__ = ("node", "line", "kind", "is_prefetch", "waiters",
                 "post_fill", "reply_in_flight")

    def __init__(
        self, node: int, line: int, kind: AccessKind, is_prefetch: bool = False
    ) -> None:
        self.node = node
        self.line = line
        self.kind = kind
        self.is_prefetch = is_prefetch
        #: (kind, on_done) pairs released when the fill lands
        self.waiters: list[tuple[AccessKind, OnDone]] = []
        #: protocol actions (invalidations/forwards) that raced ahead of
        #: our data reply; applied immediately after the fill (the real
        #: hardware NACKs or defers in a transient state)
        self.post_fill: list[Callable[[], None]] = []
        #: set once the home has dispatched our reply. Only then may
        #: protocol actions be deferred onto this transaction: deferring
        #: while our request is still queued at the home would deadlock
        #: (the incoming action belongs to the very transaction our
        #: request is queued behind).
        self.reply_in_flight = False


class _HomeReq:
    """A transaction as seen by the home directory (slotted; one per
    request reaching a home node)."""

    __slots__ = ("kind", "node", "line", "was_modified")

    def __init__(
        self,
        kind: "AccessKind | str",  # AccessKind, "upgrade", or "writeback"
        node: int,
        line: int,
        was_modified: bool = False,  # writebacks: evictor held it MODIFIED
    ) -> None:
        self.kind = kind
        self.node = node
        self.line = line
        self.was_modified = was_modified


class _Fill:
    """Payload of a remote data/ack reply: applies the fill at the
    requester.

    Behaves exactly like the ``lambda: coh._fill(node, line, state)``
    it replaces on the remote-reply path, but carries its arguments in
    slots so a partition barrier (repro.perf.partition) can encode it
    structurally when the reply crosses a shard boundary. The
    local-reply path keeps the bare lambda — it never crosses anything.
    """

    __slots__ = ("coh", "node", "line", "state")

    def __init__(self, coh: "CoherenceEngine", node: int, line: int,
                 state: LineState) -> None:
        self.coh = coh
        self.node = node
        self.line = line
        self.state = state

    def __call__(self) -> None:
        self.coh._fill(self.node, self.line, self.state)


@dataclass(slots=True)
class CoherenceStats:
    transactions: int = 0
    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0
    prefetches_issued: int = 0
    prefetches_dropped: int = 0
    forwards: int = 0
    invalidations: int = 0
    writebacks: int = 0
    local_transactions: int = 0


class CoherenceEngine:
    """Machine-wide coherence protocol engine (logically centralized,
    physically distributed timing)."""

    #: probe points (repro.sim.probe): before_access fires with
    #: (node, addr, kind) as a processor access enters the engine
    PROBES = ("before_access",)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        line_size: int = 16,
        params: CoherenceParams | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.line_size = line_size
        self._line_mask = ~(line_size - 1)  # inline line_of on the hot path
        self.p = params or CoherenceParams()
        self.caches: dict[int, Cache] = {}
        self.dirs: dict[int, Directory] = {}
        self.ports: dict[int, Resource] = {}
        self._mshr: dict[int, dict[int, _Txn]] = {}
        self._prefetch_count: dict[int, int] = {}
        # home-side per-line serialization
        self._line_busy: set[tuple[int, int]] = set()
        self._line_q: dict[tuple[int, int], deque[_HomeReq]] = {}
        #: set by the Machine when limitless_trap_on_cpu is enabled:
        #: called as fn(home_node, cycles) on each software trap
        self.on_software_trap = None
        #: set by Machine on partitioned runs (repro.perf.partition);
        #: None on serial runs
        self.shard = None
        self.stats = CoherenceStats()
        self.before_access = ()

    # ------------------------------------------------------------------
    def add_node(
        self, node: int, cache: Cache, directory: Directory, port: Resource
    ) -> None:
        if node in self.caches:
            raise SimulationError(f"node {node} already registered")
        self.caches[node] = cache
        self.dirs[node] = directory
        self.ports[node] = port
        self._mshr[node] = {}
        self._prefetch_count[node] = 0

    def register_metrics(self, reg, **labels) -> None:
        """Register protocol-engine instruments (lazy reads) into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        s = self.stats
        labels = {"component": "coherence", **labels}
        for name in ("transactions", "read_misses", "write_misses", "upgrades",
                     "prefetches_issued", "prefetches_dropped", "forwards",
                     "invalidations", "writebacks", "local_transactions"):
            reg.counter(f"coh.{name}", lambda n=name: getattr(s, n), **labels)
        reg.counter(
            "coh.mem_port_busy_cycles",
            lambda: sum(p.total_busy for p in self.ports.values()),
            **labels,
        )

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def access(self, node: int, addr: int, kind: AccessKind, on_done: OnDone) -> bool:
        """Perform one shared-memory access; ``on_done`` fires when it
        retires (for PREFETCH: when the issue slot is released, the fill
        continues in the background).

        Returns True on a cache hit (the access retires in a cycle or
        two) and False on a miss — synchronously, the way the real
        cache controller tells Sparcle whether to stall or
        context-switch.

        Hit fast path: a local cache hit completes through the
        engine's handle-free due lane (``Simulator.call_after``) — no
        transaction state, no event record, no heap round-trip — while
        retiring at exactly the same simulated cycle as before.
        """
        if self.before_access:
            for fn in self.before_access:
                fn(node, addr, kind)
        line = addr & self._line_mask
        cache = self.caches[node]

        if kind is AccessKind.PREFETCH:
            self.sim.call_after(self.p.prefetch_issue, on_done)
            if cache.state(line) is not LineState.INVALID:
                return True
            if line in self._mshr[node]:
                return True
            if self._prefetch_count[node] >= self.p.prefetch_slots:
                self.stats.prefetches_dropped += 1
                return True
            self._prefetch_count[node] += 1
            self.stats.prefetches_issued += 1
            self._start_txn(node, line, AccessKind.READ, is_prefetch=True)
            return True  # prefetches never stall the issuing context

        if kind is AccessKind.READ:
            if cache.lookup(line, for_write=False):
                self.sim.call_after(self.p.load_hit, on_done)
                return True
        elif kind is AccessKind.WRITE:
            if cache.lookup(line, for_write=True):
                self.sim.call_after(self.p.store_hit, on_done)
                return True
        else:  # pragma: no cover - exhaustive enum
            raise SimulationError(f"unknown access kind {kind!r}")

        pending = self._mshr[node].get(line)
        if pending is not None:
            pending.waiters.append((kind, on_done))
            return False

        txn = self._start_txn(node, line, kind)
        txn.waiters.append((kind, on_done))
        return False

    def _start_txn(
        self, node: int, line: int, kind: AccessKind, is_prefetch: bool = False
    ) -> _Txn:
        txn = _Txn(node, line, kind, is_prefetch)
        self._mshr[node][line] = txn
        self.stats.transactions += 1
        upgrade = (
            kind is AccessKind.WRITE
            and self.p.upgrade_optimization
            and self.caches[node].state(line) is LineState.SHARED
        )
        if kind is AccessKind.READ:
            self.stats.read_misses += 1
        elif upgrade:
            self.stats.upgrades += 1
        else:
            self.stats.write_misses += 1
        home = line >> NODE_SHIFT  # home_of, inlined
        req = _HomeReq("upgrade" if upgrade else kind, node, line)
        if home == node:
            self.stats.local_transactions += 1
            self.sim.call_after(
                self.p.request_issue, lambda: self._home_enqueue(home, req)
            )
        else:
            if upgrade:
                pk = PacketKind.COH_UPGRADE_REQ
            elif kind is AccessKind.READ:
                pk = PacketKind.COH_READ_REQ
            else:
                pk = PacketKind.COH_WRITE_REQ
            self._send(node, home, pk, self.p.req_words, req)
        return txn

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------
    def _send(self, src: int, dst: int, kind: PacketKind, words: int, payload) -> None:
        self.network.send(Packet(src, dst, kind, words, payload))

    def handle_packet(self, packet: Packet) -> None:
        """Entry point for protocol packets delivered by the network
        (called from the node's CMMU sink). Dispatch is identity tests
        against prebound members, most-frequent kinds first (replies
        and requests dominate protocol traffic)."""
        kind = packet.kind
        if kind is _PK_DATA_REPLY or kind is _PK_ACK_REPLY or kind is _PK_INV_ACK:
            # continuation-style payloads: a callable to invoke on arrival
            packet.payload()
        elif kind is _PK_READ_REQ or kind is _PK_WRITE_REQ or kind is _PK_UPGRADE_REQ:
            self._home_enqueue(packet.dst, packet.payload)
        elif kind is _PK_WRITEBACK:
            self._home_enqueue(packet.dst, packet.payload)
        elif kind is _PK_INVALIDATE:
            self._on_invalidate(packet)
        elif kind is _PK_FORWARD:
            self._on_forward(packet)
        else:  # pragma: no cover
            raise SimulationError(f"coherence engine got {packet!r}")

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------
    def _home_enqueue(self, home: int, req: _HomeReq) -> None:
        key = (home, req.line)
        if key in self._line_busy:
            self._line_q.setdefault(key, deque()).append(req)
        else:
            self._line_busy.add(key)
            self._process(home, req)

    def _line_release(self, home: int, line: int) -> None:
        key = (home, line)
        q = self._line_q.get(key)
        if q:
            nxt = q.popleft()
            if not q:
                del self._line_q[key]
            self._process(home, nxt)
        else:
            self._line_busy.discard(key)

    def _process(self, home: int, req: _HomeReq) -> None:
        kind = req.kind
        if kind is AccessKind.READ:
            self._process_read(home, req)
        elif kind is AccessKind.WRITE:
            self._process_write(home, req)
        elif kind == "writeback":
            self._process_writeback(home, req)
        elif kind == "upgrade":
            self._process_upgrade(home, req)
        else:  # pragma: no cover
            raise SimulationError(f"bad home request {req!r}")

    def _process_upgrade(self, home: int, req: _HomeReq) -> None:
        """Ownership upgrade without data (only with the optimization on).

        If the requester lost its SHARED copy in the meantime (an
        earlier-queued writer invalidated it), fall back to a full
        write transaction.
        """
        line, requester = req.line, req.node
        d = self.dirs[home]
        entry = d.entry(line)
        if entry.state is not DirState.SHARED or requester not in entry.sharers:
            self._process_write(home, _HomeReq(AccessKind.WRITE, requester, line))
            return
        ready = self._occupy(home, len(entry.sharers) > d.hw_pointers, with_data=False, requester=requester)
        invs = d.sharers_to_invalidate(line, excluding=requester)
        if not invs:
            d.set_exclusive(line, requester)
            self._schedule_reply(
                home, requester, line, LineState.MODIFIED, at=ready, with_data=False
            )
            return
        self.stats.invalidations += len(invs)
        d.stats.invalidations_sent += len(invs)
        remaining = len(invs)

        def on_ack() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                t2 = self.ports[home].acquire(self.p.home_ctrl_occupancy)
                d.set_exclusive(line, requester)
                self._schedule_reply(
                    home, requester, line, LineState.MODIFIED, at=t2, with_data=False
                )

        send_at = ready
        for sharer in invs:
            send_at = self.ports[home].acquire(self.p.inv_issue, earliest=send_at)
            if sharer == home:
                def local_inv(s: int = sharer) -> None:
                    def do() -> None:
                        self.caches[s].invalidate(line)
                        on_ack()

                    self._apply_or_defer(s, line, do)

                self.sim.call_at(send_at, local_inv)
            else:
                self.sim.call_at(
                    send_at,
                    lambda s=sharer: self._send(
                        home, s, PacketKind.COH_INVALIDATE,
                        self.p.inv_words, (line, home, on_ack),
                    ),
                )

    def _occupy(
        self, home: int, entry_overflowed: bool, with_data: bool, requester: int = -1
    ) -> int:
        occ = self.p.home_ctrl_occupancy
        if with_data:
            occ += self.p.home_data_occupancy
        if requester == home:
            occ = int(occ * self.p.local_home_discount)
        if entry_overflowed:
            occ += self.p.trap_cycles
            self.dirs[home].note_software_trap()
            if self.on_software_trap is not None:
                self.on_software_trap(home, self.p.trap_cycles)
        return self.ports[home].acquire(occ)

    def _process_read(self, home: int, req: _HomeReq) -> None:
        line, requester = req.line, req.node
        d = self.dirs[home]
        entry = d.entry(line)
        ready = self._occupy(home, len(entry.sharers) > d.hw_pointers, with_data=True, requester=requester)

        if entry.state is DirState.EXCLUSIVE and entry.owner == requester:
            # Stale ownership (eviction writeback in flight); the data
            # is safe in the backing store. Fall through as UNOWNED.
            d.clear(line)
            entry = d.entry(line)

        if entry.state is DirState.EXCLUSIVE:
            owner = entry.owner
            assert owner is not None
            self.stats.forwards += 1
            d.stats.forwards += 1
            if owner == home:
                # dirty in the home's own cache: flush locally, reply
                def downgrade_own() -> None:
                    if self.caches[home].state(line) is not LineState.INVALID:
                        self.caches[home].set_state(line, LineState.SHARED)

                self._apply_or_defer(home, line, downgrade_own)
                extra = self.ports[home].acquire(self.p.home_data_occupancy, earliest=ready)
                d.clear(line)
                d.add_sharer(line, home)
                d.add_sharer(line, requester)
                self._schedule_reply(home, requester, line, LineState.SHARED, at=extra)
            else:
                def after_writeback() -> None:
                    t2 = self.ports[home].acquire(self.p.home_data_occupancy)
                    d.clear(line)
                    d.add_sharer(line, owner)
                    d.add_sharer(line, requester)
                    self._schedule_reply(home, requester, line, LineState.SHARED, at=t2)

                self.sim.call_at(
                    ready,
                    lambda: self._send(
                        home,
                        owner,
                        PacketKind.COH_FORWARD,
                        self.p.inv_words,
                        ("read", line, home, after_writeback),
                    ),
                )
            return

        if self.p.mesi and entry.state is DirState.UNOWNED:
            # sole reader: grant exclusive-clean
            d.set_exclusive(line, requester)
            self._schedule_reply(home, requester, line, LineState.EXCLUSIVE, at=ready)
            return
        d.add_sharer(line, requester)
        self._schedule_reply(home, requester, line, LineState.SHARED, at=ready)

    def _process_write(self, home: int, req: _HomeReq) -> None:
        line, requester = req.line, req.node
        d = self.dirs[home]
        entry = d.entry(line)
        ready = self._occupy(home, len(entry.sharers) > d.hw_pointers, with_data=True, requester=requester)

        if entry.state is DirState.EXCLUSIVE and entry.owner == requester:
            d.clear(line)
            entry = d.entry(line)

        if entry.state is DirState.EXCLUSIVE:
            owner = entry.owner
            assert owner is not None
            self.stats.forwards += 1
            d.stats.forwards += 1
            if owner == home:
                self._apply_or_defer(home, line, lambda: self.caches[home].invalidate(line))
                extra = self.ports[home].acquire(self.p.home_data_occupancy, earliest=ready)
                d.set_exclusive(line, requester)
                self._schedule_reply(home, requester, line, LineState.MODIFIED, at=extra)
            else:
                def after_writeback() -> None:
                    t2 = self.ports[home].acquire(self.p.home_data_occupancy)
                    d.set_exclusive(line, requester)
                    self._schedule_reply(home, requester, line, LineState.MODIFIED, at=t2)

                self.sim.call_at(
                    ready,
                    lambda: self._send(
                        home,
                        owner,
                        PacketKind.COH_FORWARD,
                        self.p.inv_words,
                        ("write", line, home, after_writeback),
                    ),
                )
            return

        invs = d.sharers_to_invalidate(line, excluding=requester)
        if not invs:
            d.set_exclusive(line, requester)
            self._schedule_reply(home, requester, line, LineState.MODIFIED, at=ready)
            return

        # Invalidate every other sharer, collect acks at the home, then
        # grant exclusivity.
        self.stats.invalidations += len(invs)
        d.stats.invalidations_sent += len(invs)
        remaining = len(invs)

        def on_ack() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                t2 = self.ports[home].acquire(self.p.home_ctrl_occupancy)
                d.set_exclusive(line, requester)
                self._schedule_reply(home, requester, line, LineState.MODIFIED, at=t2)

        send_at = ready
        for sharer in invs:
            send_at = self.ports[home].acquire(self.p.inv_issue, earliest=send_at)
            if sharer == home:
                # invalidate the home's own cached copy, no network
                def local_inv(s: int = sharer) -> None:
                    def do() -> None:
                        self.caches[s].invalidate(line)
                        on_ack()

                    self._apply_or_defer(s, line, do)

                self.sim.call_at(send_at, local_inv)
            else:
                self.sim.call_at(
                    send_at,
                    lambda s=sharer: self._send(
                        home, s, PacketKind.COH_INVALIDATE,
                        self.p.inv_words, (line, home, on_ack),
                    ),
                )

    def _process_writeback(self, home: int, req: _HomeReq) -> None:
        line = req.line
        d = self.dirs[home]
        self.stats.writebacks += 1
        self._occupy(home, False, with_data=req.was_modified)
        entry = d.entry(line)
        if entry.state is DirState.EXCLUSIVE and entry.owner == req.node:
            d.clear(line)
        else:
            d.drop_sharer(line, req.node)
        self._line_release(home, line)

    # ------------------------------------------------------------------
    # Remote-side handlers (sharer / owner nodes)
    # ------------------------------------------------------------------
    def _apply_or_defer(self, node: int, line: int, action: Callable[[], None]) -> None:
        """Run a protocol action at ``node`` now — or, if that node has
        a *reply* in flight for ``line`` (our action overtook its data
        reply in the network), defer it until just after the fill.

        Actions aimed at a node whose request is still queued at the
        home apply immediately: that node's cached state (e.g. a
        SHARED copy awaiting a write upgrade) is current, and the
        reply it is waiting for is the one *behind* this action's
        transaction — deferring would deadlock.
        """
        txn = self._mshr[node].get(line)
        if txn is not None and txn.reply_in_flight:
            txn.post_fill.append(action)
        else:
            action()

    def _on_invalidate(self, packet: Packet) -> None:
        line, home, on_ack = packet.payload
        dst = packet.dst

        def do_inv() -> None:
            self.caches[dst].invalidate(line)
            self._send(dst, home, PacketKind.COH_INV_ACK, self.p.ack_words, on_ack)

        self._apply_or_defer(dst, line, do_inv)

    def _on_forward(self, packet: Packet) -> None:
        mode, line, home, continuation = packet.payload
        owner = packet.dst

        def do_forward() -> None:
            cache = self.caches[owner]
            if cache.state(line) is not LineState.INVALID:
                if mode == "read":
                    cache.set_state(line, LineState.SHARED)
                else:
                    cache.invalidate(line)
            # Data-bearing writeback to the home (stale-safe: sent even
            # if the line was already evicted — values live in the
            # store). The ACK_REPLY kind routes the continuation back
            # into the pending transaction rather than opening a new one.
            words = self.p.data_reply_words(self.line_size)
            self._send(owner, home, PacketKind.COH_ACK_REPLY, words, continuation)

        self._apply_or_defer(owner, line, do_forward)

    # ------------------------------------------------------------------
    # Reply / fill
    # ------------------------------------------------------------------
    def _schedule_reply(
        self,
        home: int,
        requester: int,
        line: int,
        state: LineState,
        at: int,
        with_data: bool = True,
    ) -> None:
        words = (
            self.p.data_reply_words(self.line_size) if with_data else self.p.ack_words
        )
        pk = PacketKind.COH_DATA_REPLY if with_data else PacketKind.COH_ACK_REPLY
        txn = self._mshr[requester].get(line)
        if txn is not None:
            # from here on, invalidations/forwards for this line may
            # legally overtake the reply and must be deferred
            txn.reply_in_flight = True

        # the home==requester decision is known now; build the cheaper
        # of the two deliver closures instead of branching at fire time
        if home == requester:
            fill = lambda: self._fill(requester, line, state)
            issue = self.p.request_issue
            call_after = self.sim.call_after

            def deliver() -> None:
                call_after(issue, fill)
        else:
            # slotted payload so partition barriers can encode it if
            # this reply crosses a shard boundary; calls identically
            fill = _Fill(self, requester, line, state)

            def deliver() -> None:
                self._send(home, requester, pk, words, fill)

        self.sim.call_at(at, deliver)
        # The home's part is done once the reply leaves; free the line
        # for the next queued transaction. A later transaction's
        # invalidate/forward can therefore overtake this data reply in
        # the network — the receiver defers such actions until its
        # fill lands (see _apply_or_defer), mirroring the transient
        # states real protocols keep for exactly this race.
        self.sim.call_at(at, lambda: self._line_release(home, line))

    def _fill(self, node: int, line: int, state: LineState) -> None:
        cache = self.caches[node]
        victim = cache.fill(line, state)
        if victim is not None:
            self._evict_writeback(node, victim)
        txn = self._mshr[node].pop(line, None)
        if txn is None:  # pragma: no cover - protocol invariant
            raise SimulationError(f"fill without MSHR entry: node {node} line {line:#x}")
        if txn.is_prefetch:
            self._prefetch_count[node] -= 1
        # deferred invalidations/forwards that overtook our reply
        for action in txn.post_fill:
            action()
        waiters = txn.waiters
        if not waiters:
            # the release event must still exist (it is simulated time
            # the requester observes), but it has nothing to do — skip
            # the closure allocation for this common case
            self.sim.call_after(self.p.fill_cycles, _noop)
            return

        def release() -> None:
            for kind, cb in waiters:
                if self._satisfied(kind, state):
                    cb()
                else:
                    # e.g. a WRITE waiter behind a READ fill: redo as
                    # its own transaction (an upgrade/write miss).
                    self.access(node, line, kind, cb)

        self.sim.call_after(self.p.fill_cycles, release)

    @staticmethod
    def _satisfied(kind: AccessKind, state: LineState) -> bool:
        if kind is AccessKind.WRITE:
            return state is LineState.MODIFIED
        return True

    def _evict_writeback(self, node: int, line: int) -> None:
        home = home_of(line)
        req = _HomeReq(kind="writeback", node=node, line=line, was_modified=True)
        words = self.p.data_reply_words(self.line_size)
        if home == node:
            self._home_enqueue(home, req)
        else:
            self._send(node, home, PacketKind.COH_WRITEBACK, words, req)

    # ------------------------------------------------------------------
    # DMA bookkeeping (zero-message directory fixup; see DESIGN.md)
    # ------------------------------------------------------------------
    def dma_flush(self, node: int, addr: int, nbytes: int) -> int:
        """Make ``node``'s cache consistent with its local memory over
        ``[addr, addr+nbytes)``. Returns the number of dirty lines
        flushed (the DMA engine charges time for them)."""
        dropped = self.caches[node].flush_range(addr, nbytes)
        dirty = 0
        for line, prior in dropped:
            home = home_of(line)
            d = self.dirs.get(home)
            # On partitioned runs the fixup may only touch directories
            # this shard is authoritative for; a stale sharer bit at a
            # foreign home is protocol-safe (the invalidate path is
            # already stale-tolerant) and DMA of remote-homed data is
            # not exercised by the experiments.
            if self.shard is not None and not self.shard.owns(home):
                d = None
            if d is not None:
                entry = d.entry(line)
                if entry.state is DirState.EXCLUSIVE and entry.owner == node:
                    d.clear(line)
                else:
                    d.drop_sharer(line, node)
            if prior is LineState.MODIFIED:
                dirty += 1
        return dirty
