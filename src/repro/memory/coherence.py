"""Directory-based cache-coherence transaction engine.

This is the timing engine for all shared-memory traffic. Every
load/store/prefetch that misses (or needs an ownership change) becomes
a *transaction*:

  requester --request--> home --[invalidate/forward legs]--> home
            <--data/ack reply--

The home side is a transition table, ``MSI_TABLE`` or ``MESI_TABLE``
(chosen by ``CoherenceParams.mesi``): one :class:`Row` per
(:class:`Request`, :class:`Seen`) pair names the leg the home runs
before it grants and the line state it grants.
``CoherenceEngine._process`` is the table's one interpreter.

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
from typing import Callable, NamedTuple

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


class Request(enum.Enum):
    """What a transaction asks of its line's home directory."""

    # identity hash, as PacketKind: every transaction hashes one to
    # look its table row up
    __hash__ = object.__hash__

    READ = enum.auto()       # a shared copy (loads and prefetches)
    WRITE = enum.auto()      # an exclusive copy with the line's data
    UPGRADE = enum.auto()    # SHARED -> MODIFIED without data
    WRITEBACK = enum.auto()  # an evicted MODIFIED line comes home


class Seen(enum.Enum):
    """A directory entry as the node that sent the request sees it."""

    __hash__ = object.__hash__

    UNOWNED = enum.auto()
    SHARED = enum.auto()      # sharers; the node is not one of them
    SHARER = enum.auto()      # the node is one of the sharers
    OWNED = enum.auto()       # EXCLUSIVE at a third node
    HOME_OWNED = enum.auto()  # EXCLUSIVE in the home node's own cache
    #: EXCLUSIVE at the node itself. Stale: its eviction writeback is
    #: still queued, or (MESI) its clean copy was dropped silently.
    SELF_OWNED = enum.auto()


class Leg(enum.Enum):
    """What the home does between reading the entry and granting."""

    NONE = enum.auto()        # grant at once
    INVALIDATE = enum.auto()  # invalidate the other sharers; grant on the last ack
    FORWARD = enum.auto()     # the remote owner gives the line up; grant on its ack
    OWN_COPY = enum.auto()    # the home's own cache gives the line up; grant
    FORGET = enum.auto()      # forget the node's copy (Directory.forget)


class Row(NamedTuple):
    """One transition of the home side."""

    leg: Leg
    #: line state the requester's fill installs; None sends no reply
    grant: LineState | None = None
    #: read the entry again and run this request's row instead
    then: Request | None = None


#: The home side of the MSI protocol, one row per (request, entry).
MSI_TABLE: dict[tuple[Request, Seen], Row] = {
    (Request.READ, Seen.UNOWNED): Row(Leg.NONE, LineState.SHARED),
    (Request.READ, Seen.SHARED): Row(Leg.NONE, LineState.SHARED),
    # its copy was evicted silently; the sharer set still names it
    (Request.READ, Seen.SHARER): Row(Leg.NONE, LineState.SHARED),
    (Request.READ, Seen.OWNED): Row(Leg.FORWARD, LineState.SHARED),
    (Request.READ, Seen.HOME_OWNED): Row(Leg.OWN_COPY, LineState.SHARED),
    # the data is safe in the backing store: serve it as UNOWNED
    (Request.READ, Seen.SELF_OWNED): Row(Leg.FORGET, then=Request.READ),
    # no other sharer to invalidate: the leg grants at once
    (Request.WRITE, Seen.UNOWNED): Row(Leg.INVALIDATE, LineState.MODIFIED),
    (Request.WRITE, Seen.SHARED): Row(Leg.INVALIDATE, LineState.MODIFIED),
    (Request.WRITE, Seen.SHARER): Row(Leg.INVALIDATE, LineState.MODIFIED),
    (Request.WRITE, Seen.OWNED): Row(Leg.FORWARD, LineState.MODIFIED),
    (Request.WRITE, Seen.HOME_OWNED): Row(Leg.OWN_COPY, LineState.MODIFIED),
    (Request.WRITE, Seen.SELF_OWNED): Row(Leg.FORGET, then=Request.WRITE),
    # an upgrade whose SHARED copy an earlier-queued writer took away
    # becomes a full write
    (Request.UPGRADE, Seen.UNOWNED): Row(Leg.NONE, then=Request.WRITE),
    (Request.UPGRADE, Seen.SHARED): Row(Leg.NONE, then=Request.WRITE),
    (Request.UPGRADE, Seen.SHARER): Row(Leg.INVALIDATE, LineState.MODIFIED),
    (Request.UPGRADE, Seen.OWNED): Row(Leg.NONE, then=Request.WRITE),
    (Request.UPGRADE, Seen.HOME_OWNED): Row(Leg.NONE, then=Request.WRITE),
    (Request.UPGRADE, Seen.SELF_OWNED): Row(Leg.NONE, then=Request.WRITE),
    # normally SELF_OWNED; otherwise a later transaction already took
    # the line, and at most a stale sharer bit is left to drop
    (Request.WRITEBACK, Seen.UNOWNED): Row(Leg.FORGET),
    (Request.WRITEBACK, Seen.SHARED): Row(Leg.FORGET),
    (Request.WRITEBACK, Seen.SHARER): Row(Leg.FORGET),
    (Request.WRITEBACK, Seen.OWNED): Row(Leg.FORGET),
    (Request.WRITEBACK, Seen.HOME_OWNED): Row(Leg.FORGET),
    (Request.WRITEBACK, Seen.SELF_OWNED): Row(Leg.FORGET),
}

#: MESI differs in one row: a sole reader fills EXCLUSIVE-clean, so
#: its later store upgrades silently (no second transaction).
MESI_TABLE: dict[tuple[Request, Seen], Row] = {
    **MSI_TABLE,
    (Request.READ, Seen.UNOWNED): Row(Leg.NONE, LineState.EXCLUSIVE),
}

# prebound members for the interpreter, which runs once per transaction
_DS_UNOWNED, _DS_SHARED = DirState.UNOWNED, DirState.SHARED
_LS_SHARED = LineState.SHARED
_SEEN_UNOWNED, _SEEN_SHARED, _SEEN_SHARER = (
    Seen.UNOWNED, Seen.SHARED, Seen.SHARER)
_SEEN_OWNED, _SEEN_HOME_OWNED, _SEEN_SELF_OWNED = (
    Seen.OWNED, Seen.HOME_OWNED, Seen.SELF_OWNED)
_LEG_NONE, _LEG_INVALIDATE, _LEG_OWN_COPY, _LEG_FORGET = (
    Leg.NONE, Leg.INVALIDATE, Leg.OWN_COPY, Leg.FORGET)
_RQ_READ, _RQ_WRITE, _RQ_UPGRADE, _RQ_WRITEBACK = (
    Request.READ, Request.WRITE, Request.UPGRADE, Request.WRITEBACK)


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

    __slots__ = ("is_prefetch", "waiters", "post_fill", "reply_in_flight")

    def __init__(self, is_prefetch: bool = False) -> None:
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

    __slots__ = ("kind", "node", "line")

    def __init__(self, kind: Request, node: int, line: int) -> None:
        self.kind = kind
        self.node = node
        self.line = line


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
        #: the home side's transition table (see MSI_TABLE)
        self.table = MESI_TABLE if self.p.mesi else MSI_TABLE
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
        txn = _Txn(is_prefetch)
        self._mshr[node][line] = txn
        self.stats.transactions += 1
        if kind is AccessKind.READ:
            self.stats.read_misses += 1
            request, pk = _RQ_READ, _PK_READ_REQ
        elif (
            self.p.upgrade_optimization
            and self.caches[node].state(line) is LineState.SHARED
        ):
            self.stats.upgrades += 1
            request, pk = _RQ_UPGRADE, _PK_UPGRADE_REQ
        else:
            self.stats.write_misses += 1
            request, pk = _RQ_WRITE, _PK_WRITE_REQ
        home = line >> NODE_SHIFT  # home_of, inlined
        req = _HomeReq(request, node, line)
        if home == node:
            self.stats.local_transactions += 1
            self.sim.call_after(
                self.p.request_issue, lambda: self._home_enqueue(home, req)
            )
        else:
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
        elif (kind is _PK_READ_REQ or kind is _PK_WRITE_REQ
              or kind is _PK_UPGRADE_REQ or kind is _PK_WRITEBACK):
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
        """Run one transaction at its line's home: read the directory
        entry, see it as the requester does, look the row up in
        ``self.table`` and run the row's leg."""
        line, node, kind = req.line, req.node, req.kind
        d = self.dirs[home]
        table = self.table
        while True:
            entry = d.entry(line)
            state = entry.state
            if state is _DS_UNOWNED:
                seen = _SEEN_UNOWNED
            elif state is _DS_SHARED:
                seen = _SEEN_SHARER if node in entry.sharers else _SEEN_SHARED
            elif entry.owner == node:
                seen = _SEEN_SELF_OWNED
            elif entry.owner == home:
                seen = _SEEN_HOME_OWNED
            else:
                seen = _SEEN_OWNED
            leg, grant, then = table[kind, seen]
            if leg is _LEG_FORGET:
                d.forget(line, node, entry)
            if then is None:
                break
            kind = then

        if kind is _RQ_WRITEBACK:
            # carries the line's data, but pays neither the LimitLESS
            # trap nor the local discount
            self.stats.writebacks += 1
            self._occupy(home, False, with_data=True)
            self._line_release(home, line)
            return
        data = kind is not _RQ_UPGRADE
        ready = self._occupy(home, d.overflowed(entry), data, node)
        if leg is _LEG_NONE:
            self._grant(home, node, line, grant, ready, data)
        elif leg is _LEG_INVALIDATE:
            self._invalidate_sharers(home, node, line, grant, ready, data)
        else:  # FORWARD or OWN_COPY: the owner gives the line up
            owner = entry.owner
            self.stats.forwards += 1
            d.stats.forwards += 1

            def written_back(earliest: int | None = None) -> None:
                at = self.ports[home].acquire(self.p.home_data_occupancy, earliest)
                self._grant(home, node, line, grant, at, True, owner)

            if leg is _LEG_OWN_COPY:
                self._apply_or_defer(
                    home, line, lambda: self._give_up(home, line, grant)
                )
                written_back(ready)
            else:
                self.sim.call_at(
                    ready,
                    lambda: self._send(
                        home, owner, _PK_FORWARD, self.p.inv_words,
                        (grant, line, home, written_back),
                    ),
                )

    def _invalidate_sharers(self, home: int, node: int, line: int,
                            grant: LineState, ready: int, data: bool) -> None:
        """Invalidate every sharer but ``node``, collect the acks at the
        home, then grant ``node`` exclusivity."""
        d = self.dirs[home]
        invs = d.sharers_to_invalidate(line, excluding=node)
        if not invs:
            self._grant(home, node, line, grant, ready, data)
            return
        self.stats.invalidations += len(invs)
        d.stats.invalidations_sent += len(invs)
        remaining = len(invs)

        def on_ack() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                at = self.ports[home].acquire(self.p.home_ctrl_occupancy)
                self._grant(home, node, line, grant, at, data)

        port = self.ports[home]
        send_at = ready
        for sharer in invs:
            send_at = port.acquire(self.p.inv_issue, earliest=send_at)
            if sharer == home:  # the home's own copy: no network
                self.sim.call_at(
                    send_at, lambda: self._invalidate_copy(home, line, on_ack)
                )
            else:
                self.sim.call_at(
                    send_at,
                    lambda s=sharer: self._send(
                        home, s, _PK_INVALIDATE,
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
            self.dirs[home].stats.software_traps += 1
            if self.on_software_trap is not None:
                self.on_software_trap(home, self.p.trap_cycles)
        return self.ports[home].acquire(occ)

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

    def _invalidate_copy(self, node: int, line: int, ack: OnDone) -> None:
        """Drop ``node``'s copy of ``line``, then ``ack``."""

        def do_inv() -> None:
            self.caches[node].invalidate(line)
            ack()

        self._apply_or_defer(node, line, do_inv)

    def _on_invalidate(self, packet: Packet) -> None:
        line, home, on_ack = packet.payload
        dst = packet.dst
        self._invalidate_copy(dst, line, lambda: self._send(
            dst, home, _PK_INV_ACK, self.p.ack_words, on_ack))

    def _give_up(self, owner: int, line: int, grant: LineState) -> None:
        """The owner's side of a forward: it keeps a SHARED copy when
        the requester is granted SHARED and drops the line otherwise
        (a no-op if it already evicted the line)."""
        cache = self.caches[owner]
        if cache.state(line) is not LineState.INVALID:
            if grant is _LS_SHARED:
                cache.set_state(line, LineState.SHARED)
            else:
                cache.invalidate(line)

    def _on_forward(self, packet: Packet) -> None:
        grant, line, home, continuation = packet.payload
        owner = packet.dst

        def do_forward() -> None:
            self._give_up(owner, line, grant)
            # Data-bearing writeback to the home (stale-safe: sent even
            # if the line was already evicted — values live in the
            # store). The ACK_REPLY kind routes the continuation back
            # into the pending transaction rather than opening a new one.
            words = self.p.data_reply_words(self.line_size)
            self._send(owner, home, _PK_ACK_REPLY, words, continuation)

        self._apply_or_defer(owner, line, do_forward)

    # ------------------------------------------------------------------
    # Grant / reply / fill
    # ------------------------------------------------------------------
    def _grant(self, home: int, requester: int, line: int, state: LineState,
               at: int, with_data: bool = True, owner: int = -1) -> None:
        """Record the requester's new copy in the home directory and
        send it the ``state`` fill at cycle ``at``. ``owner`` gave the
        line up for this grant; a reader leaves it a SHARED copy."""
        d = self.dirs[home]
        if state is _LS_SHARED:
            if owner >= 0:
                d.clear(line)
                d.add_sharer(line, owner)
            d.add_sharer(line, requester)
        else:
            d.set_exclusive(line, requester)
        words = (
            self.p.data_reply_words(self.line_size) if with_data else self.p.ack_words
        )
        pk = _PK_DATA_REPLY if with_data else _PK_ACK_REPLY
        txn = self._mshr[requester].get(line)
        if txn is not None:
            # from here on, invalidations/forwards for this line may
            # legally overtake the reply and must be deferred
            txn.reply_in_flight = True

        # the home==requester decision is known now; build the cheaper
        # of the two deliver closures instead of branching at fire time
        fill = lambda: self._fill(requester, line, state)
        if home == requester:
            issue = self.p.request_issue
            call_after = self.sim.call_after

            def deliver() -> None:
                call_after(issue, fill)
        else:
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
        req = _HomeReq(_RQ_WRITEBACK, node, line)
        words = self.p.data_reply_words(self.line_size)
        if home == node:
            self._home_enqueue(home, req)
        else:
            self._send(node, home, _PK_WRITEBACK, words, req)

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
            if d is not None:
                d.forget(line, node, d.entry(line))
            if prior is LineState.MODIFIED:
                dirty += 1
        return dirty
