"""Wormhole-routed mesh network timing model.

A packet's head flit advances one hop per ``hop_latency`` cycles; the
body streams behind it at the channel bandwidth, so an uncontended
packet arrives after::

    hops * hop_latency + size_words * cycles_per_word

Contention is modelled per directed link: a link is occupied for the
time the packet body takes to stream across it, and later packets
queue behind (FIFO per link). This is the property that makes
hot-spot effects (e.g. serialization at a combining-tree parent or a
directory home node) visible to the experiments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.network.packet import Packet
from repro.network.topology import Mesh2D
from repro.sim.engine import Resource, SimulationError, Simulator

DeliverFn = Callable[[Packet], None]


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters.

    The fault counters are bumped by an installed
    :class:`~repro.faults.FaultInjector` send policy; they stay zero
    on a healthy fabric.
    """

    packets: int = 0
    words: int = 0
    by_kind: Counter = field(default_factory=Counter)
    total_latency: int = 0
    # fault injection (see repro.faults)
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    outage_drops: int = 0
    stalls: int = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.packets if self.packets else 0.0

    @property
    def faults_injected(self) -> int:
        """Total injected fault events of every kind."""
        return (
            self.dropped + self.duplicated + self.delayed
            + self.reordered + self.outage_drops + self.stalls
        )

    def reset(self) -> None:
        """Zero every counter (e.g. after warm-up, before the measured
        phase of an experiment)."""
        self.packets = 0
        self.words = 0
        self.by_kind.clear()
        self.total_latency = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.outage_drops = 0
        self.stalls = 0


class Network:
    """The mesh interconnect: injects packets, delivers to node sinks."""

    #: probe points (repro.sim.probe). before_send with (packet,) and
    #: after_send with (packet, arrival) fire only for packets the
    #: fabric really injects; the installed send policy fires
    #: after_fault with (node, fault, detail) for each fault it injects
    PROBES = ("before_send", "after_send", "after_fault")

    def __init__(
        self,
        sim: Simulator,
        mesh: Mesh2D,
        hop_latency: int = 2,
        bandwidth_bytes_per_cycle: float = 2.0,
        local_loopback_latency: int = 2,
        injection_latency: int = 1,
    ) -> None:
        if hop_latency < 0 or local_loopback_latency < 0 or injection_latency < 0:
            raise ValueError("latencies must be non-negative")
        if bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.mesh = mesh
        self.hop_latency = hop_latency
        self.cycles_per_word = 4.0 / bandwidth_bytes_per_cycle
        self.local_loopback_latency = local_loopback_latency
        self.injection_latency = injection_latency
        #: directed link (a, b) -> its occupancy, in first-use order
        self._links: dict[tuple[int, int], Resource] = {}
        self._sinks: dict[int, DeliverFn] = {}
        #: (src, dst) -> the Resource chain of its route, resolved at
        #: the pair's first send: the fabric's only route memo
        self._route_links: dict[tuple[int, int], list[Resource]] = {}
        #: size_words -> ceil(words * cycles_per_word): protocol packets
        #: come in a handful of fixed sizes, so the per-packet float
        #: ceil math collapses to a dict probe
        self._body_cache: dict[int, int] = {}
        self.stats = NetworkStats()
        #: send policy deciding each packet's fate before injection (a
        #: repro.faults.FaultInjector); None on a healthy fabric
        self.faults = None
        self.before_send = self.after_send = self.after_fault = ()

    # ------------------------------------------------------------------
    def attach(self, node: int, sink: DeliverFn) -> None:
        """Register the packet consumer for ``node`` (its CMMU)."""
        if node in self._sinks:
            raise SimulationError(f"node {node} already attached")
        self._sinks[node] = sink

    def _resolve(self, src: int, dst: int) -> list[Resource]:
        """Route the pair once and memoize its link chain: one
        ``_links`` lookup per hop, a new link made on first use."""
        links = self._links
        chain = []
        for key in self.mesh.route(src, dst):
            link = links.get(key)
            if link is None:
                link = links[key] = Resource(self.sim)
            chain.append(link)
        self._route_links[(src, dst)] = chain
        return chain

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> int:
        """Inject ``packet``; returns the (predicted) delivery cycle.

        Delivery invokes the destination node's sink exactly at the
        returned cycle. An installed fault policy sees the packet
        first: ``faults.route(packet)`` returns None to let it through,
        or the cycle to report for a packet it dropped or held back.
        """
        if self.faults is not None:
            held = self.faults.route(packet)
            if held is not None:
                return held
        for fn in self.before_send:
            fn(packet)
        if packet.dst not in self._sinks:
            raise SimulationError(f"no sink attached at node {packet.dst}")
        now = self.sim.now
        if packet.cycles_per_word_override is None:
            body_cycles = self._body_cache.get(packet.size_words)
            if body_cycles is None:
                body_cycles = int(-(-packet.size_words * self.cycles_per_word // 1))
                self._body_cache[packet.size_words] = body_cycles
        else:
            cpw = packet.cycles_per_word_override
            if cpw < self.cycles_per_word:
                cpw = self.cycles_per_word  # links cannot stream faster than wires
            body_cycles = int(-(-packet.size_words * cpw // 1))

        if packet.src == packet.dst:
            arrival = now + self.local_loopback_latency + body_cycles
        else:
            links = self._route_links.get((packet.src, packet.dst))
            if links is None:
                links = self._resolve(packet.src, packet.dst)
            head = now + self.injection_latency
            tail = head
            hop = self.hop_latency
            for link in links:
                start = head + hop
                avail = link.busy_until
                if avail > start:
                    start = avail
                link.busy_until = start + body_cycles
                link.total_busy += body_cycles
                head = start
                tail = start + body_cycles
            arrival = tail

        stats = self.stats
        stats.packets += 1
        stats.words += packet.size_words
        stats.by_kind[packet.kind] += 1
        stats.total_latency += arrival - now
        sink = self._sinks[packet.dst]
        self.sim.call_after(arrival - now, lambda: sink(packet))
        for fn in self.after_send:
            fn(packet, arrival)
        return arrival

    def link_utilization(self) -> dict[tuple[int, int], int]:
        """Total busy cycles per directed link (for diagnostics)."""
        return {k: r.total_busy for k, r in self._links.items()}

    def register_metrics(self, reg, **labels) -> None:
        """Register this fabric's instruments (lazy reads, no hot-path
        cost) into a :class:`~repro.obs.metrics.MetricsRegistry`."""
        s = self.stats
        labels = {"component": "network", **labels}
        reg.counter("net.packets", lambda: s.packets, **labels)
        reg.counter("net.words", lambda: s.words, **labels)
        reg.counter("net.total_latency", lambda: s.total_latency, **labels)
        reg.gauge("net.mean_packet_latency", lambda: s.mean_latency, **labels)
        reg.counter("net.faults_injected", lambda: s.faults_injected, **labels)
        for fault in ("dropped", "duplicated", "delayed", "reordered",
                      "outage_drops", "stalls"):
            reg.counter(f"net.fault.{fault}",
                        lambda f=fault: getattr(s, f), **labels)
        for kind in list(self.stats.by_kind):
            reg.counter("net.packets_by_kind",
                        lambda k=kind: s.by_kind.get(k, 0),
                        kind=kind.value, **labels)
        reg.counter(
            "net.link_busy_cycles",
            lambda: sum(r.total_busy for r in self._links.values()),
            **labels,
        )
        reg.gauge("net.links", lambda: len(self._links), **labels)
