"""Periodic time-series sampler (simulator-scheduled).

Records machine state every ``interval`` simulated cycles so
phase behaviour — barrier convergence, traffic bursts, queue
build-up — is visible over time instead of being averaged away in
end-of-run counters.

The tick is a *daemon event* (:meth:`Simulator.call_daemon`): daemon
events fire while model work remains but never keep the run alive and
never advance ``sim.now`` past the last model event, so a sampled
machine reports exactly the same cycle counts as an unsampled one
(the observed-vs-unobserved guard in ``tests/test_cycle_identity.py``
pins this). Samples read existing counters only; the single probe
subscription (the fabric's ``after_send``, to track in-flight packets)
records into a local heap.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram
from repro.sim.probe import Subscriptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: sample columns, in row order
SAMPLE_FIELDS = (
    "time",
    "in_flight_packets",
    "packets_delta",
    "link_busy_frac",
    "cache_hit_rate",
    "sched_queue_depth",
)


class TimeSampler:
    """Samples a machine every ``interval`` cycles.

    ``samples`` is a list of dicts (one per tick, ``SAMPLE_FIELDS``
    keys). ``max_samples`` caps memory on very long runs; once full,
    further ticks stop rescheduling and ``dropped`` counts them.
    """

    def __init__(
        self, machine: "Machine", interval: int, max_samples: int = 100_000
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.machine = machine
        self.interval = interval
        self.max_samples = max_samples
        self.samples: list[dict] = []
        self.dropped = 0
        self._arrivals: list[int] = []  # min-heap of in-flight delivery times
        self._last = {"packets": 0, "link_busy": 0, "hits": 0, "misses": 0}
        self._subs = Subscriptions()
        #: histograms fed per tick; adopted into the metrics snapshot
        self.histograms = (
            Histogram("sample.in_flight_packets",
                      (0, 1, 2, 4, 8, 16, 32, 64, 128), {"component": "sampler"}),
            Histogram("sample.link_busy_frac",
                      (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9), {"component": "sampler"}),
            Histogram("sample.sched_queue_depth",
                      (0, 1, 2, 4, 8, 16, 32), {"component": "sampler"}),
        )
        self.attach()

    @property
    def attached(self) -> bool:
        return self._subs.active

    def attach(self) -> None:
        if self.attached:
            raise RuntimeError("sampler is already attached")
        arrivals = self._arrivals

        def sent(packet, arrival):
            heapq.heappush(arrivals, arrival)

        self._subs.add(self.machine.network, "after_send", sent)
        self.machine.sim.call_daemon(self.interval, self._tick)

    def detach(self) -> None:
        """Stop tracking sends; any still-queued tick becomes a no-op
        at fire time (it never fires after the run anyway). Idempotent."""
        self._subs.clear()

    def __enter__(self) -> "TimeSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.attached:
            return
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return  # stop rescheduling: the series is full
        self.samples.append(self._sample())
        sim = self.machine.sim
        # reschedule only while model (non-daemon) events remain: the
        # drain already stops at a daemon once no model event is left,
        # and this only avoids queuing a tick that would never fire
        if sim._live > sim._daemons:
            sim.call_daemon(self.interval, self._tick)

    def _sample(self) -> dict:
        m = self.machine
        now = m.sim.now
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= now:
            heapq.heappop(arrivals)
        in_flight = len(arrivals)

        net = m.network.stats
        last = self._last
        packets_delta = net.packets - last["packets"]
        link_busy = sum(r.total_busy for r in m.network._links.values())
        busy_delta = link_busy - last["link_busy"]
        n_links = max(1, len(m.network._links))
        link_busy_frac = min(1.0, busy_delta / (self.interval * n_links))

        hits = sum(n.cache.stats.hits for n in m.nodes)
        misses = sum(n.cache.stats.misses for n in m.nodes)
        dh, dm = hits - last["hits"], misses - last["misses"]
        hit_rate = dh / (dh + dm) if (dh + dm) else 1.0

        rt = m.runtime
        depth = (
            sum(s.queue_length() for s in rt.schedulers) if rt is not None else 0
        )

        self._last = {
            "packets": net.packets, "link_busy": link_busy,
            "hits": hits, "misses": misses,
        }
        h_inflight, h_busy, h_depth = self.histograms
        h_inflight.observe(in_flight)
        h_busy.observe(link_busy_frac)
        h_depth.observe(depth)
        return {
            "time": now,
            "in_flight_packets": in_flight,
            "packets_delta": packets_delta,
            "link_busy_frac": round(link_busy_frac, 4),
            "cache_hit_rate": round(hit_rate, 4),
            "sched_queue_depth": depth,
        }

    # ------------------------------------------------------------------
    def format_table(self, limit: int = 30) -> str:
        from repro.analysis.tables import format_table

        rows = self.samples[:limit]
        title = f"time series (every {self.interval} cycles"
        if len(self.samples) > limit:
            title += f", first {limit} of {len(self.samples)}"
        return format_table(title + ")", list(SAMPLE_FIELDS), rows)

    def as_dict(self) -> dict:
        return {
            "interval": self.interval,
            "fields": list(SAMPLE_FIELDS),
            "dropped": self.dropped,
            "samples": list(self.samples),
        }
