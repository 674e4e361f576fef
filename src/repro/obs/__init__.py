"""Machine-wide observability: metrics, profiling, sampling, export.

The four pillars (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — typed Counter/Gauge/Histogram instruments
  with per-node and per-component labels, collected into a
  :class:`~repro.obs.metrics.MetricsSnapshot` from the counters every
  component already keeps (zero hot-path cost).
* :mod:`repro.obs.profiler` — cycle-attribution profiler: every
  simulated cycle of every node lands in exactly one bucket (compute,
  cache-hit, remote-miss stall, handler, message send, DMA, runtime,
  idle), so the buckets sum to the node's total simulated cycles.
* :mod:`repro.obs.sampler` — periodic time-series sampler built on the
  engine's daemon events (in-flight packets, link busy fraction, cache
  hit rate, scheduler queue depth).
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export
  and the machine-readable ``run.json`` manifest.

Everything is pay-for-what-you-use: an unobserved machine runs no
observer code (the profiler, sampler and tracer subscribe to one
machine's probe points, :mod:`repro.sim.probe`), and attaching
observers never changes simulated cycle counts.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    collect_machine,
)
from repro.obs.profiler import BUCKETS, CycleProfiler
from repro.obs.sampler import TimeSampler
from repro.obs.session import ObsConfig, ObsSession, current, session

__all__ = [
    "BUCKETS",
    "Counter",
    "CycleProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsConfig",
    "ObsSession",
    "TimeSampler",
    "collect_machine",
    "current",
    "session",
]
