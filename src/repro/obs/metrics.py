"""Typed metrics instruments and the machine-wide registry.

Design: the simulator's components already keep cheap dataclass
counters on their hot paths (``CacheStats``, ``NetworkStats``, ...).
Instruments therefore *read* those counters lazily instead of being
incremented inline — registering a machine costs nothing during the
run, and an unobserved machine pays nothing at all. Each component
exposes ``register_metrics(registry, **labels)``; collection walks
the machine once and freezes every instrument into a
:class:`MetricsSnapshot` of plain data (picklable, mergeable across
:class:`~repro.perf.sweep.SweepRunner` workers).

Instrument types:

* :class:`Counter` — monotonically increasing count (merge: sum).
* :class:`Gauge` — point-in-time value (merge: count-weighted mean).
* :class:`Histogram` — bucketed distribution with explicit bounds,
  observed into directly (the sampler feeds these); merge: per-bucket
  sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted(labels.items()))


@dataclass
class Counter:
    """A monotonically-increasing count, read lazily from its source."""

    name: str
    labels: dict[str, Any]
    read: Callable[[], int | float]
    kind = "counter"


@dataclass
class Gauge:
    """A point-in-time value (utilization, rate, occupancy)."""

    name: str
    labels: dict[str, Any]
    read: Callable[[], int | float]
    kind = "gauge"


class Histogram:
    """A bucketed distribution with explicit upper bounds.

    ``observe(v)`` is O(#bounds); the final bucket is +inf. Unlike
    Counter/Gauge this instrument holds its own state — it exists for
    observers (e.g. the time-series sampler) that see a stream of
    values rather than a component counter.
    """

    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...], labels: dict[str, Any]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = 0
        for bound in self.bounds:
            if value <= bound:
                break
            i += 1
        self.counts[i] += 1
        self.total += value
        self.count += 1

    def read(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Holds every instrument registered for one machine."""

    def __init__(self) -> None:
        self._instruments: list[Any] = []
        self._seen: set[tuple[str, tuple]] = set()

    def _add(self, inst: Any) -> Any:
        key = (inst.name, _label_key(inst.labels))
        if key in self._seen:
            raise ValueError(f"duplicate instrument {inst.name} {inst.labels}")
        self._seen.add(key)
        self._instruments.append(inst)
        return inst

    def counter(self, name: str, read: Callable[[], int | float], **labels: Any) -> Counter:
        return self._add(Counter(name, labels, read))

    def gauge(self, name: str, read: Callable[[], int | float], **labels: Any) -> Gauge:
        return self._add(Gauge(name, labels, read))

    def histogram(self, name: str, bounds: tuple[float, ...], **labels: Any) -> Histogram:
        return self._add(Histogram(name, bounds, labels))

    def attach(self, inst: Histogram) -> Histogram:
        """Adopt an externally-created instrument (e.g. the sampler's
        histograms) so it appears in the snapshot."""
        return self._add(inst)

    def __len__(self) -> int:
        return len(self._instruments)

    def collect(self) -> "MetricsSnapshot":
        """Freeze every instrument's current value into plain data."""
        rows = [
            {
                "name": inst.name,
                "kind": inst.kind,
                "labels": dict(inst.labels),
                "value": inst.read(),
            }
            for inst in self._instruments
        ]
        return MetricsSnapshot(rows)


@dataclass
class MetricsSnapshot:
    """Frozen metric values: plain data, queryable and mergeable."""

    rows: list[dict[str, Any]] = field(default_factory=list)
    #: how many snapshots were merged into this one (gauge weighting)
    merged_from: int = 1

    # -- queries -------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Any:
        """The value of the single instrument matching name + labels."""
        matches = [
            r["value"]
            for r in self.rows
            if r["name"] == name and all(r["labels"].get(k) == v for k, v in labels.items())
        ]
        if not matches:
            raise KeyError(f"no metric {name!r} with labels {labels}")
        if len(matches) > 1:
            raise KeyError(f"metric {name!r} with labels {labels} is ambiguous "
                           f"({len(matches)} matches); add labels or use total()")
        return matches[0]

    def total(self, name: str, **labels: Any) -> float:
        """Sum of every counter/gauge matching name + label subset."""
        return sum(
            r["value"]
            for r in self.rows
            if r["name"] == name and all(r["labels"].get(k) == v for k, v in labels.items())
        )

    def names(self) -> list[str]:
        return sorted({r["name"] for r in self.rows})

    # -- merge ---------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold ``other`` into self: counters and histogram buckets sum,
        gauges become a count-weighted mean over the merged snapshots."""
        index = {(r["name"], _label_key(r["labels"])): r for r in self.rows}
        for r in other.rows:
            key = (r["name"], _label_key(r["labels"]))
            mine = index.get(key)
            if mine is None:
                row = {k: (dict(v) if isinstance(v, dict) else v) for k, v in r.items()}
                self.rows.append(row)
                index[key] = row
                continue
            if r["kind"] != mine["kind"]:
                raise ValueError(f"metric {r['name']} kind mismatch on merge")
            if r["kind"] == "counter":
                mine["value"] += r["value"]
            elif r["kind"] == "gauge":
                w_mine, w_other = self.merged_from, other.merged_from
                mine["value"] = (
                    mine["value"] * w_mine + r["value"] * w_other
                ) / (w_mine + w_other)
            else:  # histogram
                if mine["value"]["bounds"] != r["value"]["bounds"]:
                    raise ValueError(f"histogram {r['name']} bounds mismatch on merge")
                mine["value"]["counts"] = [
                    a + b for a, b in zip(mine["value"]["counts"], r["value"]["counts"])
                ]
                mine["value"]["sum"] += r["value"]["sum"]
                mine["value"]["count"] += r["value"]["count"]
        self.merged_from += other.merged_from

    def as_dict(self) -> dict[str, Any]:
        return {"merged_from": self.merged_from, "rows": self.rows}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MetricsSnapshot":
        return cls(rows=d["rows"], merged_from=d.get("merged_from", 1))


def collect_machine(
    machine: "Machine", extra: tuple = (), runtime: Any = None
) -> MetricsSnapshot:
    """Build a registry over every component of ``machine`` and freeze it.

    This is the single entry point `analysis/report.py` and the
    observation session both use. ``extra`` adopts already-populated
    instruments (sampler histograms); ``runtime`` defaults to the
    runtime the machine registered (if any) for scheduler metrics.
    """
    reg = MetricsRegistry()
    machine.network.register_metrics(reg)
    machine.coherence.register_metrics(reg)
    for node in machine.nodes:
        node.cache.register_metrics(reg, node=node.node_id)
        node.directory.register_metrics(reg, node=node.node_id)
        node.cmmu.register_metrics(reg, node=node.node_id)
        node.processor.register_metrics(reg, node=node.node_id)
    rt = runtime if runtime is not None else getattr(machine, "runtime", None)
    if rt is not None:
        for sched in rt.schedulers:
            sched.register_metrics(reg, node=sched.node)
    reg.gauge("sim.cycles", lambda: machine.sim.now)
    reg.counter("sim.events_processed", lambda: machine.sim.events_processed)
    for inst in extra:
        reg.attach(inst)
    return reg.collect()
