"""Shared helpers for experiment drivers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.sweep import SweepPoint


def sweep_map(points: "Sequence[SweepPoint]", jobs: int | None = 1) -> list[Any]:
    """Run a sweep through :class:`~repro.perf.sweep.SweepRunner`.

    The one seam every experiment shares, so all of them pick up the
    persistent worker pool and — when a run cache is active
    (``repro.perf.cache.activate`` / the CLI's default) — incremental
    cached execution, without per-experiment plumbing."""
    from repro.perf.sweep import SweepRunner

    return SweepRunner(jobs).map(points)


def make_machine(n_nodes: int = 64, **cfg_kw: Any) -> Machine:
    """Build a machine; if an observation session is active
    (``repro.obs.session``), attach its observers at construction time
    so every experiment is observable without its own plumbing."""
    from repro.obs.session import current as obs_current

    m = Machine(MachineConfig(n_nodes=n_nodes, **cfg_kw))
    s = obs_current()
    if s is not None:
        s.observe(m)
    return m


def run_thread_timed(machine: Machine, gen: Generator) -> tuple[Any, int]:
    """Run one thread on node 0 to completion; returns (result, cycles)."""
    box: dict[str, Any] = {}

    def fin(v: Any) -> None:
        box["result"] = v
        box["cycles"] = machine.sim.now

    t0 = machine.sim.now
    machine.processor(0).run_thread(gen, on_finish=fin)
    machine.run()
    if "cycles" not in box:
        raise SimulationError("measured thread never finished")
    return box["result"], box["cycles"] - t0
