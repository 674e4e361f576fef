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


def partitioned_map(
    points: "Sequence[SweepPoint]", partitions: int, n_nodes: int
) -> list[Any]:
    """Run each sweep point split across ``partitions`` shard workers
    (repro.perf.partition) — parallelism *within* a run instead of
    across runs, for machine sizes one process cannot turn over fast
    enough. Points run one after another (each already fans out), with
    the same progress-event shapes SweepRunner emits so job progress
    and the CLI ticker work unchanged."""
    from repro.obs.session import current as obs_current
    from repro.perf.partition import run_partitioned
    from repro.perf.progress import current as progress_current, point_label

    notify = progress_current()
    if notify is not None:
        notify({"event": "sweep_start", "points": len(points), "cached": 0})
    sess = obs_current()
    obs_cfg = sess.cfg if sess is not None else None
    out = []
    for i, point in enumerate(points):
        out.append(
            run_partitioned(
                point.fn, dict(point.kwargs), n_nodes, partitions,
                obs_cfg=obs_cfg,
            )
        )
        if notify is not None:
            notify({
                "event": "point",
                "index": i,
                "label": point_label(point, i),
                "cached": False,
            })
    return out


def make_machine(n_nodes: int = 64, **cfg_kw: Any) -> Machine:
    """Build a machine; if an observation session is active
    (``repro.obs.session``), attach its observers at construction time
    so every experiment is observable without its own plumbing.
    Inside a partition worker (``repro.perf.partition``) the machine is
    built shard-aware, again with no per-experiment plumbing."""
    from repro.perf.partition import current_shard

    m = Machine(MachineConfig(n_nodes=n_nodes, **cfg_kw), shard=current_shard())
    from repro.obs.session import current as obs_current

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
