"""Protocol-variant identity guard.

``tests/golden/cycle_identity.json`` runs every experiment under the
default MSI protocol only. This file pins the other protocol tables
and the machine features that reach the home side of the coherence
engine differently: MESI, the upgrade optimization, LimitLESS traps
on the home CPU with one hardware pointer, tiny caches (eviction
writebacks), and two hardware contexts with a store buffer. For each
(variant, workload) pair ``tests/golden/protocol_variants.json`` holds
the simulated cycles, events, the workload's result, the coherence
and directory counter totals, and a SHA-256 over every metric row of
the machine. A refactor of the protocol engine must reproduce all of
them exactly. Each case's cycle-attribution profile must also be the
same whether its processors run the batch runners or ``micro()``.

Regenerate (only for an intentional model change, and say so):

    PYTHONPATH=src python tests/test_protocol_variants.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps.grain import grain_parallel
from repro.machine import Machine, MachineConfig
from repro.memory import CoherenceParams
from repro.obs.metrics import collect_machine
from repro.obs.profiler import CycleProfiler
from repro.params import ProcessorParams
from repro.proc import Compute, FetchOp, Load, Prefetch, Store
from repro.runtime import Runtime
from repro.runtime.barrier import SMTreeBarrier
from repro.sim.probe import Subscriptions

GOLDEN = Path(__file__).parent / "golden" / "protocol_variants.json"

VARIANTS = {
    "msi": lambda: {},
    "mesi": lambda: dict(coherence=CoherenceParams(mesi=True)),
    "upgrade": lambda: dict(
        coherence=CoherenceParams(upgrade_optimization=True)),
    "mesi_upgrade": lambda: dict(
        coherence=CoherenceParams(mesi=True, upgrade_optimization=True)),
    "limitless_cpu": lambda: dict(
        dir_hw_pointers=1,
        coherence=CoherenceParams(limitless_trap_on_cpu=True)),
    "cache4": lambda: dict(cache_lines=4),
    "contexts2_store_buffer": lambda: dict(
        processor=ProcessorParams(hw_contexts=2, store_buffer_depth=4)),
    # the variants combined: E fills, upgrades, overflow traps, stale
    # owners and eviction writebacks on one machine
    "mesi_upgrade_cache4_ptr1": lambda: dict(
        cache_lines=4, dir_hw_pointers=1,
        coherence=CoherenceParams(mesi=True, upgrade_optimization=True)),
}

MAX_EVENTS = 2_000_000


def _grain(kind):
    def run(m):
        rt = Runtime(m, scheduler=kind)
        result, _cycles = rt.run_to_completion(
            0, lambda rt, nd: grain_parallel(rt, nd, 5, 40),
            max_events=MAX_EVENTS,
        )
        return result
    return run


def _sm_barrier(m):
    barrier = SMTreeBarrier(m, arity=2)
    leaves = []

    def participant(node):
        for _ in range(3):
            yield from barrier.enter(node)
            yield Compute(1 + node)
        leaves.append(m.sim.now)

    for node in range(m.n_nodes):
        m.processor(node).run_thread(participant(node))
    m.run(max_events=MAX_EVENTS)
    return max(leaves)


def _mixed(m):
    """Loads, stores, prefetches and fetch-and-ops from every node over
    three lines per home, the home nodes' own lines included."""
    addrs = [m.alloc(home, 48) + off
             for home in range(m.n_nodes) for off in (0, 16, 32)]
    totals = []

    def worker(node):
        total = 0
        for i in range(12):
            addr = addrs[(node * 5 + i * 7) % len(addrs)]
            op = (node + i) % 4
            if op == 0:  # read, then write the line it now shares
                total += yield Load(addr)
                yield Store(addr, total)
            elif op == 1:
                yield Store(addr, node * 100 + i)
            elif op == 2:
                yield Prefetch(addr)
                yield Compute(5)
                total += yield Load(addr)
            else:
                total += yield FetchOp(addr, lambda v: v + 1)
            yield Compute(3)
        totals.append(total)

    for node in range(m.n_nodes):
        m.processor(node).run_thread(worker(node))
    m.run(max_events=MAX_EVENTS)
    return sorted(totals)


WORKLOADS = {
    "grain_sm": (8, _grain("sm")),
    "grain_hybrid": (8, _grain("hybrid")),
    "sm_barrier": (8, _sm_barrier),
    "mixed": (4, _mixed),
}


def capture(variant: str, workload: str) -> dict:
    n_nodes, body = WORKLOADS[workload]
    m = Machine(MachineConfig(n_nodes=n_nodes, **VARIANTS[variant]()))
    result = body(m)
    rows = collect_machine(m).rows
    totals: dict[str, float] = {}
    for row in rows:
        if row["name"].startswith(("coh.", "dir.")):
            totals[row["name"]] = totals.get(row["name"], 0) + row["value"]
    digest = hashlib.sha256(json.dumps(
        sorted(rows, key=lambda r: json.dumps(r, sort_keys=True)),
        sort_keys=True, default=str,
    ).encode()).hexdigest()
    return {
        "cycles": m.sim.now,
        "events": m.sim.events_processed,
        "result": result,
        "totals": dict(sorted(totals.items())),
        "rows_sha256": digest,
    }


CASES = [(v, w) for v in VARIANTS for w in WORKLOADS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert set(golden) == {f"{v}/{w}" for v, w in CASES}


@pytest.mark.parametrize("variant,workload", CASES)
def test_protocol_variant_identical(variant, workload, golden):
    got = json.loads(json.dumps(capture(variant, workload)))
    assert got == golden[f"{variant}/{workload}"], (
        f"{variant}/{workload}: cycles, events or metrics moved"
    )


def profile(variant: str, workload: str, micro: bool) -> dict:
    """The cycle-attribution profile of one case. ``micro`` forces the
    micro path with a no-op ``before_execute`` subscriber; otherwise the
    profiled processors run the (reporting) batch runners."""
    n_nodes, body = WORKLOADS[workload]
    m = Machine(MachineConfig(n_nodes=n_nodes, **VARIANTS[variant]()))
    prof = CycleProfiler(m)
    if micro:
        subs = Subscriptions()
        for node in m.nodes:
            subs.add(node.processor, "before_execute", lambda ctx, eff: None)
    body(m)
    return prof.as_dict()


@pytest.mark.parametrize("variant,workload", CASES)
def test_profile_does_not_depend_on_the_path(variant, workload):
    assert profile(variant, workload, micro=False) == profile(
        variant, workload, micro=True)


if __name__ == "__main__":
    data = {f"{v}/{w}": capture(v, w) for v, w in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)
