"""The in-process workloads: seeded lists of simulations.

Every operation builds one machine through the package's public
constructors and returns ``(machine, drain)``. ``drain()`` runs the
machine to completion, applies the application's own value check and
returns the operation's result values (simulated cycles included).
Construction and drain are timed apart by the caller, so machine
construction lands in set-up time and the event loop in run time.

The seed reaches the program only as kwargs: the RTI scheduler seed,
the loss-plan seed, the accum array contents and which grain run gets
which of a fixed set of steal schedules (see ``grain``).
"""

from __future__ import annotations

import numpy as np

from repro import (
    BulkTransfer,
    Compute,
    FaultInjector,
    MPTreeBarrier,
    ReliableLayer,
    Runtime,
    SMTreeBarrier,
    lossy_plan,
)
from repro.apps.accum import accum_shared_memory, fill_array
from repro.apps.grain import grain_parallel
from repro.apps.jacobi import JacobiApp, initial_grid, reference_jacobi
from repro.experiments.common import make_machine
from repro.proc.effects import ComputeLoad
from repro.runtime.bulk import copy_no_prefetch, copy_prefetch

#: packet loss rate of the message-passing workload's reliable operations
LOSS = 0.05


class CheckFailed(Exception):
    """An application's own value check rejected a result."""


def _run_on_node0(m, gen):
    """Queue ``gen`` on node 0; the returned drain runs it and returns
    (result, cycles)."""
    box = {}

    def fin(value):
        box["result"] = value

    m.processor(0).run_thread(gen, on_finish=fin)

    def drain():
        t0 = m.sim.now
        m.run()
        if "result" not in box:
            raise CheckFailed("measured thread never finished")
        return box["result"], m.sim.now - t0

    return drain


def _check_words(m, addr, n_words, expect):
    for i in range(n_words):
        if m.store.read(addr + i * 8) != expect(i):
            raise CheckFailed(f"destination word {i} is wrong")


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def jacobi(seed, mode, nodes, grid, iters):
    m = make_machine(nodes)
    app = JacobiApp(m, grid_size=grid, iters=iters, mode=mode)

    def drain():
        out, cycles = app.run()
        ref = reference_jacobi(initial_grid(grid), iters)
        if not np.allclose(out, ref, rtol=1e-12, atol=1e-12):
            raise CheckFailed("jacobi grid differs from the numpy reference")
        return {"cycles": cycles, "grid_sum": float(out.sum())}

    return m, drain


def barrier(seed, impl, nodes, episodes, drop=0.0):
    m = make_machine(nodes)
    layer = ReliableLayer(m) if drop else None
    if impl == "sm":
        b = SMTreeBarrier(m, arity=2)
    else:
        b = MPTreeBarrier(m, fanout=8, reliable=layer)
    if drop:
        FaultInjector(m, lossy_plan(drop, seed=seed))
    enters = [[] for _ in range(episodes)]
    leaves = [[] for _ in range(episodes)]

    def participant(node):
        for ep in range(episodes):
            enters[ep].append(m.sim.now)
            yield from b.enter(node)
            leaves[ep].append(m.sim.now)
            yield Compute(1)

    for node in range(nodes):
        m.processor(node).run_thread(participant(node))

    def drain():
        m.run()
        if len(leaves[-1]) != nodes:
            raise CheckFailed(f"{len(leaves[-1])}/{nodes} nodes left the last episode")
        return {
            "cycles": m.sim.now,
            "episode_cycles": max(leaves[-1]) - max(enters[-1]),
            "retransmits": layer.stats.retransmits if layer else 0,
        }

    return m, drain


def memcpy_sm(seed, prefetch, nbytes):
    m = make_machine(4)
    src, dst = m.alloc(0, nbytes), m.alloc(1, nbytes)
    words = nbytes // 8
    for i in range(words):
        m.store.write(src + i * 8, i)
    copier = copy_prefetch if prefetch else copy_no_prefetch

    def bench():
        yield ComputeLoad(src, words)  # warm the source into the cache
        t0 = m.sim.now
        yield from copier(src, dst, nbytes)
        return m.sim.now - t0

    run = _run_on_node0(m, bench())

    def drain():
        copy_cycles, cycles = run()
        _check_words(m, dst, words, lambda i: i)
        return {"cycles": cycles, "copy_cycles": copy_cycles}

    return m, drain


def accum_sm(seed, nbytes):
    m = make_machine(4)
    n = nbytes // 8
    arr = m.alloc(1, nbytes)
    values = fill_array(m, arr, n, seed=seed)
    run = _run_on_node0(m, accum_shared_memory(arr, n))

    def drain():
        total, cycles = run()
        if total != sum(values):
            raise CheckFailed("accum returned a wrong sum")
        return {"cycles": cycles, "sum": total}

    return m, drain


def bulk_mp(seed, nbytes, rounds=1, drop=0.0):
    m = make_machine(4)
    layer = ReliableLayer(m) if drop else None
    bulk = BulkTransfer(m, reliable=layer)
    if drop:
        FaultInjector(m, lossy_plan(drop, seed=seed))
    src, dst = m.alloc(0, nbytes), m.alloc(1, nbytes)
    words = nbytes // 8
    for i in range(words):
        m.store.write(src + i * 8, i)

    def bench():
        for _ in range(rounds):
            yield from bulk.send(1, src, dst, nbytes, wait_ack=True, src_node=0)

    run = _run_on_node0(m, bench())

    def drain():
        _, cycles = run()
        _check_words(m, dst, words, lambda i: i)
        return {
            "cycles": cycles,
            "retransmits": layer.stats.retransmits if layer else 0,
        }

    return m, drain


def grain(seed, kind, nodes, depth, delay, sub=0, of=1):
    """Run ``sub`` of ``of`` grain runs. Steal schedules change the
    simulated work by up to a third, so a workload runs the fixed set of
    scheduler seeds ``0 .. of-1`` and the run's seed only rotates them
    over its runs: the work, and so the host time, is then the same for
    every seed."""
    m = make_machine(nodes)
    rt = Runtime(m, scheduler=kind, seed=(seed + sub) % of)
    box = {}

    def fin(value):
        # as Runtime.run_to_completion does: once the root resolves,
        # idle processors stop probing and the event queue drains
        box["result"] = value
        rt.done = True

    rt.spawn_root(0, lambda rt, nd: grain_parallel(rt, nd, depth, delay), on_finish=fin)

    def drain():
        m.run()
        if box.get("result") != 1 << depth:
            raise CheckFailed("grain leaf count is wrong")
        return {"cycles": m.sim.now, "steals": list(rt.total_steals())}

    return m, drain


def rti(seed, kind, nodes, trials):
    m = make_machine(nodes)
    rt = Runtime(m, scheduler=kind, seed=seed)
    t_invoker, t_invokee = [], []

    def body(rt, node, t0):
        t_invokee.append(m.sim.now - t0)
        yield Compute(50)
        return 1

    def invoker(rt, node):
        yield Compute(3000)  # let the idle loops reach steady state
        for trial in range(trials):
            t0 = m.sim.now
            fut = yield from rt.spawn_to(1, lambda rt, nd, t0=t0: body(rt, nd, t0))
            t_invoker.append(m.sim.now - t0)
            yield from rt.join(node, fut)
            yield Compute(613 + 97 * trial)
        return trials

    box = {}

    def fin(value):
        box["result"] = value
        rt.done = True

    rt.spawn_root(0, invoker, on_finish=fin)  # root: the invoker thread

    def drain():
        m.run()
        if box.get("result") != trials or len(t_invokee) != trials:
            raise CheckFailed("remote invocations did not all complete")
        return {"cycles": m.sim.now, "t_invoker": t_invoker, "t_invokee": t_invokee}

    return m, drain


OPS = {f.__name__: f for f in (jacobi, barrier, memcpy_sm, accum_sm, bulk_mp, grain, rti)}


# ----------------------------------------------------------------------
# Workloads: (operation name, op, kwargs) lists
# ----------------------------------------------------------------------
def shared_memory():
    ops = [
        ("jacobi_sm_64", "jacobi", dict(mode="sm", nodes=64, grid=64, iters=4)),
        ("barrier_sm_256", "barrier", dict(impl="sm", nodes=256, episodes=2)),
        *((f"grain_sm_64_{k}", "grain",
           dict(kind="sm", nodes=64, depth=7, delay=100, sub=k, of=2)) for k in range(2)),
    ]
    for nbytes in (4096, 16384):
        ops += [
            (f"memcpy_sm_{nbytes}", "memcpy_sm", dict(prefetch=False, nbytes=nbytes)),
            (f"memcpy_sm_prefetch_{nbytes}", "memcpy_sm", dict(prefetch=True, nbytes=nbytes)),
            (f"accum_sm_{nbytes}", "accum_sm", dict(nbytes=nbytes)),
        ]
    return ops


def message_passing():
    ops = [
        ("barrier_mp_1024", "barrier", dict(impl="mp", nodes=1024, episodes=2)),
        ("rti_hybrid_64", "rti", dict(kind="hybrid", nodes=64, trials=4)),
        *((f"grain_hybrid_64_{k}", "grain",
           dict(kind="hybrid", nodes=64, depth=8, delay=100, sub=k, of=3)) for k in range(3)),
        ("reliable_barrier_256", "barrier",
         dict(impl="mp", nodes=256, episodes=2, drop=LOSS)),
        ("reliable_bulk_2048", "bulk_mp", dict(nbytes=2048, rounds=8, drop=LOSS)),
    ]
    ops += [(f"bulk_mp_{n}", "bulk_mp", dict(nbytes=n))
            for n in (256, 1024, 4096, 16384, 32768, 65536)]
    return ops


def observed():
    return [
        ("jacobi_sm_16", "jacobi", dict(mode="sm", nodes=16, grid=32, iters=3)),
        ("jacobi_mp_16", "jacobi", dict(mode="mp", nodes=16, grid=32, iters=3)),
        ("barrier_sm_64", "barrier", dict(impl="sm", nodes=64, episodes=3)),
        ("barrier_mp_64", "barrier", dict(impl="mp", nodes=64, episodes=3)),
        ("grain_hybrid_16", "grain", dict(kind="hybrid", nodes=16, depth=8, delay=100)),
    ]


WORKLOADS = {
    "shared_memory": shared_memory,
    "message_passing": message_passing,
    "observed": observed,
}

#: tiny runs of every operation kind, executed during set-up so lazy
#: first-use costs (imports inside functions, first numpy calls) are
#: paid before the first measured event
WARMUP = [
    ("jacobi", dict(mode="sm", nodes=4, grid=8, iters=1)),
    ("jacobi", dict(mode="mp", nodes=4, grid=8, iters=1)),
    ("barrier", dict(impl="sm", nodes=4, episodes=1)),
    ("barrier", dict(impl="mp", nodes=4, episodes=1, drop=LOSS)),
    ("memcpy_sm", dict(prefetch=True, nbytes=64)),
    ("accum_sm", dict(nbytes=64)),
    ("bulk_mp", dict(nbytes=64, drop=LOSS)),
    ("grain", dict(kind="sm", nodes=4, depth=2, delay=0)),
    ("grain", dict(kind="hybrid", nodes=4, depth=2, delay=0)),
    ("rti", dict(kind="hybrid", nodes=4, trials=1)),
]

#: node count of each workload's largest machine (the footprint probe)
LARGEST = {"shared_memory": 256, "message_passing": 1024, "observed": 64, "service": 16}
