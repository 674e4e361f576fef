"""Scenario execution: one fuzz input -> one plain result dict.

:func:`run_scenario` is the sweep-point entry the campaign fans out
(``SweepPoint("repro.fuzz.scenario:run_scenario", {"scenario": s})``).
It builds the machine, attaches the dynamic checkers, interprets the
scenario's program, and returns a JSON-clean result dict — no live
objects — so workers ship it back byte-identically and two runs of the
same scenario can be compared with ``==`` (the differential oracles
depend on this).

Execution model: every op in an SPMD program installs its shared
state (allocations, primitive instances, message handlers) *before*
any thread runs, then each node executes the op sequence in order in
one thread. Ops synchronize internally (barriers, handoffs) or not at
all; nodes drift freely between ops, which is exactly the cross-
primitive overlap the fuzzer is after.

Three outcomes short-circuit to a verdict:

- **crash** — any exception out of the simulation;
- **hang** — the event-budget deadline (``SimulationError`` from
  ``max_events``) or the event queue draining with node programs
  unfinished (a true deadlock: nothing left to wake them);
- otherwise the run completed and the result carries checker findings,
  per-primitive self-check failures, and (when the scenario asks)
  the macro-vs-micro differential comparison.

Macro-vs-micro: a checked run subscribes to the processor's effect
probes, so its processors run each macro-effect's micro program;
the unchecked replay takes the batch runners. The two are guaranteed
cycle-identical, so ``diff_macro`` replays the scenario without
checkers and compares cycles and results — any daylight is a bug in
the batch runner's equivalence, found for free. A cycle profiler
rides both runs, and the replay's profiled processors keep the batch
runners (which report each element they issue), so the oracle also
compares the two cycle-attribution profiles. The profiles stay out
of the result dict: they are a comparison, not an outcome.
"""

from __future__ import annotations

import json
import operator
from functools import partial
from typing import Any, Callable, Generator

from repro.check import CheckerSet
from repro.experiments.common import make_machine
from repro.ext.channels import Channel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRates, LinkOutage, NodeStall
from repro.fuzz.gen import validate_scenario
from repro.machine.machine import Machine
from repro.obs.profiler import CycleProfiler
from repro.params import NetworkParams, ProcessorParams
from repro.proc.effects import (
    Compute,
    ComputeLoad,
    Load,
    LoadComputeStore,
    Poll,
    Store,
    StoreRelease,
    StoreRun,
)
from repro.runtime.barrier import MPTreeBarrier, SMTreeBarrier
from repro.runtime.bulk import BulkTransfer
from repro.runtime.mcs import MCSLock
from repro.runtime.reduce import MPTreeReduce, SMTreeReduce
from repro.runtime.reliable import ReliableLayer
from repro.runtime.rt import Runtime
from repro.runtime.sync import SpinLock
from repro.sim.engine import SimulationError

#: findings kept per run (counts keep growing past the cap); small so
#: a pathological scenario cannot bloat the sweep result
MAX_FINDINGS = 64

#: consecutive-poll watchdog limit. Generated programs let nodes
#: drift between ops, so one node legitimately spins at a barrier
#: while another grinds through a bulk transfer; the event-budget
#: deadline, not the bounded-spin heuristic, is the fuzzer's
#: livelock oracle.
SPIN_LIMIT = 500_000


def run_scenario(scenario: dict) -> dict:
    """Execute one scenario; returns the plain result dict."""
    validate_scenario(scenario)
    checks = tuple(scenario.get("checks") or ())
    diff = bool(scenario.get("diff_macro") and checks)
    result, profile = _execute(scenario, checks, profile=diff)
    if diff and result["error"] is None and result["hang"] is None:
        result["divergence"] = _diff_macro(scenario, result, profile)
    return result


def canonical(doc: Any) -> str:
    """Canonical JSON: the byte identity used everywhere in fuzzing."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# core execution
# ----------------------------------------------------------------------
def _execute(
    scenario: dict, checks: tuple[str, ...], profile: bool = False
) -> tuple[dict, dict | None]:
    """Run once; returns the result dict and, with ``profile``, the
    machine's cycle-attribution profile (else None)."""
    mc = scenario["machine"]
    m = make_machine(
        n_nodes=mc["n_nodes"],
        line_size=mc["line_size"],
        cache_lines=mc["cache_lines"],
        dir_hw_pointers=mc["dir_hw_pointers"],
        network=NetworkParams(topology=mc["topology"]),
        processor=ProcessorParams(hw_contexts=mc["hw_contexts"]),
    )
    if scenario["faults"] is not None:
        FaultInjector(m, _build_plan(scenario["faults"]))
    checkers = (
        CheckerSet(m, checks=checks, max_findings=MAX_FINDINGS,
                   spin_limit=SPIN_LIMIT)
        if checks else None
    )
    profiler = CycleProfiler(m) if profile else None
    result: dict = {
        "gen": scenario["gen"],
        "seed": scenario["seed"],
        "error": None,
        "hang": None,
        "self_check": [],
        "unfinished": [],
        "result": None,
        "divergence": None,
    }
    try:
        if scenario["mode"] == "tasks":
            _run_tasks(m, scenario, result)
        else:
            _run_spmd(m, scenario, result)
    except SimulationError as exc:
        msg = str(exc)
        if "max_events" in msg:
            result["hang"] = {"kind": "timeout", "detail": msg}
        elif "never completed" in msg:
            result["hang"] = {"kind": "deadlock", "detail": msg}
        else:
            result["error"] = f"SimulationError: {msg}"
    except Exception as exc:  # noqa: BLE001 — crashes are findings
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        report = checkers.finalize() if checkers is not None else None
    result["cycles"] = m.sim.now
    result["check"] = (
        json.loads(json.dumps(report.as_dict())) if report is not None else None
    )
    result["ok"] = not (
        result["error"] or result["hang"] or result["self_check"]
        or result["unfinished"]
        or (report is not None and report.total)
    )
    return result, profiler.as_dict() if profiler is not None else None


def _diff_macro(scenario: dict, micro: dict, micro_profile: dict) -> dict | None:
    """Unchecked (macro-path) replay vs the checked (micro-path) run."""
    macro, macro_profile = _execute(scenario, checks=(), profile=True)
    # the profiles join the comparison only: the stored result has none
    micro = {**micro, "profile": micro_profile}
    macro["profile"] = macro_profile
    for key in ("cycles", "result", "self_check", "unfinished",
                "error", "hang", "profile"):
        if canonical(macro[key]) != canonical(micro[key]):
            return {
                "oracle": "micro-macro",
                "field": key,
                "micro": micro[key],
                "macro": macro[key],
            }
    return None


def _build_plan(faults: dict) -> FaultPlan:
    return FaultPlan(
        rates=FaultRates(
            drop=faults["drop"],
            duplicate=faults["duplicate"],
            delay=faults["delay"],
            reorder=faults["reorder"],
        ),
        stalls=[NodeStall(n, s, d) for n, s, d in faults["stalls"]],
        outages=[LinkOutage(a, b, s, e) for a, b, s, e in faults["outages"]],
        seed=faults["seed"],
    )


# ----------------------------------------------------------------------
# tasks mode
# ----------------------------------------------------------------------
def _run_tasks(m: Machine, scenario: dict, result: dict) -> None:
    tree = scenario["tree"]
    reliable = ReliableLayer(m) if tree.get("reliable") else None
    rt = Runtime(
        m, scheduler=tree["scheduler"], seed=scenario["seed"],
        reliable=reliable,
    )
    depth, leaf = tree["depth"], tree["leaf_cycles"]

    def body(rt: Runtime, node: int, d: int) -> Generator:
        yield Compute(12)
        if d == 0:
            yield Compute(leaf)
            return 1
        fut = yield from rt.fork(node, lambda r, nd: body(r, nd, d - 1))
        right = yield from body(rt, node, d - 1)
        left = yield from rt.join(node, fut)
        return left + right

    leaves, _cycles = rt.run_to_completion(
        0, lambda r, nd: body(r, nd, depth),
        max_events=scenario["deadline_events"],
    )
    result["result"] = {"leaves": leaves}
    if leaves != (1 << depth):
        result["self_check"].append(
            f"task_tree: {leaves} leaves, expected {1 << depth}"
        )


# ----------------------------------------------------------------------
# SPMD mode
# ----------------------------------------------------------------------
def _run_spmd(m: Machine, scenario: dict, result: dict) -> None:
    n = m.n_nodes
    reliable: list[ReliableLayer | None] = [None]

    def shared_reliable() -> ReliableLayer:
        if reliable[0] is None:
            reliable[0] = ReliableLayer(m)
        return reliable[0]

    impls = [
        _build_op(m, op, shared_reliable) for op in scenario["program"]
    ]
    finished: set[int] = set()
    for node in range(n):
        m.processor(node).run_thread(
            _participant(node, impls),
            on_finish=lambda _v, nd=node: finished.add(nd),
            label=f"fuzz-n{node}",
        )
    m.run(max_events=scenario["deadline_events"])
    result["unfinished"] = sorted(set(range(n)) - finished)
    if result["unfinished"]:
        # queue drained with programs stuck: nothing can wake them
        result["hang"] = {
            "kind": "quiesced",
            "detail": f"nodes {result['unfinished']} never finished",
        }
        return
    summaries = []
    for impl in impls:
        result["self_check"].extend(impl.post())
        summaries.append(impl.summary())
    result["result"] = summaries


def _participant(node: int, impls: list["_OpImpl"]) -> Generator:
    for impl in impls:
        gen = impl.body(node)
        if gen is not None:
            yield from gen
    # generators must yield at least once before finishing
    yield Compute(1)


class _OpImpl:
    """One program op: shared state + per-node body + post-run check."""

    def __init__(
        self,
        op: dict,
        body: Callable[[int], Generator | None],
        post: Callable[[], list[str]] | None = None,
        summarize: Callable[[], Any] | None = None,
    ) -> None:
        self.op = op
        self.body = body
        self._post = post
        self._summarize = summarize

    def post(self) -> list[str]:
        return self._post() if self._post is not None else []

    def summary(self) -> Any:
        extra = self._summarize() if self._summarize is not None else None
        return {"op": self.op["op"], "data": extra}


def _build_op(
    m: Machine, op: dict, shared_reliable: Callable[[], ReliableLayer]
) -> _OpImpl:
    builder = _BUILDERS[op["op"]]
    return builder(m, op, shared_reliable)


# -- individual ops ----------------------------------------------------
def _op_compute(m: Machine, op: dict, _rel) -> _OpImpl:
    cycles = op["cycles"]

    def body(node: int) -> Generator:
        # skewed per node so downstream ops meet drifted neighbours
        yield Compute(cycles + (node * 13) % 50)

    return _OpImpl(op, body)


def _op_barrier(m: Machine, op: dict, rel) -> _OpImpl:
    if op["kind"] == "sm":
        bar = SMTreeBarrier(m, arity=op["width"])
    else:
        bar = MPTreeBarrier(
            m, fanout=op["width"],
            reliable=rel() if op.get("reliable") else None,
        )
    episodes = op["episodes"]

    def body(node: int) -> Generator:
        for _ in range(episodes):
            yield from bar.enter(node)

    return _OpImpl(op, body)


def _op_reduce(m: Machine, op: dict, _rel) -> _OpImpl:
    n = m.n_nodes
    episodes = op["episodes"]
    expected = n * (n + 1) // 2
    errors: list[str] = []
    if op["kind"] == "sm":
        red = SMTreeReduce(m, arity=op["width"])

        def body(node: int) -> Generator:
            for ep in range(episodes):
                total = yield from red.reduce(node, node + 1, operator.add)
                if total != expected:
                    errors.append(
                        f"reduce(sm) ep{ep} n{node}: {total} != {expected}"
                    )
    else:
        red = MPTreeReduce(m, operator.add, fanout=op["width"])

        def body(node: int) -> Generator:
            for ep in range(episodes):
                total = yield from red.reduce(node, node + 1)
                if total != expected:
                    errors.append(
                        f"reduce(mp) ep{ep} n{node}: {total} != {expected}"
                    )

    return _OpImpl(op, body, post=lambda: sorted(errors))


def _op_lock(m: Machine, op: dict, _rel) -> _OpImpl:
    n = m.n_nodes
    iters = op["iters"]
    counter = m.alloc(0, 8)
    m.store.write(counter, 0)
    if op["kind"] == "spin":
        lock_addr = m.alloc(0, 8)
        m.store.write(lock_addr, 0)
        lock = SpinLock(lock_addr)

        def body(node: int) -> Generator:
            for _ in range(iters):
                yield from lock.acquire()
                v = yield Load(counter)
                yield Compute(4)
                yield Store(counter, v + 1)
                yield from lock.release()
    else:
        lock = MCSLock(m, home=0)

        def body(node: int) -> Generator:
            for _ in range(iters):
                yield from lock.acquire(node)
                v = yield Load(counter)
                yield Compute(4)
                yield Store(counter, v + 1)
                yield from lock.release(node)

    def post() -> list[str]:
        got = m.store.read(counter)
        want = n * iters
        if got != want:
            return [f"lock({op['kind']}): counter {got} != {want}"]
        return []

    return _OpImpl(op, body, post=post,
                   summarize=lambda: m.store.read(counter))


def _op_bulk(m: Machine, op: dict, rel) -> _OpImpl:
    nbytes = op["nbytes"]
    words = nbytes // 8
    layer = rel() if op.get("reliable") else None
    bulk = BulkTransfer(m, reliable=layer)
    buffers: dict[int, tuple[int, int, int]] = {}  # src -> (src_addr, dst_addr, dst)
    for i, (s, d) in enumerate(op["pairs"]):
        src_addr = m.alloc(s, nbytes)
        dst_addr = m.alloc(d, nbytes)
        for w in range(words):
            m.store.write(src_addr + w * 8, (i << 16) | (w + 1))
        buffers[s] = (src_addr, dst_addr, d)

    def body(node: int) -> Generator | None:
        if node not in buffers:
            return None
        src_addr, dst_addr, d = buffers[node]

        def gen() -> Generator:
            yield from bulk.send(
                d, src_addr, dst_addr, nbytes,
                wait_ack=True, src_node=node,
            )

        return gen()

    def post() -> list[str]:
        out = []
        for i, (s, _d) in enumerate(op["pairs"]):
            _src, dst_addr, _dn = buffers[s]
            for w in range(words):
                got = m.store.read(dst_addr + w * 8)
                want = (i << 16) | (w + 1)
                if got != want:
                    out.append(
                        f"bulk pair{i} word{w}: {got!r} != {want}"
                    )
                    break
        return out

    return _OpImpl(op, body, post=post)


def _op_channel(m: Machine, op: dict, _rel) -> _OpImpl:
    ch = Channel(m, op["producer"], op["consumer"], mechanism="mp")
    items = op["items"]
    expected = sum(100 + i for i in range(items))
    box: dict[str, int] = {}

    def body(node: int) -> Generator | None:
        if node == op["producer"]:
            def produce() -> Generator:
                for i in range(items):
                    yield from ch.put(100 + i)
                    yield Compute(8)
            return produce()
        if node == op["consumer"]:
            def consume() -> Generator:
                total = 0
                for _ in range(items):
                    v = yield from ch.get()
                    total += v
                box["sum"] = total
            return consume()
        return None

    def post() -> list[str]:
        got = box.get("sum")
        if got != expected:
            return [f"channel: sum {got!r} != {expected}"]
        return []

    return _OpImpl(op, body, post=post)


def _op_handoff(m: Machine, op: dict, _rel) -> _OpImpl:
    """Ring flag handoff: node ``i`` writes ``words`` values into a
    buffer homed at node ``i+1`` and raises a flag; the consumer spins
    on its flag, then reads the buffer. ``racy=True`` strips the
    release/acquire annotations — the deleted happens-before edge the
    race detector exists to find (the campaign's seeded bug)."""
    n = m.n_nodes
    words = op["words"]
    racy = bool(op.get("racy"))
    flags = [m.alloc(c, 8) for c in range(n)]
    data = [m.alloc(c, 8 * words) for c in range(n)]
    for c in range(n):
        m.store.write(flags[c], 0)
    errors: list[str] = []

    def body(node: int) -> Generator:
        consumer = (node + 1) % n
        for w in range(words):
            yield Store(data[consumer] + w * 8, node * 1000 + w)
        if racy:
            yield Store(flags[consumer], 1)
            while True:
                v = yield Load(flags[node])
                if v >= 1:
                    break
                yield Compute(12)
        else:
            yield StoreRelease(flags[consumer], 1)
            yield Poll(12, None, partial(operator.le, 1), (flags[node],))
        producer = (node - 1) % n
        for w in range(words):
            got = yield Load(data[node] + w * 8)
            want = producer * 1000 + w
            if got != want:
                errors.append(f"handoff n{node} word{w}: {got!r} != {want}")

    return _OpImpl(op, body, post=lambda: sorted(errors))


def _op_macro(m: Machine, op: dict, _rel) -> _OpImpl:
    """Private per-node macro-effect loops — pure batch-runner stress
    (the macro-vs-micro differential oracle's favourite food)."""
    n = m.n_nodes
    elems = op["elems"]
    kind = op["kind"]
    base = [m.alloc(node, 8 * elems) for node in range(n)]
    aux = [m.alloc(node, 8 * elems) for node in range(n)]
    for node in range(n):
        for i in range(elems):
            m.store.write(base[node] + i * 8, node * 7 + i)
    errors: list[str] = []

    def body(node: int) -> Generator:
        if kind == "compute_load":
            vals = yield ComputeLoad(base[node], elems, stride=8, compute=2)
            want = [node * 7 + i for i in range(elems)]
            if list(vals) != want:
                errors.append(f"macro(compute_load) n{node}: wrong values")
        elif kind == "copy":
            yield LoadComputeStore(base[node], aux[node], elems, stride=8)
        elif kind == "store_run":
            yield StoreRun(aux[node], [node + i for i in range(elems)])
        else:  # repeat: a fixed body, a plain loop
            for _ in range(elems):
                yield Compute(2)
                yield Store(aux[node], node)
                yield Load(aux[node])

    def post() -> list[str]:
        out = sorted(errors)
        if kind == "copy":
            for node in range(n):
                for i in range(elems):
                    got = m.store.read(aux[node] + i * 8)
                    if got != node * 7 + i:
                        out.append(f"macro(copy) n{node} elem{i}: {got!r}")
                        break
        elif kind == "store_run":
            for node in range(n):
                for i in range(elems):
                    got = m.store.read(aux[node] + i * 8)
                    if got != node + i:
                        out.append(f"macro(store_run) n{node} elem{i}: {got!r}")
                        break
        return out

    return _OpImpl(op, body, post=post)


_BUILDERS: dict[str, Callable[..., _OpImpl]] = {
    "compute": _op_compute,
    "barrier": _op_barrier,
    "reduce": _op_reduce,
    "lock": _op_lock,
    "bulk": _op_bulk,
    "channel": _op_channel,
    "handoff": _op_handoff,
    "macro": _op_macro,
}
