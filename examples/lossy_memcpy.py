#!/usr/bin/env python3
"""Fault injection: the Fig. 7 bulk memcpy on a lossy fabric.

The paper's message interface makes no delivery promise — reliability
is software's job. This example runs the message-passing memcpy three
ways on a 4-node machine:

1. raw CMMU messages on a healthy fabric (the paper's setting),
2. through the reliable layer (seq numbers + acks + retransmit) on a
   healthy fabric — the cost of the insurance premium,
3. reliable on a fabric that drops 5% of software packets — the
   insurance paying out: the copy still lands bit-for-bit, the lost
   packets are retransmitted after a timeout, and every retry is
   charged on the simulated clock.

Faults are seeded: rerunning this script reproduces the identical
fault schedule, cycle for cycle.

Run:  python examples/lossy_memcpy.py
"""

from repro import Machine, MachineConfig
from repro.faults import FaultInjector, lossy_plan
from repro.runtime.bulk import BulkTransfer
from repro.runtime.reliable import ReliableLayer
from repro.trace import Tracer

NBYTES = 2048
ROUNDS = 4
DROP = 0.05
SEED = 6


def run_copy(reliable: bool, drop: float):
    """Copy NBYTES from node 0 to node 1, ROUNDS times over."""
    m = Machine(MachineConfig(n_nodes=4))
    tracer = Tracer(m, kinds={"fault"})
    layer = ReliableLayer(m) if reliable else None
    bulk = BulkTransfer(m, reliable=layer)
    injector = FaultInjector(m, lossy_plan(drop, seed=SEED))

    src = m.alloc(0, NBYTES)
    dst = m.alloc(1, NBYTES)
    for i in range(NBYTES // 8):
        m.store.write(src + i * 8, i)

    done = []

    def sender():
        for _ in range(ROUNDS):
            yield from bulk.send(
                1, src, dst, NBYTES, wait_ack=True,
                src_node=0 if reliable else None,
            )
        done.append(m.sim.now)

    m.processor(0).run_thread(sender())
    m.run()

    ok = all(m.store.read(dst + i * 8) == i for i in range(NBYTES // 8))
    retries = layer.stats.retransmits if layer else 0
    return done[0], ok, retries, injector, tracer


def main() -> None:
    print(f"bulk memcpy, {ROUNDS} x {NBYTES} B from node 0 to node 1\n")

    raw, ok, _, _, _ = run_copy(reliable=False, drop=0.0)
    print(f"raw, clean fabric:        {raw:>7,} cycles  data ok: {ok}")

    rel, ok, retries, _, _ = run_copy(reliable=True, drop=0.0)
    print(
        f"reliable, clean fabric:   {rel:>7,} cycles  data ok: {ok}  "
        f"retries: {retries}  (+{rel - raw} cyc premium)"
    )

    lossy, ok, retries, injector, tracer = run_copy(reliable=True, drop=DROP)
    print(
        f"reliable, {DROP:.0%} drop rate:  {lossy:>7,} cycles  data ok: {ok}  "
        f"retries: {retries}"
    )
    print(f"\n{injector.summary()}")
    print("fault trace:")
    for ev in tracer.filter(kind="fault"):
        print(f"  cycle {ev.time:>6}: n{ev.node} {ev.what} {ev.detail}")
    print(
        f"\nslowdown vs clean reliable run: {lossy / rel:.2f}x "
        f"(every retransmission waited out a timeout on the simulated clock)"
    )


if __name__ == "__main__":
    main()
