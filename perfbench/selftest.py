"""Recording the expected results, and the benchmark's self-test.

``record`` runs a workload once at the default seed and stores what
each operation must reproduce in ``expected.json``: each simulation's
result values (simulated cycles included), and each service request's
``report.txt`` digest (its final state must be ``done`` and its dedup
flag follows from the stream).

``self_test`` runs one process of ``message_passing`` and one daemon
pass of ``service`` at the default seed and checks the failure
accounting both ways: the recorded values give no failure, and a
perturbed copy of them does.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

from run import DEFAULT_SEED, EXPECTED, Tally, account_in_process, load_expected, run_child


def _service_pass():
    import service

    stream = service.make_stream(DEFAULT_SEED)
    os.makedirs(service.TMP, exist_ok=True)
    try:
        return stream, service.one_pass(stream, False)
    finally:
        shutil.rmtree(service.TMP, ignore_errors=True)


def record(workload: str) -> int:
    expected = load_expected() if os.path.exists(EXPECTED) else {}
    if workload == "service":
        from service import digest

        _, p = _service_pass()
        if "error" in p or any(r["state"] != "done" for r in p["results"]):
            print(f"not recorded: {p.get('error', 'a request failed')}")
            return 1
        expected[workload] = [digest(r["report.txt"]) for r in p["results"]]
    else:
        child = run_child(workload, DEFAULT_SEED, "run")
        if "crashed" in child or any(op["error"] for op in child["ops"]):
            print(f"not recorded: {child}")
            return 1
        expected[workload] = {op["op"]: op["values"] for op in child["ops"]}
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {workload} for seed {DEFAULT_SEED} in {EXPECTED}")
    return 0


def _both_ways(name: str, count, recorded, perturbed) -> bool:
    clean, bad = Tally(), Tally()
    count(recorded, clean)
    count(perturbed, bad)
    ok = clean.attempted > 0 and clean.failed == 0 and bad.failed > 0
    print(f"{'PASS' if ok else 'FAIL'} {name}: recorded values -> {clean.failed}/"
          f"{clean.attempted} failed; perturbed -> {bad.failed}/{bad.attempted} failed")
    return ok


def self_test() -> int:
    from service import account

    expected = load_expected()
    recorded = expected["message_passing"]
    perturbed = copy.deepcopy(recorded)
    perturbed["barrier_mp_1024"]["cycles"] += 1
    child = run_child("message_passing", DEFAULT_SEED, "run")
    n_ops = len(recorded)
    ok = _both_ways("message_passing simulated cycles",
                    lambda exp, t: account_in_process([child], n_ops, exp, t),
                    recorded, perturbed)

    stream, p = _service_pass()
    recorded = expected["service"]
    perturbed = list(recorded)
    perturbed[0] = "0" * 64
    ok &= _both_ways("service report.txt bytes",
                     lambda exp, t: account([p], stream, exp, t), recorded, perturbed)
    return 0 if ok else 1
