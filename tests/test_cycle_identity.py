"""Cycle-identity guard for the hot-path engine optimizations.

``tests/golden/cycle_identity.json`` holds experiment rows captured
with the pre-optimization engine (dataclass heap events, elif effect
dispatch, no coherence fast path). The optimized engine must produce
*identical simulated cycle counts* — host speed may change, simulated
time may not. Any intentional model change must regenerate the golden
file and say so in the PR.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden" / "cycle_identity.json"

# Must match the configs the golden file was captured with.
CONFIGS = {
    "barrier": dict(n_nodes=16),
    "rti": dict(n_nodes=16, trials=3),
    "fig7": dict(block_sizes=(64, 256, 1024)),
    "fig8": dict(block_sizes=(64, 256, 1024)),
    "fig9": dict(delays=(0, 1000), depth=9, n_nodes=16),
    "fig10": dict(tols=(3e-3, 1e-3), n_nodes=16),
    "fig11": dict(grid_sizes=(32,), n_nodes=16, iters=3),
    "faults": dict(loss_rates=(0.0, 0.05), nbytes=512, n_nodes=16, episodes=2),
}


def _normalize(rows):
    # round-trip through JSON so tuples/lists and numeric reprs compare
    # the same way they were serialized at capture time
    return json.loads(json.dumps(rows, default=str))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("exp_id", sorted(CONFIGS))
def test_cycles_identical_to_pre_optimization_engine(exp_id, golden):
    res = ALL_EXPERIMENTS[exp_id](**CONFIGS[exp_id])
    assert _normalize(res.rows) == golden[exp_id]["rows"], (
        f"{exp_id}: simulated cycles diverged from the pre-optimization "
        "golden capture — a hot-path change altered model behaviour"
    )


def test_golden_covers_every_experiment(golden):
    assert set(golden) == set(ALL_EXPERIMENTS) == set(CONFIGS)


# ----------------------------------------------------------------------
# Observed vs unobserved: attaching the full observability stack
# (metrics registry, cycle profiler, time-series sampler, tracer) must
# not change reported simulated cycles — observers are pay-for-what-
# you-use and daemon sampler ticks never perturb model event order.
# Observed processors run every macro-effect's micro program, so this
# also holds each experiment's macro-effects to their micro programs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exp_id", sorted(CONFIGS))
def test_observed_run_cycle_identical(exp_id, golden):
    from repro.obs.session import ObsConfig, session

    cfg = ObsConfig(sample_interval=500, trace=True)
    with session(cfg) as s:
        res = ALL_EXPERIMENTS[exp_id](**CONFIGS[exp_id])
        data = s.data()
    assert _normalize(res.rows) == golden[exp_id]["rows"], (
        f"{exp_id}: attaching observers changed simulated cycle counts — "
        "the zero-overhead contract is broken"
    )
    # and the observers actually observed something
    assert data["records"], "session saw no machines"
    assert any(r.get("samples", {}).get("samples") for r in data["records"])
    assert data["cycle_attribution"]["total_cycles"] > 0
