"""Partitioned parallel simulation (repro.perf.partition).

Three layers of guarantees:

1. **Golden cycle identity** — a run split across node-sharded engines
   must produce *exactly* the serial answer for the pinned
   configurations (fig11 jacobi in both modes, the MP combining-tree
   barrier at every shard count, the SM barrier at <=2 shards; SM at
   higher shard counts is covered by the determinism test — see
   docs/PERFORMANCE.md for the shard-local link-reservation
   approximation that makes it inexact by a few cycles).
2. **Determinism** — the same partitioned configuration produces the
   same answer on every run, and sequential window grants match
   parallel grants (worker interleaving cannot leak into results).
3. **Protocol safety** — the conservative-lookahead invariant holds
   for arbitrary cross-shard send patterns (hypothesis), and the
   validation/abort paths fail loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.spec import resolve
from repro.perf.partition import (
    PartitionError,
    PartitionPlan,
    ShardView,
    run_partitioned,
    validate_partitions,
)
from repro.sim.engine import SimulationError

FIG11 = "repro.experiments.fig11_jacobi:measure_jacobi"
BARRIER = "repro.experiments.barrier_exp:measure_point"

FIG11_KW = dict(grid_size=32, n_nodes=16, iters=3)
MP_BARRIER_KW = dict(impl="mp", n_nodes=16, episodes=2)
SM_BARRIER_KW = dict(impl="sm", n_nodes=8, episodes=2)


def _serial(fn_spec: str, kwargs: dict):
    from repro.perf.sweep import SweepPoint

    return SweepPoint(fn_spec, kwargs).resolve()(**kwargs)


@pytest.fixture(scope="module")
def serial_fig11():
    return {
        mode: _serial(FIG11, dict(FIG11_KW, mode=mode)) for mode in ("sm", "mp")
    }


@pytest.fixture(scope="module")
def serial_mp_barrier():
    return _serial(BARRIER, MP_BARRIER_KW)


@pytest.fixture(scope="module")
def serial_sm_barrier():
    return _serial(BARRIER, SM_BARRIER_KW)


# ----------------------------------------------------------------------
# Golden cycle identity vs serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["sm", "mp"])
@pytest.mark.parametrize("k", [2, 4])
def test_fig11_partitioned_matches_serial(mode, k, serial_fig11):
    got = run_partitioned(FIG11, dict(FIG11_KW, mode=mode), 16, k)
    assert got == serial_fig11[mode], (
        f"fig11 {mode} at {k} shards diverged from serial"
    )


def test_single_shard_is_pristine_serial(serial_fig11):
    # partitions=1 short-circuits to the unwindowed serial drain
    got = run_partitioned(FIG11, dict(FIG11_KW, mode="mp"), 16, 1)
    assert got == serial_fig11["mp"]


@pytest.mark.parametrize("k", [2, 4])
def test_mp_barrier_partitioned_matches_serial(k, serial_mp_barrier):
    got = run_partitioned(BARRIER, dict(MP_BARRIER_KW), 16, k)
    assert got == serial_mp_barrier


def test_sm_barrier_partitioned_matches_serial(serial_sm_barrier):
    got = run_partitioned(BARRIER, dict(SM_BARRIER_KW), 8, 2)
    assert got == serial_sm_barrier


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_sequential_grant_matches_parallel():
    kw = dict(SM_BARRIER_KW)
    parallel = run_partitioned(BARRIER, kw, 8, 2)
    sequential = run_partitioned(BARRIER, kw, 8, 2, sequential=True)
    assert parallel == sequential


def test_sm_barrier_four_shards_deterministic():
    # Regression: this configuration livelocked before depth-0 pending
    # stores were overlaid into forward-writeback deposits (a spin flag
    # written between coherence grant and the scheduled store.write was
    # lost from the relinquishing shard's snapshot). max_events bounds
    # the failure mode to an error instead of a hang.
    kw = dict(impl="sm", n_nodes=16, episodes=2)
    a = run_partitioned(BARRIER, kw, 16, 4, max_events=2_000_000)
    b = run_partitioned(BARRIER, kw, 16, 4, max_events=2_000_000)
    assert a == b


# ----------------------------------------------------------------------
# Plan and validation
# ----------------------------------------------------------------------
@given(
    n_nodes=st.integers(min_value=1, max_value=1024),
    n_shards=st.integers(min_value=1, max_value=64),
)
def test_partition_plan_covers_every_node(n_nodes, n_shards):
    if n_shards > n_nodes:
        with pytest.raises(ValueError):
            PartitionPlan(n_nodes, n_shards)
        return
    plan = PartitionPlan(n_nodes, n_shards)
    lo = 0
    sizes = []
    for s, (a, b) in enumerate(plan.bounds):
        assert a == lo, "ranges must be contiguous"
        assert b > a, "every shard owns at least one node"
        sizes.append(b - a)
        for node in (a, b - 1):
            assert plan.shard_of(node) == s
        lo = b
    assert lo == n_nodes, "ranges must cover all nodes"
    assert max(sizes) - min(sizes) <= 1, "ranges must be near-equal"


def test_validate_partitions_rejects_bad_inputs():
    assert validate_partitions(4, 64) == 4
    with pytest.raises(ValueError, match="must be an integer"):
        validate_partitions(True, 64)
    with pytest.raises(ValueError, match="must be an integer"):
        validate_partitions("2", 64)
    with pytest.raises(ValueError, match=r"\[1, 64\]"):
        validate_partitions(0, 64)
    with pytest.raises(ValueError, match=r"\[1, 64\]"):
        validate_partitions(65, 128)
    with pytest.raises(ValueError, match="cannot exceed n_nodes"):
        validate_partitions(8, 4)


def test_checkers_rejected():
    from repro.obs.session import ObsConfig

    cfg = ObsConfig(check=("race",))
    with pytest.raises(ValueError, match="global view"):
        run_partitioned(BARRIER, dict(SM_BARRIER_KW), 8, 2, obs_cfg=cfg)


def test_observed_run_keeps_shard_labels():
    from repro.obs.session import ObsConfig, session

    with session(ObsConfig()) as s:
        run_partitioned(BARRIER, dict(MP_BARRIER_KW), 16, 2, obs_cfg=s.cfg)
        data = s.data()
    assert [r["label"] for r in data["records"]] == ["shard0:m0", "shard1:m0"]


def test_max_events_aborts_runaway():
    with pytest.raises(SimulationError, match="max_events"):
        run_partitioned(BARRIER, dict(SM_BARRIER_KW), 8, 2, max_events=50)


# ----------------------------------------------------------------------
# Conservative lookahead: no send pattern can violate the window
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    sends=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),  # cycle gap
            st.integers(min_value=0, max_value=3),    # src (shard 0)
            st.integers(min_value=4, max_value=7),    # dst (shard 1)
            st.integers(min_value=1, max_value=32),   # size_words
        ),
        min_size=1,
        max_size=30,
    )
)
def test_random_cross_shard_sends_respect_lookahead(sends):
    """Every egress record must arrive >= L cycles after its send, even
    under arbitrary contention on the sending shard's own links —
    otherwise a window barrier could deliver a packet late."""
    import repro.perf.partition as partition
    from repro.experiments.common import make_machine
    from repro.network.packet import Packet, PacketKind

    plan = PartitionPlan(8, 2)
    view = ShardView(plan, 0, conn=None)
    partition._CURRENT = view
    try:
        m = make_machine(8)
    finally:
        partition._CURRENT = None
    net = m.network
    lookahead = view.lookahead
    assert lookahead == net.min_cross_latency() >= 1
    now = 0
    for gap, src, dst, words in sends:
        now += gap
        m.sim.now = now
        net.send(Packet(src, dst, PacketKind.USER_MESSAGE, words, ("m", now)))
    records = view._egress
    assert len(records) == len(sends)
    seqs = [rec[0] for rec in records]
    assert seqs == sorted(seqs), "egress must preserve send order"
    for rec in records:
        _seq, send, arrival, _src, _dst, kind, _words, spec, deposit = rec
        assert arrival - send >= lookahead, (
            f"lookahead violated: sent {send}, arrives {arrival}, L={lookahead}"
        )
        assert kind == "USER_MESSAGE" and spec[0] == "msg" and deposit is None


# ----------------------------------------------------------------------
# Serve integration: spec validation and run-store keying
# ----------------------------------------------------------------------
class TestServeSpecs:
    def _ex(self):
        from repro.serve.executor import ExperimentExecutor

        return ExperimentExecutor()

    def test_partitions_resolved_into_kwargs(self):
        _, kwargs, _ = resolve(
            {"experiment": "fig11", "quick": True, "partitions": 2}
        )
        assert kwargs["partitions"] == 2

    def test_partitions_validated_against_node_count(self):
        with pytest.raises(ValueError, match="cannot exceed n_nodes"):
            resolve(
                {"experiment": "fig11", "nodes": 4, "partitions": 8}
            )

    def test_partitions_is_not_a_param(self):
        with pytest.raises(ValueError, match="top-level spec key"):
            resolve(
                {"experiment": "fig11", "params": {"partitions": 2}}
            )

    def test_partitions_rejected_with_check(self):
        with pytest.raises(ValueError, match="global view"):
            resolve(
                {"experiment": "fig11", "partitions": 2, "check": ["race"]}
            )

    def test_partitioned_and_serial_specs_have_distinct_run_keys(self):
        # partitioned output may differ from serial (fig9's shard-local
        # stealing), so a serial resubmit must never dedupe onto it
        ex = self._ex()
        base = {"experiment": "fig11", "quick": True}
        assert ex.key_for(base) != ex.key_for({**base, "partitions": 4})
        assert ex.key_for({**base, "partitions": 2}) != ex.key_for(
            {**base, "partitions": 4})
        # as does a real input change (32 differs from the quick
        # config's node count)
        assert ex.key_for(base) != ex.key_for({**base, "nodes": 32})
