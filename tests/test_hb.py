"""Race-detector cost: exact against a join-everything reference, and
independent of how long a run has been going.

``RaceDetector`` skips joins that cannot change a clock (a release
version the context already absorbed) and keeps a context's own entry
out of every clock until its first recorded data access. The
reference below does neither; both must report the same findings.
"""

from __future__ import annotations

import runpy
from pathlib import Path

from repro import MPTreeBarrier, SMTreeBarrier
from repro.check import CheckerSet
from repro.check import checkers as checkers_mod
from repro.check import hb
from repro.experiments.common import make_machine
from repro.fuzz.gen import generate
from repro.fuzz.scenario import run_scenario
from repro.proc import Load, Store
from repro.proc import effects as fx
from repro.sim.probe import Subscriptions

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
#: the real join, kept before any test swaps in a ``JoinMeter``
_join = hb._join


class JoinEverything(hb.RaceDetector):
    """Reference detector: every acquire and deferred re-join joins the
    release clock, and every clock carries its context's own entry from
    creation, so every publish includes it."""

    def _new_clock(self, cid):
        return {cid: 1}

    def _acquire(self, cid, vc, addr):
        rel = self._rel.get(addr)
        if rel is not None:
            _join(vc, rel)


class JoinMeter:
    """Stands in for ``hb._join``: counts calls and the largest clock
    any join leaves behind."""

    def __init__(self) -> None:
        self.calls = 0
        self.largest = 0

    def __call__(self, into, other) -> None:
        self.calls += 1
        _join(into, other)
        self.largest = max(self.largest, len(into))


def _race_findings(scenario: dict) -> dict:
    sc = {**scenario, "checks": ["race"], "diff_macro": False}
    return run_scenario(sc)["check"]


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
class TestReferenceEquivalence:
    def test_fuzz_scenarios_report_identical_findings(self, monkeypatch):
        cases = [(seed, bug) for seed in range(100) for bug in (False, True)]
        scenarios = [generate(seed, inject_bug=bug) for seed, bug in cases]
        shipped = [_race_findings(sc) for sc in scenarios]
        monkeypatch.setattr(checkers_mod, "RaceDetector", JoinEverything)
        reference = [_race_findings(sc) for sc in scenarios]
        differ = [case for case, a, b in zip(cases, shipped, reference) if a != b]
        assert differ == []
        # the comparison covered real races (the injected bug's), not
        # only clean runs
        assert sum(1 for rep in reference if rep["total"]) >= 10

    def test_racy_histogram_findings_identical(self, monkeypatch):
        run = runpy.run_path(str(EXAMPLES / "racy_histogram.py"))["run"]
        shipped, counts = run(fixed=False)
        monkeypatch.setattr(checkers_mod, "RaceDetector", JoinEverything)
        reference, ref_counts = run(fixed=False)
        assert counts == ref_counts
        assert reference.total == 42
        assert shipped.as_dict() == reference.as_dict()


# ----------------------------------------------------------------------
# Cost independent of history
# ----------------------------------------------------------------------
def _mp_barrier(monkeypatch, episodes: int, nodes: int = 16):
    """Race-checked MP barrier; each episode every node writes its own
    word, and reads its neighbour's after the barrier."""
    meter = JoinMeter()
    monkeypatch.setattr(hb, "_join", meter)
    m = make_machine(nodes)
    cs = CheckerSet(m, checks=("race",))
    det = cs.checkers[0]
    b = MPTreeBarrier(m, fanout=8)
    words = [m.alloc(node, 8) for node in range(nodes)]

    def participant(node):
        for ep in range(episodes):
            yield Store(words[node], ep)
            yield from b.enter(node)
            yield Load(words[(node + 1) % nodes])
            yield from b.enter(node)

    for node in range(nodes):
        m.processor(node).run_thread(participant(node))
    m.run()
    return meter, det, cs.finalize()


class TestHistoryIndependence:
    def test_largest_mp_clock_does_not_grow_with_episodes(self, monkeypatch):
        largest = []
        for episodes in (2, 8):
            meter, det, report = _mp_barrier(monkeypatch, episodes)
            assert report.total == 0
            held = [*det._vc.values(), *det._rel.values(), *det._slots.values()]
            held += [c for fifo in det._send_clocks.values() for c in fifo]
            largest.append(max([meter.largest, *map(len, held)]))
        assert largest[0] == largest[1] > 0

    def test_drained_send_clock_fifos_are_deleted(self, monkeypatch):
        _, det, report = _mp_barrier(monkeypatch, episodes=2)
        assert report.total == 0
        assert det._send_clocks == {}
        # every context finished, and took its per-context state along
        assert det._vc == det._pending == det._absorbed == {}

    def test_sm_barrier_joins_scale_with_releases_not_spins(self, monkeypatch):
        meter = JoinMeter()
        monkeypatch.setattr(hb, "_join", meter)
        m = make_machine(64)
        cs = CheckerSet(m, checks=("race",))
        b = SMTreeBarrier(m, arity=2)
        executed = {fx.LoadAcquire: 0, fx.StoreRelease: 0}

        def count(ctx, eff):
            if eff.__class__ in executed:
                executed[eff.__class__] += 1

        subs = Subscriptions()
        for node in m.nodes:
            subs.add(node.processor, "before_execute", count)

        def participant(node):
            for _ in range(2):
                yield from b.enter(node)

        for node in range(64):
            m.processor(node).run_thread(participant(node))
        m.run()
        subs.clear()
        assert cs.finalize().total == 0
        releases, spins = executed[fx.StoreRelease], executed[fx.LoadAcquire]
        assert spins > 10 * releases  # the flags really are spun on
        # one publish per release, one acquire per release by its spinner
        assert meter.calls <= 2 * releases
