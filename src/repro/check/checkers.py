"""Checker orchestration: build, attach, and tear down checkers.

:class:`CheckerSet` is the one entry point the observability session
(and tests) use. It instantiates the requested checkers against a
machine (each subscribes to the machine's probe points,
:mod:`repro.sim.probe`), funnels their findings into a single
:class:`~repro.check.report.CheckReport`, registers the race detector
as a :mod:`repro.check.hooks` sink, and tears everything down again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.check import hooks
from repro.check.coherence import CoherenceSanitizer
from repro.check.hb import RaceDetector
from repro.check.report import CheckReport, Finding
from repro.check.watchdog import DeadlockWatchdog

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: every checker name ``--check`` accepts, in attach order
CHECKER_NAMES = ("race", "coherence", "deadlock")


def validate_checks(checks) -> tuple[str, ...]:
    """Normalize and validate a checker-name collection."""
    names = tuple(checks)
    unknown = [c for c in names if c not in CHECKER_NAMES]
    if unknown:
        raise ValueError(
            f"unknown checker(s) {unknown!r}; choose from {CHECKER_NAMES}"
        )
    # de-duplicate, canonical order
    return tuple(c for c in CHECKER_NAMES if c in names)


class CheckerSet:
    """The enabled dynamic checkers of one machine.

    ``on_finding`` (optional) is invoked for every finding as it is
    recorded — the observability session uses it to mirror findings
    into the event trace.
    """

    def __init__(
        self,
        machine: "Machine",
        checks=CHECKER_NAMES,
        max_findings: int = 1000,
        on_finding: Callable[[Finding], None] | None = None,
        spin_limit: int = 50_000,
        suspend_timeout: int = 50_000_000,
    ) -> None:
        checks = validate_checks(checks)
        self.machine = machine
        self.report = CheckReport(max_findings=max_findings)
        self._on_finding = on_finding
        self._finalized = False
        self.checkers: list = []
        self._sinks: list = []
        if "race" in checks:
            race = RaceDetector(machine, self._emit)
            self.checkers.append(race)
            hooks.register(race)
            self._sinks.append(race)
        if "coherence" in checks:
            self.checkers.append(CoherenceSanitizer(machine, self._emit))
        if "deadlock" in checks:
            self.checkers.append(DeadlockWatchdog(
                machine, self._emit,
                spin_limit=spin_limit,
                suspend_timeout=suspend_timeout,
            ))

    def _emit(self, finding: Finding) -> None:
        self.report.add(finding)
        if self._on_finding is not None:
            self._on_finding(finding)

    def finalize(self) -> CheckReport:
        """Run quiescence sweeps, detach every checker, and return the
        report. Idempotent."""
        if self._finalized:
            return self.report
        self._finalized = True
        for checker in self.checkers:
            checker.finalize()
        for sink in self._sinks:
            hooks.unregister(sink)
        for checker in self.checkers:
            checker.detach()
        return self.report

    def __enter__(self) -> "CheckerSet":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()
