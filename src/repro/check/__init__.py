"""Dynamic correctness checkers (``repro.check``).

Pluggable dynamic analyses that subscribe to the same probe points
as the observability layer (:mod:`repro.sim.probe`) — a
happens-before data-race detector, a cache-coherence invariant
sanitizer, and a deadlock/livelock watchdog. Enable them per run via
``ObsConfig(check=("race", "coherence", "deadlock"))`` or the CLI's
``--check=race,coherence,deadlock``; findings land in the run
manifest and ``python -m repro.check run.json`` gates on them.

Checked runs are *cycle-identical* to unchecked ones: checkers only
observe the effect stream and protocol transitions, never schedule
events or charge cycles. See ``docs/CHECKING.md``.
"""

from repro.check.checkers import CHECKER_NAMES, CheckerSet, validate_checks
from repro.check.coherence import CoherenceSanitizer
from repro.check.hb import RaceDetector
from repro.check.report import CheckReport, Finding
from repro.check.watchdog import DeadlockWatchdog

__all__ = [
    "CHECKER_NAMES",
    "CheckReport",
    "CheckerSet",
    "CoherenceSanitizer",
    "DeadlockWatchdog",
    "Finding",
    "RaceDetector",
    "validate_checks",
]
