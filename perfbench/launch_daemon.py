"""Run the ``serve`` daemon with every thread under cProfile.

    python3 perfbench/launch_daemon.py PROFILE_OUT serve --port 0 ...

Each thread (main, orchestrator workers, HTTP connection threads) gets
its own profiler timed by that thread's CPU clock, so time a thread
spends blocked is charged nowhere and the merged self times add up to
the process's CPU time. The package is imported before profiling
starts. On exit the merged profile is written to PROFILE_OUT (pstats
format) and the process CPU time over the profiled span to
PROFILE_OUT.json.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro.cli  # noqa: E402
import repro.serve.server  # noqa: E402,F401

_profiles: list[cProfile.Profile] = []
_lock = threading.Lock()
_thread_run = threading.Thread.run


def _profiled_run(self: threading.Thread) -> None:
    prof = cProfile.Profile(time.thread_time)
    with _lock:
        _profiles.append(prof)
    prof.enable()
    try:
        _thread_run(self)
    finally:
        prof.disable()


def main(argv: list[str]) -> int:
    out = argv[0]
    threading.Thread.run = _profiled_run
    main_prof = cProfile.Profile(time.thread_time)
    cpu0 = time.process_time()
    main_prof.enable()
    try:
        code = repro.cli.main(argv[1:])
    finally:
        main_prof.disable()
        for t in threading.enumerate():
            if t is not threading.current_thread():
                t.join(10)
        cpu = time.process_time() - cpu0
        stats = pstats.Stats(main_prof)
        with _lock:
            for prof in _profiles:
                stats.add(prof)
        stats.dump_stats(out)
        with open(out + ".json", "w") as fh:
            json.dump({"cpu_s": cpu}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
