"""Host-time attribution of a deterministic (cProfile) profile to the
package's layers.

A layer is a directory ``src/repro/<layer>/``. Each profiled function's
self time goes to the layer that owns its source file. Code the
package does not own -- C builtins (heapq, deque, pickle, json,
socket), the standard library, numpy, this benchmark -- is charged to
the layers of its callers: a function's self time is split over its
direct callers exactly as the profile records it, and a caller that is
itself unowned passes its share on in proportion to its own callers'
inclusive time. What reaches no layer (package modules outside a
layer directory, thread roots) goes to ``other``.
"""

from __future__ import annotations

import os

LAYERS = (
    "sim", "proc", "memory", "network", "cmmu", "runtime", "apps", "faults",
    "machine", "obs", "check", "trace", "perf", "serve",
)

#: public entry points whose call counts and inclusive time per call
#: give the per-operation metrics: name -> (file under the package, function)
ENTRY_POINTS = {
    "proc.step": ("proc/processor.py", "_step"),
    "memory.access": ("memory/coherence.py", "access"),
    "memory.handle_packet": ("memory/coherence.py", "handle_packet"),
    "network.send": ("network/fabric.py", "send"),
    "cmmu.launch": ("cmmu/interface.py", "launch"),
    "cmmu.storeback": ("cmmu/interface.py", "storeback"),
    "cache.get": ("perf/cache.py", "get"),
    "cache.put": ("perf/cache.py", "put"),
    "perf.fingerprint": ("perf/cache.py", "code_fingerprint"),
    "serve.store_get": ("serve/store.py", "get"),
    "serve.publish": ("serve/store.py", "publish"),
    "serve.journal": ("serve/journal.py", "record"),
}


def _owner(func: tuple, pkg: str) -> str | None:
    filename = func[0]
    if not filename.startswith(pkg):
        return None
    top = filename[len(pkg):].split(os.sep, 1)[0]
    return top if top in LAYERS else "other"


def attribute(stats: dict, pkg_dir: str) -> dict:
    """Split a ``pstats``-shaped stats dict into per-layer self seconds.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping caller to ``(nc, cc, tt, ct)``,
    as ``cProfile.Profile.create_stats`` leaves it. Returns
    ``{"self_s": {layer: s}, "total_s": s, "entries": {name: {"calls",
    "inclusive_s"}}}``; the layer seconds sum to ``total_s``.
    """
    pkg = os.path.abspath(pkg_dir) + os.sep
    owner = {f: _owner(f, pkg) for f in stats}
    shares: dict = {}

    def share(func: tuple, stack: frozenset) -> dict:
        """Layer shares of an unowned function's time, from its callers."""
        if func in shares:
            return shares[func]
        weights: dict = {}
        total = 0.0
        for caller, (_, _, _, ct) in stats[func][4].items():
            if caller == func or caller in stack or caller not in stats:
                continue
            part = {owner[caller]: 1.0} if owner[caller] else share(caller, stack | {func})
            for layer, s in part.items():
                weights[layer] = weights.get(layer, 0.0) + ct * s
            total += ct
        result = {k: v / total for k, v in weights.items()} if total > 0 else {"other": 1.0}
        shares[func] = result
        return result

    self_s = dict.fromkeys((*LAYERS, "other"), 0.0)
    for func, (_, _, tt, _, callers) in stats.items():
        if owner[func]:
            self_s[owner[func]] += tt
            continue
        spent = 0.0
        for caller, (_, _, ctt, _) in callers.items():
            if caller not in stats:
                continue
            part = {owner[caller]: 1.0} if owner[caller] else share(caller, frozenset())
            for layer, s in part.items():
                self_s[layer] += ctt * s
            spent += ctt
        for layer, s in share(func, frozenset()).items():
            self_s[layer] += max(0.0, tt - spent) * s

    entries = {}
    for name, (rel, fn) in ENTRY_POINTS.items():
        path = pkg + rel.replace("/", os.sep)
        calls = inclusive = 0
        for func, (_, nc, _, ct, _) in stats.items():
            if func[0] == path and func[2] == fn:
                calls += nc
                inclusive += ct
        entries[name] = {"calls": calls, "inclusive_s": inclusive}
    total = sum(tt for _, _, tt, _, _ in stats.values())
    return {"self_s": self_s, "total_s": total, "entries": entries}
