"""The one content-addressed object store.

The run cache's point results (:mod:`repro.perf.cache`), the service's
run bundles (:mod:`repro.serve.store`) and the fuzz corpus's
reproducers (:mod:`repro.fuzz.corpus`) are all objects of this store;
each kind keeps only its own format inside the object. This module is
the only code that writes, lists, deletes or garbage-collects them.

Layout: an object is a directory of named blobs at ``<root>/<key>/``.

* **publish** fills a temp directory, then renames it into place. A
  directory cannot be renamed onto an existing object, so the first
  publisher wins and a racing publish of the same key does nothing. A
  reader finds either no object or a whole one.
* **delete** renames the object away, then removes it. A reader racing
  the delete finds the object absent, never partial.
* **gc** removes objects older than an age, then the oldest down to a
  byte budget. An object's age is its directory's mtime.

Every name under a root that starts with :data:`TEMP_PREFIX` is a
publish, delete or file replace in flight, never an object. A process
killed half-way leaves its temp entry behind; every ``gc`` removes the
ones older than :data:`STALE_TEMP_SECONDS`.
"""

from __future__ import annotations

import errno
import itertools
import os
import shutil
import threading
import time
from pathlib import Path
from typing import NamedTuple

TEMP_PREFIX = ".tmp-"

#: a temp entry this old belongs to a killed process: a live publish
#: only writes blobs that are already in memory
STALE_TEMP_SECONDS = 3600.0

#: distinguishes temp names made by threads sharing one pid
_seq = itertools.count()


class StoredObject(NamedTuple):
    key: str
    mtime: float
    nbytes: int


def _temp_path(parent: Path, name: str) -> Path:
    return parent / (
        f"{TEMP_PREFIX}{name}-{os.getpid()}-{threading.get_ident()}-{next(_seq)}"
    )


def _check_name(name: str) -> None:
    if not name or "/" in name or name.startswith("."):
        raise ValueError(f"bad store name {name!r}")


def _size(path: Path) -> int:
    if not path.is_dir():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def _children(root: Path) -> list[Path]:
    try:
        return list(root.iterdir())
    except FileNotFoundError:
        return []


def publish(root: Path, key: str, blobs: dict[str, bytes]) -> bool:
    """Publish ``blobs`` as object ``key`` under ``root``. Returns
    False, having changed nothing, when ``key`` is already published."""
    _check_name(key)
    for name in blobs:
        _check_name(name)
    tmp = _temp_path(root, key)
    tmp.mkdir(parents=True)
    try:
        for name, blob in blobs.items():
            (tmp / name).write_bytes(blob)
        try:
            os.rename(tmp, root / key)
        except OSError as exc:
            if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
            return False
        return True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def delete(root: Path, key: str) -> None:
    """Remove object ``key`` (an absent key is a no-op)."""
    gone = _temp_path(root, key)
    try:
        os.rename(root / key, gone)
    except FileNotFoundError:
        return
    _remove(gone)


def replace_file(path: Path, blob: bytes) -> None:
    """Overwrite one file in place through a temp sibling and a rename,
    so a reader sees the old bytes or the new, never a mix."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_path(path.parent, path.name)
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def objects(root: Path) -> list[StoredObject]:
    """Every object under ``root`` (temp entries excluded), by key."""
    out = []
    for path in _children(root):
        if path.name.startswith("."):
            continue
        try:
            out.append(StoredObject(path.name, path.stat().st_mtime, _size(path)))
        except OSError:  # deleted while listed
            continue
    return sorted(out)


def gc(
    root: Path,
    max_age_days: float | None = None,
    max_bytes: int | None = None,
    everything: bool = False,
) -> int:
    """Remove entries older than ``max_age_days``, then the oldest
    until at most ``max_bytes`` remain (``everything``: all of them).
    Stale temp entries always go. Returns the number of entries removed
    (temp entries not counted)."""
    now = time.time()
    for path in _children(root):
        if not path.name.startswith(TEMP_PREFIX):
            continue
        try:
            stale = now - path.lstat().st_mtime > STALE_TEMP_SECONDS
        except OSError:  # its publisher finished meanwhile
            continue
        if stale:
            _remove(path)
    cutoff = None if max_age_days is None else now - max_age_days * 86400.0
    budget = -1 if everything else max_bytes
    oldest_first = sorted(objects(root), key=lambda o: (o.mtime, o.key))
    total = sum(o.nbytes for o in oldest_first)
    removed = 0
    for obj in oldest_first:
        too_old = cutoff is not None and obj.mtime < cutoff
        if not too_old and (budget is None or total <= budget):
            break
        delete(root, obj.key)
        total -= obj.nbytes
        removed += 1
    return removed
