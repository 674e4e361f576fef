"""The one content-addressed object store (``repro.perf.store``).

The run cache, the run store and the fuzz corpus all publish, list,
delete and garbage-collect through it, so its mechanics are tested once
here: racing publishers of one key, a publisher killed mid-publish, a
delete racing a reader, and ``gc`` by age, by bytes and with
everything. The per-kind suites test only what each kind keeps.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.perf import store

KEY = "ab" + "0" * 62
DAY = 86400.0


def _blobs(tag: str) -> dict[str, bytes]:
    """Blobs that identify their publisher, so a mixed object shows."""
    return {"a.bin": f"{tag}:a".encode() * 512, "b.json": f"{tag}:b".encode()}


def _read(path: Path, names) -> dict[str, bytes] | None:
    """Read an object the way every kind does, blob by blob by path:
    all of ``names``, or None (absent) if any one is missing."""
    try:
        return {name: (path / name).read_bytes() for name in names}
    except FileNotFoundError:
        return None


def _read_whole(path: Path) -> dict[str, bytes] | None:
    return _read(path, _blobs("").keys())


def _temp_entries(root: Path) -> list[str]:
    return [p.name for p in root.iterdir() if p.name.startswith(store.TEMP_PREFIX)]


def _publish_proc(root: str, tag: str, rounds: int) -> None:
    """Child-process body: publish one key over and over."""
    for _ in range(rounds):
        store.publish(Path(root), KEY, _blobs(tag))


def _die_mid_publish(root: str) -> None:
    """Child-process body: exit hard after the first blob of a publish
    is written, before the rename that would make it visible."""
    real_write = Path.write_bytes

    def write_then_die(self, data):
        real_write(self, data)
        os._exit(3)

    Path.write_bytes = write_then_die
    store.publish(Path(root), KEY, _blobs("killed"))


def _die_mid_delete(root: str) -> None:
    """Child-process body: exit hard after the first blob of a delete
    is unlinked."""
    real_unlink = os.unlink

    def unlink_then_die(*args, **kwargs):
        real_unlink(*args, **kwargs)
        os._exit(3)

    os.unlink = unlink_then_die
    store.delete(Path(root), KEY)


def _backdate(path: Path, seconds: float) -> None:
    t = time.time() - seconds
    os.utime(path, (t, t))


class TestPublish:
    def test_first_publisher_wins(self, tmp_path):
        assert store.publish(tmp_path, KEY, _blobs("one")) is True
        assert store.publish(tmp_path, KEY, _blobs("two")) is False
        assert _read_whole(tmp_path / KEY) == _blobs("one")
        objs = store.objects(tmp_path)
        assert [o.key for o in objs] == [KEY]
        assert objs[0].nbytes == sum(len(b) for b in _blobs("one").values())
        assert _temp_entries(tmp_path) == []

    def test_bad_names_rejected(self, tmp_path):
        for key, blobs in (
            ("", {"a": b""}), (".hidden", {"a": b""}), ("a/b", {"a": b""}),
            (KEY, {"../escape": b""}), (KEY, {".dot": b""}),
        ):
            with pytest.raises(ValueError):
                store.publish(tmp_path, key, blobs)
        assert list(tmp_path.iterdir()) == []

    def test_threads_and_processes_publish_one_key(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_publish_proc, args=(str(tmp_path), f"p{i}", 40))
            for i in range(3)
        ]
        errors: list[BaseException] = []
        seen: list[dict[str, bytes]] = []
        stop = threading.Event()

        def publisher(tag: str) -> None:
            try:
                for _ in range(40):
                    store.publish(tmp_path, KEY, _blobs(tag))
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        def reader() -> None:
            while not stop.is_set():
                got = _read_whole(tmp_path / KEY)
                if got is not None:
                    seen.append(got)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=publisher, args=(f"t{i}",))
                   for i in range(4)]
        for t in readers:
            t.start()
        for p in procs:
            p.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(60.0)
        for p in procs:
            p.join(60.0)
        stop.set()
        for t in readers:
            t.join(60.0)
        assert not any(t.is_alive() for t in readers + writers)
        assert not errors
        assert [p.exitcode for p in procs] == [0, 0, 0]
        final = _read_whole(tmp_path / KEY)
        # one publisher's blobs, whole, and every read saw exactly those
        assert final in [_blobs(f"t{i}") for i in range(4)] + [
            _blobs(f"p{i}") for i in range(3)
        ]
        assert seen and all(got == final for got in seen)
        assert [o.key for o in store.objects(tmp_path)] == [KEY]
        assert _temp_entries(tmp_path) == []

    def test_killed_publisher_leaves_no_object(self, tmp_path):
        proc = multiprocessing.get_context("spawn").Process(
            target=_die_mid_publish, args=(str(tmp_path),)
        )
        proc.start()
        proc.join(60.0)
        assert proc.exitcode == 3
        assert not (tmp_path / KEY).exists()
        assert store.objects(tmp_path) == []
        # what it leaves is a temp entry, which the next publish ignores
        # and a gc removes once it is stale
        [leftover] = _temp_entries(tmp_path)
        assert store.publish(tmp_path, KEY, _blobs("next")) is True
        _backdate(tmp_path / leftover, store.STALE_TEMP_SECONDS + 60)
        assert store.gc(tmp_path) == 0
        assert _temp_entries(tmp_path) == []
        assert _read_whole(tmp_path / KEY) == _blobs("next")


class TestDelete:
    BLOBS = {f"{i}.bin": bytes([i]) * 64 for i in range(16)}

    def test_delete_racing_reader_reads_absent(self, tmp_path):
        """A reader racing a delete reads the whole object or none of
        it; once the delete returns, the object is absent."""
        for _ in range(20):
            store.publish(tmp_path, KEY, self.BLOBS)
            wrong: list[dict] = []
            stop = threading.Event()

            def reader() -> None:
                while not stop.is_set():
                    got = _read(tmp_path / KEY, self.BLOBS)
                    if got is not None and got != self.BLOBS:
                        wrong.append(got)

            t = threading.Thread(target=reader)
            t.start()
            store.delete(tmp_path, KEY)
            stop.set()
            t.join(60.0)
            assert not t.is_alive()
            assert wrong == []
            assert _read(tmp_path / KEY, self.BLOBS) is None
        assert list(tmp_path.iterdir()) == []
        store.delete(tmp_path, KEY)  # absent: no-op

    def test_killed_delete_leaves_no_partial_object(self, tmp_path):
        store.publish(tmp_path, KEY, self.BLOBS)
        proc = multiprocessing.get_context("spawn").Process(
            target=_die_mid_delete, args=(str(tmp_path),)
        )
        proc.start()
        proc.join(60.0)
        assert proc.exitcode == 3
        # the key is free, not a half-emptied object blocking republish
        assert not (tmp_path / KEY).exists()
        assert store.objects(tmp_path) == []
        assert store.publish(tmp_path, KEY, self.BLOBS) is True


class TestGC:
    def _three(self, root: Path) -> list[str]:
        """Objects 10 days, 5 days and 0 days old (100 bytes each)."""
        keys = ["aa" + "0" * 62, "bb" + "0" * 62, "cc" + "0" * 62]
        for key, age in zip(keys, (10 * DAY, 5 * DAY, 0.0)):
            store.publish(root, key, {"blob": b"r" * 100})
            _backdate(root / key, age)
        return keys

    def test_gc_by_age(self, tmp_path):
        old, mid, new = self._three(tmp_path)
        assert store.gc(tmp_path, max_age_days=7) == 1
        assert [o.key for o in store.objects(tmp_path)] == [mid, new]
        assert store.gc(tmp_path, max_age_days=7) == 0

    def test_gc_by_bytes_oldest_first(self, tmp_path):
        old, mid, new = self._three(tmp_path)
        assert store.gc(tmp_path, max_bytes=300) == 0
        assert store.gc(tmp_path, max_bytes=150) == 2
        assert [o.key for o in store.objects(tmp_path)] == [new]

    def test_gc_everything(self, tmp_path):
        self._three(tmp_path)
        assert store.gc(tmp_path, everything=True) == 3
        assert list(tmp_path.iterdir()) == []
        assert store.gc(tmp_path / "missing", everything=True) == 0

    def test_gc_removes_stale_temp_entries_only(self, tmp_path):
        """A publisher or file replace killed before its rename leaves
        a temp entry; gc removes it once stale, never one in flight."""
        self._three(tmp_path)
        stale_dir = tmp_path / f"{store.TEMP_PREFIX}{KEY}-1-2-3"
        stale_dir.mkdir()
        (stale_dir / "blob").write_bytes(b"half")
        stale_file = tmp_path / f"{store.TEMP_PREFIX}cost.json-1-2-4"
        stale_file.write_bytes(b"{}")
        fresh_dir = tmp_path / f"{store.TEMP_PREFIX}{KEY}-1-2-5"
        fresh_dir.mkdir()
        _backdate(stale_dir, store.STALE_TEMP_SECONDS + 60)
        _backdate(stale_file, store.STALE_TEMP_SECONDS + 60)
        assert store.gc(tmp_path) == 0
        assert _temp_entries(tmp_path) == [fresh_dir.name]
        assert len(store.objects(tmp_path)) == 3
