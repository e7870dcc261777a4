"""Concurrency-safe atomic writes (ISSUE 6 satellite bugfix).

The old fixed ``<path>.tmp`` sibling meant two concurrent writers shared
one temporary and renamed each other's half-written bytes into place.
The fix — unique per-process/per-call temporaries created with
``O_EXCL`` — must guarantee that whatever interleaving happens, the
destination only ever holds one writer's *complete* document.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.ioutil import atomic_write_text


def test_basic_write_and_replace(tmp_path):
    dest = str(tmp_path / "out.json")
    atomic_write_text(dest, "one\n")
    atomic_write_text(dest, "two\n")
    with open(dest) as fh:
        assert fh.read() == "two\n"


def test_no_temporaries_left_behind(tmp_path):
    dest = str(tmp_path / "out.json")
    atomic_write_text(dest, "payload\n")
    assert os.listdir(tmp_path) == ["out.json"]


def test_failure_cleans_up_temporary(tmp_path):
    dest = str(tmp_path / "sub" / "out.json")  # parent dir missing
    with pytest.raises(OSError):
        atomic_write_text(dest, "payload\n")
    assert not (tmp_path / "sub").exists()


def test_foreign_tmp_file_is_not_clobbered(tmp_path):
    """A leftover temporary from another writer (crash, pid reuse) must
    never be silently overwritten or deleted: O_EXCL fails the open, and
    the foreign file survives."""
    dest = str(tmp_path / "out.json")
    pid = os.getpid()
    # occupy every candidate name this process could pick next
    import repro.ioutil as ioutil

    current = next(ioutil._seq)
    foreign = f"{dest}.tmp.{pid}.{current + 1}"
    with open(foreign, "w") as fh:
        fh.write("foreign writer's bytes")
    with pytest.raises(FileExistsError):
        atomic_write_text(dest, "mine\n")
    with open(foreign) as fh:
        assert fh.read() == "foreign writer's bytes"


def test_concurrent_threads_one_process(tmp_path):
    """Threads share a pid; the per-call sequence number keeps their
    temporaries distinct, so every write succeeds and the final content
    is one complete payload."""
    dest = str(tmp_path / "out.json")
    errors = []

    def write(i):
        try:
            for k in range(20):
                atomic_write_text(dest, json.dumps({"writer": i, "k": k}))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    with open(dest) as fh:
        data = json.load(fh)  # complete, valid JSON
    assert data["k"] == 19
    leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert leftovers == []


def _process_writer(dest, i):
    payload = json.dumps({"writer": i, "blob": "x" * 4096})
    for _ in range(25):
        atomic_write_text(dest, payload)


def test_concurrent_processes_last_replace_wins(tmp_path):
    """The regression scenario: concurrent ``repro index`` runs against
    one store path.  With unique temporaries, readers only ever observe
    one writer's complete document."""
    dest = str(tmp_path / "store.json")
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_process_writer, args=(dest, i)) for i in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    with open(dest) as fh:
        data = json.load(fh)
    assert data["writer"] in range(4)
    assert len(data["blob"]) == 4096
    leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert leftovers == []


# -- size-based rotation (repro serve --access-log-max-bytes) ---------------


def test_rotating_writer_rotates_at_size(tmp_path):
    from repro.ioutil import RotatingLineWriter

    dest = str(tmp_path / "access.log")
    with RotatingLineWriter(dest, max_bytes=100) as log:
        for i in range(20):
            log.write(json.dumps({"rid": i}) + "\n")
    assert log.rotations >= 1
    assert os.path.exists(dest) and os.path.exists(dest + ".1")
    # records never split across the boundary: every line parses, and
    # both files respect the size budget (one record of slack)
    for path in (dest, dest + ".1"):
        body = open(path).read()
        assert len(body.encode()) <= 100 + 12
        for line in body.splitlines():
            json.loads(line)


def test_rotating_writer_survives_rotation_mid_stream(tmp_path):
    """The buffered-writer contract: rotation is invisible to the
    caller, and writes after a rotation land in the fresh file."""
    from repro.ioutil import RotatingLineWriter

    dest = str(tmp_path / "access.log")
    log = RotatingLineWriter(dest, max_bytes=40)
    log.write("a" * 39 + "\n")
    log.write("b" * 10 + "\n")  # would exceed: rotates first
    log.flush()
    assert open(dest + ".1").read() == "a" * 39 + "\n"
    assert open(dest).read() == "b" * 10 + "\n"
    log.write("c\n")
    log.close()
    assert open(dest).read() == "b" * 10 + "\n" + "c\n"


def test_rotating_writer_oversized_record_still_lands(tmp_path):
    """A single record larger than max_bytes is written whole (into a
    fresh file when the current one is non-empty), never dropped."""
    from repro.ioutil import RotatingLineWriter

    dest = str(tmp_path / "access.log")
    with RotatingLineWriter(dest, max_bytes=10) as log:
        log.write("x" * 50 + "\n")  # empty file: lands, no rotation
        log.write("y\n")  # rotates, then lands
    assert open(dest + ".1").read() == "x" * 50 + "\n"
    assert open(dest).read() == "y\n"


def test_rotating_writer_appends_on_restart(tmp_path):
    from repro.ioutil import RotatingLineWriter

    dest = str(tmp_path / "access.log")
    with RotatingLineWriter(dest, max_bytes=1000) as log:
        log.write("first\n")
    with RotatingLineWriter(dest, max_bytes=1000) as log:
        log.write("second\n")
    assert open(dest).read() == "first\nsecond\n"


def test_rotating_writer_rejects_nonpositive_budget(tmp_path):
    from repro.ioutil import RotatingLineWriter

    with pytest.raises(ValueError):
        RotatingLineWriter(str(tmp_path / "a.log"), max_bytes=0)
