"""Concurrency-safe file I/O shared by every layer that persists JSON.

A ``repro index`` store is written the way every persisted document
should be: serialize to a temporary sibling, then ``os.replace`` so
readers never observe a truncated document.  The original spelling used a
*fixed* ``<path>.tmp`` sibling — two concurrent writers (two ``repro
index`` runs against one store) would then write into the *same*
temporary file and rename each other's half-written bytes into place.

``atomic_write_text`` closes that race: the temporary name is unique per
process (``<path>.tmp.<pid>``) and created with ``O_EXCL`` so even a pid
collision (container pid reuse, a leftover file from a crash) fails loudly
instead of silently interleaving two writers.  The final ``os.replace``
is atomic on POSIX, so concurrent writers serialize to
last-replace-wins — each outcome a complete, valid document.
"""

from __future__ import annotations

import itertools
import os
import sys
from contextlib import contextmanager
from typing import IO, Iterator

__all__ = [
    "RotatingLineWriter",
    "atomic_write_text",
    "out_stream",
    "write_text",
]

#: per-call disambiguator so concurrent *threads* of one process get
#: distinct temporaries too (the pid alone separates processes)
_seq = itertools.count()


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8).

    Writes to a unique ``<path>.tmp.<pid>.<n>`` sibling opened with
    ``O_EXCL`` (two writers can never share a temporary), then renames it
    over ``path``.  On any failure the temporary is removed, never left
    to shadow a later writer's ``O_EXCL`` create.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{next(_seq)}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def out_stream(dest: str) -> Iterator[IO[str]]:
    """The one ``-``-means-stdout output convention, shared by every
    JSON-emitting destination flag (``--stats-json``, ``--trace-json``,
    ``--trace-jsonl``, ``explain --json``, ``query -o``, ``serve
    --access-log``): ``-`` yields ``sys.stdout`` (left open), anything
    else opens the file at that path for writing."""
    if dest == "-":
        yield sys.stdout
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            yield fh


def write_text(dest: str, text: str) -> None:
    """Write ``text`` (newline-terminated) to ``dest`` per
    :func:`out_stream`'s convention."""
    with out_stream(dest) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


class RotatingLineWriter:
    """A file-like line writer with size-based rotation (``repro serve
    --access-log-max-bytes``).

    Presents the ``write``/``flush``/``close`` surface the query
    server's buffered access-log path expects, so rotation is invisible
    to the writer: when appending ``chunk`` would push the current file
    past ``max_bytes`` (and the file is non-empty — a single oversized
    record still lands somewhere), the file is flushed, closed, and
    atomically renamed to ``<path>.1`` (``os.replace``, clobbering the
    previous backup), and a fresh ``<path>`` is opened.  A chunk is
    never split across the rotation boundary, so both files always hold
    whole JSONL records.

    Opens in append mode — restarting a daemon against an existing log
    continues (and correctly sizes) it rather than truncating history.
    The caller serializes ``write`` calls (the server already holds its
    access-log lock); rotation happens inside the same call, so no
    extra locking is needed here.
    """

    def __init__(self, path: str, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.path = path
        self.max_bytes = max_bytes
        self.rotations = 0
        self._fh = open(path, "a", encoding="utf-8")
        self._size = self._fh.tell()

    def write(self, chunk: str) -> int:
        n = len(chunk.encode("utf-8"))
        if self._size > 0 and self._size + n > self.max_bytes:
            self._rotate()
        self._fh.write(chunk)
        self._size += n
        return len(chunk)

    def _rotate(self) -> None:
        self._fh.flush()
        self._fh.close()
        os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "RotatingLineWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
