"""Crash-safe filesystem primitives shared by every durable writer.

A process killed half-way through a plain ``write_text`` leaves a torn file
behind, and a later load would then treat the torn bytes as authoritative.
Every on-disk artefact that must survive a crash — history CSVs, the
campaign journal's manifest and checkpoint records — therefore goes through
the same two primitives:

* :func:`atomic_write_text` / :func:`atomic_write_bytes` — write to a
  temporary file in the *same directory* (so the final rename never crosses a
  filesystem boundary), flush, ``fsync``, ``os.replace`` onto the target
  name, then fsync the directory so the rename itself survives a power loss.
  Readers observe either the complete old content or the complete new
  content, never a mixture.
* :func:`fsync_file` — flush+fsync an open append-mode handle, used by the
  journal to make its append-only data files durable before the checkpoint
  record that references them is written.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "fsync_file"]


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Durably replace ``path``'s content with ``data`` (all-or-nothing).

    The bytes are written to a uniquely named temporary file next to the
    target, fsynced, and renamed over it with ``os.replace`` — atomic on
    POSIX, so a crash at any point leaves either the previous file or the new
    one, never a torn mixture.  The directory is fsynced after the rename:
    without it a power loss can undo the rename after this call returned.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        # Leave no temporary droppings behind on failure.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Durably replace ``path``'s content with ``text`` (all-or-nothing)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def fsync_file(handle: IO) -> None:
    """Flush and fsync an open file handle (durability barrier)."""
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_directory(path: Union[str, Path]) -> None:
    """Fsync a directory, making the entries created or renamed in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
