"""The one atomic-write helper every durable artifact goes through.

Near-identical tmp-write-then-``os.replace`` snippets used to live in
``engine/persistence.py`` and ``resilience/checkpoint.py`` — none of
them fsynced, so a crash after the rename could publish an empty or
torn file, and a crash after a successful-looking save could lose it
entirely.  They are unified here with the full durability dance:

1. write the payload to ``path.tmp`` (same directory, so the rename
   stays atomic);
2. ``fsync`` the temp file — the *contents* are on disk before the name
   points at them;
3. ``os.replace`` onto the destination — readers see either the old
   file or the complete new one, never a mixture;
4. ``fsync`` the containing directory — the *rename itself* is on disk,
   so kill -9 after return cannot roll the file back.

``durable=False`` skips both fsyncs for artifacts whose loss is
acceptable (they are rewritten every interval anyway) when the caller
prefers throughput.

Every step is a chaos fault point (``{label}.write`` / ``.fsync`` /
``.replace`` / ``.dirsync``) and is logged to the active
:class:`~repro.chaos.faults.WriteRecorder`, which is what lets the
torture suite replay every crash prefix of the physical sequence.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.chaos.faults import InjectedFault, fault_at, record_op

__all__ = ["atomic_write", "atomic_write_json", "atomic_write_text",
           "fsync_dir"]


def fsync_dir(directory: Path, *, label: str = "dir") -> None:
    """fsync a directory so renames/unlinks inside it are durable.

    Best-effort on platforms whose filesystems refuse directory fds
    (the ``OSError`` pass matches what SQLite and friends do).
    """
    fault_at(f"{label}.dirsync", path=str(directory))
    record_op("fsync_dir", str(directory))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: bytes, *,
                 durable: bool = True, label: str = "file") -> None:
    """Atomically (and, by default, durably) publish ``data`` at ``path``.

    ``label`` names the artifact in fault points and telemetry
    (``checkpoint``, ``job``, ``schedule``, ...).  Raises ``OSError``
    on real disk failure — callers that must survive ENOSPC catch it;
    :class:`InjectedFault` (a simulated crash) is never caught here.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")

    rule = fault_at(f"{label}.write", path=str(path))
    payload = data
    torn = False
    if rule is not None and rule.kind in ("torn-write", "short-write"):
        payload = data[: int(len(data) * rule.keep)]
        torn = rule.kind == "torn-write"

    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, payload)
        record_op("write", str(tmp), payload)
        if torn:
            # Simulated kill mid-write: the temp file stays behind,
            # the destination is never touched.
            raise InjectedFault(f"torn write at {tmp}")
        if durable:
            drop = fault_at(f"{label}.fsync", path=str(path))
            if drop is None or drop.kind != "fsync-drop":
                os.fsync(fd)
                record_op("fsync", str(tmp))
    finally:
        os.close(fd)

    rule = fault_at(f"{label}.replace", path=str(path))
    if rule is not None and rule.kind == "replace-interrupted":
        raise InjectedFault(f"crash before replace of {path}")
    os.replace(tmp, path)
    record_op("replace", str(tmp), str(path))

    if durable:
        fsync_dir(path.parent, label=label)


def atomic_write_text(path: Union[str, Path], text: str, *,
                      durable: bool = True, label: str = "file") -> None:
    atomic_write(path, text.encode("utf-8"), durable=durable, label=label)


def atomic_write_json(path: Union[str, Path], obj, *, durable: bool = True,
                      label: str = "file", indent: int = 2,
                      sort_keys: bool = True) -> None:
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write(path, text.encode("utf-8"), durable=durable, label=label)
