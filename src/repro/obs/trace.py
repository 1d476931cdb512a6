"""JSONL trace writer and reader.

One event per line, in emission order — the cheapest durable format that
a later process (or a human with ``jq``) can stream.  The trace is
*replay-compatible*: :func:`schedule_from_events` recovers the decision
guide of any recorded execution, which
:func:`repro.engine.replay.replay_schedule` accepts verbatim.
"""

from __future__ import annotations

import json
import warnings
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.obs.events import (
    Event,
    EventSink,
    ExecutionFinished,
    PrefixRestored,
    SchedulingDecision,
    event_from_dict,
)


class JsonlTraceWriter(EventSink):
    """Writes each event as one JSON line to a file or stream."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self.events_written = 0

    def emit(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_dict(), default=str))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


def read_jsonl(source: Union[str, IO[str], Iterable[str]], *,
               strict: bool = False) -> Iterator[Event]:
    """Yield events back from a JSONL trace (path, stream, or lines).

    A trace cut short by a crash or a full disk usually ends in a
    truncated line; by default such corrupt lines are *skipped* with a
    :class:`RuntimeWarning` naming the line number, so every event
    before the damage is still recovered.  ``strict=True`` raises
    :class:`ValueError` at the first bad line instead (for callers that
    must not silently lose events).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from _read_lines(handle, source, strict)
        return
    yield from _read_lines(source, "<stream>", strict)


def _read_lines(lines: Iterable[str], origin: str,
                strict: bool) -> Iterator[Event]:
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = event_from_dict(json.loads(line))
        except (json.JSONDecodeError, ValueError, KeyError,
                TypeError) as exc:
            if strict:
                raise ValueError(
                    f"{origin}:{number}: corrupt trace line: {exc}"
                ) from exc
            warnings.warn(
                f"{origin}:{number}: skipping corrupt trace line ({exc})",
                RuntimeWarning, stacklevel=3)
            continue
        yield event


def schedule_from_events(events: Iterable[Event],
                         execution: Optional[int] = None) -> List[int]:
    """Recover the replay guide of one recorded execution.

    With ``execution=None`` the last execution that finished with outcome
    ``violation``, ``deadlock`` or ``divergence`` is used (the one a user
    typically wants to replay); pass an index to pick explicitly.
    """
    decisions: dict = {}
    interesting: Optional[int] = None
    for event in events:
        if isinstance(event, SchedulingDecision):
            # Emission order is replay order (thread and data decisions
            # interleave within a step).
            decisions.setdefault(event.execution, []).append(event.index)
        elif isinstance(event, PrefixRestored):
            # A restored prefix precedes every decision the execution made.
            decisions[event.execution] = [
                *event.indices, *decisions.get(event.execution, ())]
        elif isinstance(event, ExecutionFinished):
            if event.outcome in ("violation", "deadlock", "divergence"):
                interesting = event.execution
    target = execution if execution is not None else interesting
    if target is None or target not in decisions:
        raise ValueError(
            f"no recorded decisions for execution {target!r} "
            f"(recorded: {sorted(decisions)})"
        )
    return decisions[target]
