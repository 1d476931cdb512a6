"""Typed telemetry events emitted by the exploration engine.

The event stream is the narrative of a search: one exploration, many
executions, each execution a sequence of scheduling decisions.  Events
are small frozen dataclasses with JSON-friendly fields; a sink receives
them in order through :class:`EventSink.emit`.

The decision events are *replay-compatible*: the ``indices`` of one
execution's :class:`PrefixRestored` event, followed by the ``index``
fields of its :class:`SchedulingDecision` events in order, reproduce
the guide that :func:`repro.engine.replay.replay_schedule` accepts (see
:func:`repro.obs.trace.schedule_from_events`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Event:
    """Base class for all telemetry events."""

    #: Stable wire name of the event (``type`` field of the JSON form).
    type: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"type": self.type}
        data.update(dataclasses.asdict(self))
        return data


@dataclass(frozen=True)
class ExplorationStarted(Event):
    """A systematic search began."""

    type: ClassVar[str] = "exploration.started"

    program: str
    policy: str
    strategy: str


@dataclass(frozen=True)
class ExplorationFinished(Event):
    """The search finished (exhausted, stopped, or limited)."""

    type: ClassVar[str] = "exploration.finished"

    executions: int
    transitions: int
    wall_seconds: float
    complete: bool
    stop_reason: Optional[str]


@dataclass(frozen=True)
class ExecutionStarted(Event):
    """One execution (one path through the choice tree) began."""

    type: ClassVar[str] = "execution.started"

    execution: int  # 0-based index within the exploration


@dataclass(frozen=True)
class ExecutionFinished(Event):
    """One execution ended."""

    type: ClassVar[str] = "execution.finished"

    execution: int
    outcome: str
    steps: int
    preemptions: int
    hit_depth_bound: bool


@dataclass(frozen=True)
class SchedulingDecision(Event):
    """One nondeterministic choice (thread or data) was resolved.

    ``index``/``options`` mirror :class:`repro.engine.results.Decision`;
    the in-order sequence of ``index`` values for one execution *is* the
    replayable schedule.
    """

    type: ClassVar[str] = "scheduling.decision"

    execution: int
    step: int  # transitions executed before this decision
    kind: str  # "thread" or "data"
    index: int
    options: int
    chosen: str  # repr of the thread id or data value
    schedulable: int  # |T| at this state (0 for data choices)
    enabled: int  # |ES| at this state (0 for data choices)


@dataclass(frozen=True)
class PrefixRestored(Event):
    """The execution started from a prefix snapshot: its first decisions
    were restored, not made, so they have no :class:`SchedulingDecision`
    events of their own."""

    type: ClassVar[str] = "prefix.restored"

    execution: int
    indices: Tuple[int, ...]  # the restored decisions' indices, in order


@dataclass(frozen=True)
class Preemption(Event):
    """A context switch that counts against the preemption bound."""

    type: ClassVar[str] = "preemption"

    execution: int
    step: int
    preempted: str  # thread that was running
    scheduled: str  # thread that took over
    count: int  # preemptions so far in this execution


@dataclass(frozen=True)
class Backtrack(Event):
    """DFS backtracked to a shallower decision for the next execution."""

    type: ClassVar[str] = "backtrack"

    execution: int  # execution just finished
    depth: int  # length of the next guide (index of the bumped decision + 1)


@dataclass(frozen=True)
class DivergenceClassified(Event):
    """A depth-bound-exceeding execution was classified (Section 2)."""

    type: ClassVar[str] = "divergence.classified"

    execution: int
    kind: str  # DivergenceKind.value
    culprits: Tuple[str, ...]
    window: int
    detail: str


@dataclass(frozen=True)
class ViolationFound(Event):
    """A safety property failed during an execution."""

    type: ClassVar[str] = "violation.found"

    execution: int
    step: int
    message: str


@dataclass(frozen=True)
class IcbSweep(Event):
    """One bound of an iterative-context-bounding sweep completed."""

    type: ClassVar[str] = "icb.sweep"

    bound: int
    executions: int
    transitions: int
    found_violation: bool
    wall_seconds: float


@dataclass(frozen=True)
class CheckpointWritten(Event):
    """A search checkpoint was flushed to disk."""

    type: ClassVar[str] = "checkpoint.written"

    path: str
    executions: int  # executions folded into the snapshot


@dataclass(frozen=True)
class ExecutionAborted(Event):
    """The execution watchdog cut one execution short."""

    type: ClassVar[str] = "execution.aborted"

    execution: int
    step: int
    reason: str


@dataclass(frozen=True)
class CrashQuarantined(Event):
    """A crashing execution was captured as a finding and set aside."""

    type: ClassVar[str] = "crash.quarantined"

    execution: int
    message: str
    path: Optional[str]  # repro file in the quarantine dir, if any


@dataclass(frozen=True)
class ThreadLeaked(Event):
    """Native threads survived execution teardown (hung in user code)."""

    type: ClassVar[str] = "thread.leaked"

    execution: int
    threads: Tuple[str, ...]


@dataclass(frozen=True)
class SearchInterrupted(Event):
    """The search stopped gracefully on an operator signal."""

    type: ClassVar[str] = "search.interrupted"

    signal: str


@dataclass(frozen=True)
class ShardStarted(Event):
    """A worker picked up one shard of a parallel search."""

    type: ClassVar[str] = "shard.started"

    shard: int
    worker: int
    description: str  # the shard's prefix or walk range


@dataclass(frozen=True)
class ShardFinished(Event):
    """One shard of a parallel search was merged into the totals."""

    type: ClassVar[str] = "shard.finished"

    shard: int
    worker: int
    executions: int
    transitions: int
    found_violation: bool


@dataclass(frozen=True)
class WorkerCrashed(Event):
    """A worker process died mid-shard; the shard was requeued or
    quarantined (docs/parallel.md)."""

    type: ClassVar[str] = "worker.crashed"

    worker: int
    shard: int  # -1 when the worker was idle
    requeued: bool


@dataclass(frozen=True)
class FaultInjected(Event):
    """The chaos plane fired one injected fault (docs/resilience.md)."""

    type: ClassVar[str] = "fault.injected"

    point: str  # fault-point name, e.g. "checkpoint.write"
    kind: str  # fault kind, e.g. "torn-write"
    hit: int  # 1-based hit count of the point when it fired


@dataclass(frozen=True)
class WorkerWedged(Event):
    """A worker stopped heartbeating (SIGSTOP, livelock) and was killed;
    its shard was requeued like a crashed worker's."""

    type: ClassVar[str] = "worker.wedged"

    worker: int
    shard: int  # -1 when the worker was idle
    silent_seconds: float  # time since its last heartbeat
    requeued: bool


@dataclass(frozen=True)
class CheckpointRecovered(Event):
    """A corrupt/truncated checkpoint was quarantined and the previous
    snapshot loaded in its place."""

    type: ClassVar[str] = "checkpoint.recovered"

    path: str  # the checkpoint that failed to load
    quarantined: Optional[str]  # where the bad file was moved, if it was


@dataclass(frozen=True)
class CheckpointWriteFailed(Event):
    """The disk refused a checkpoint write (ENOSPC, EIO); the search
    degraded to its last good snapshot instead of dying."""

    type: ClassVar[str] = "checkpoint.write_failed"

    path: str
    error: str


#: Registry of wire names, for trace readers.
EVENT_TYPES: Dict[str, type] = {
    cls.type: cls
    for cls in (
        ExplorationStarted,
        ExplorationFinished,
        ExecutionStarted,
        ExecutionFinished,
        SchedulingDecision,
        PrefixRestored,
        Preemption,
        Backtrack,
        DivergenceClassified,
        ViolationFound,
        IcbSweep,
        CheckpointWritten,
        ExecutionAborted,
        CrashQuarantined,
        ThreadLeaked,
        SearchInterrupted,
        ShardStarted,
        ShardFinished,
        WorkerCrashed,
        FaultInjected,
        WorkerWedged,
        CheckpointRecovered,
        CheckpointWriteFailed,
    )
}


class EventSink:
    """Receives engine events; the base class swallows them (no-op)."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        pass

    def close(self) -> None:
        """Flush and release any resources held by the sink."""


class CollectingSink(EventSink):
    """Keeps every event in a list — the test/inspection sink."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> List[Event]:
        return [e for e in self.events if isinstance(e, event_type)]


class CallbackSink(EventSink):
    """Forwards every event to a callable."""

    def __init__(self, callback: Callable[[Event], None]) -> None:
        self._callback = callback

    def emit(self, event: Event) -> None:
        self._callback(event)


class MultiSink(EventSink):
    """Fans events out to several sinks in order."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = list(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def event_from_dict(data: Dict[str, object]) -> Event:
    """Reconstruct an event from its JSON form (inverse of ``to_dict``)."""
    kind = data.get("type")
    cls = EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown event type {kind!r}")
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in data.items() if k in fields}
    for name in ("culprits", "threads", "indices"):
        if isinstance(kwargs.get(name), list):
            kwargs[name] = tuple(kwargs[name])
    return cls(**kwargs)  # type: ignore[arg-type]
