"""Exploration telemetry: events, metrics, phase timers, traces, progress.

The checker runs with ``observer=None`` by default and pays nothing; pass
an :class:`Observer` to see inside a search::

    from repro import Checker
    from repro.obs import Observer

    observer = Observer()
    result = Checker(program, observer=observer).run()
    print(observer.summary())          # phase timings + metrics
    observer.dump_json("metrics.json") # machine-readable export

See ``docs/observability.md`` for the event schema and metric names.
"""

from repro.obs.events import (
    Backtrack,
    CallbackSink,
    CheckpointRecovered,
    CheckpointWriteFailed,
    CheckpointWritten,
    CollectingSink,
    CrashQuarantined,
    DivergenceClassified,
    FaultInjected,
    Event,
    EventSink,
    ExecutionAborted,
    ExecutionFinished,
    ExecutionStarted,
    ExplorationFinished,
    ExplorationStarted,
    IcbSweep,
    MultiSink,
    Preemption,
    PrefixRestored,
    SchedulingDecision,
    SearchInterrupted,
    ThreadLeaked,
    ViolationFound,
    event_from_dict,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.progress import ProgressReporter
from repro.obs.timers import PHASES, PhaseTimers
from repro.obs.trace import JsonlTraceWriter, read_jsonl, schedule_from_events

__all__ = [
    "Backtrack",
    "CallbackSink",
    "CheckpointRecovered",
    "CheckpointWriteFailed",
    "CheckpointWritten",
    "CollectingSink",
    "Counter",
    "CrashQuarantined",
    "DivergenceClassified",
    "FaultInjected",
    "Event",
    "EventSink",
    "ExecutionAborted",
    "ExecutionFinished",
    "ExecutionStarted",
    "ExplorationFinished",
    "ExplorationStarted",
    "Gauge",
    "Histogram",
    "IcbSweep",
    "SearchInterrupted",
    "ThreadLeaked",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "MultiSink",
    "Observer",
    "PHASES",
    "PhaseTimers",
    "Preemption",
    "PrefixRestored",
    "ProgressReporter",
    "SchedulingDecision",
    "ViolationFound",
    "event_from_dict",
    "read_jsonl",
    "schedule_from_events",
]
