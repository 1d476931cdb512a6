"""Resilient exploration: checkpoint/resume, execution budgets, crash
quarantine.

Long searches over real systems code must survive the real world:

* **checkpoint/resume** — :class:`CheckpointStore` writes atomic,
  versioned snapshots of the search frontier + aggregated results;
  ``Checker.run(resume_from=...)`` (CLI ``--checkpoint/--resume``)
  continues an interrupted search to the same outcome;
* **execution budgets** — ``execution_budget_seconds`` (CLI
  ``--execution-budget``) bounds each execution's wall-clock time; the
  executor (:func:`~repro.engine.executor.run_execution`) enforces it
  and aborts the execution, and hung native threads are cut loose and
  reported as leaked instead of stalling the run;
* **crash quarantine** — :class:`CrashQuarantine` turns a crashing
  execution into a replayable finding and lets the search continue,
  bounded by ``--max-crashes``;
* **graceful stop** — :class:`GracefulStop` converts SIGINT/SIGTERM into
  a cooperative stop that flushes a final checkpoint and returns partial
  results with ``stop_reason="interrupted"``.

See ``docs/resilience.md`` for formats and semantics.
"""

from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    exploration_from_state,
    exploration_to_state,
    freeze_rng,
    load_checkpoint,
    record_from_state,
    record_to_state,
    thaw_rng,
)
from repro.resilience.controller import ResilienceController, ResilienceOptions
from repro.resilience.quarantine import CrashQuarantine
from repro.resilience.signals import GracefulStop

__all__ = [
    "FORMAT_VERSION",
    "CheckpointStore",
    "CrashQuarantine",
    "GracefulStop",
    "ResilienceController",
    "ResilienceOptions",
    "exploration_from_state",
    "exploration_to_state",
    "freeze_rng",
    "load_checkpoint",
    "record_from_state",
    "record_to_state",
    "thaw_rng",
]
