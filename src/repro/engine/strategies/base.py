"""Shared scaffolding for search strategies.

Two layers live here:

* :class:`Aggregator` — folds per-execution records into an
  :class:`~repro.engine.results.ExplorationResult` and answers "should
  the search stop?" after each one;
* :class:`SearchStrategy` — the resumable strategy base class.  Concrete
  strategies (DFS, BFS, random, ICB, sleep-set POR) implement a small
  frontier protocol (``_has_work`` / ``_run_once`` / ``_advance`` plus
  frontier (de)serialization) and inherit one battle-tested ``explore``
  loop that handles stop limits, graceful interrupts (signal flag and
  ``KeyboardInterrupt``), crash quarantine, and periodic checkpointing.

Both :meth:`SearchStrategy.state_dict` and
:meth:`Aggregator.state_dict` round-trip through JSON, which is what
:class:`repro.resilience.CheckpointStore` persists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.coverage import CoverageTracker
from repro.engine.results import ExecutionResult, ExplorationResult, Outcome
from repro.resilience.checkpoint import (
    exploration_from_state,
    exploration_to_state,
)
from repro.runtime.errors import UnsupportedConfiguration


@dataclass
class ExplorationLimits:
    """Resource limits for a systematic search."""

    max_executions: Optional[int] = None
    max_seconds: Optional[float] = None
    stop_on_first_violation: bool = True
    stop_on_first_divergence: bool = True
    #: How many violating/divergent executions to keep in full.
    keep_records: int = 16
    #: Stop once this many executions crashed and were quarantined
    #: (None = unlimited; crash capture itself is an executor switch).
    max_crashes: Optional[int] = None


class Aggregator:
    """Accumulates per-execution results into an :class:`ExplorationResult`."""

    def __init__(
        self,
        program_name: str,
        policy_name: str,
        strategy_name: str,
        limits: ExplorationLimits,
        coverage: Optional[CoverageTracker] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
    ) -> None:
        self.limits = limits
        self.coverage = coverage
        self._listener = listener
        self._observer = observer
        self._start = time.perf_counter()
        #: Wall seconds accumulated by earlier (checkpointed) runs.
        self._base_wall = 0.0
        self.result = ExplorationResult(
            program_name=program_name,
            policy_name=policy_name,
            strategy_name=strategy_name,
        )
        if observer is not None:
            observer.exploration_started(program_name, policy_name,
                                         strategy_name)

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Total search wall time, across resumptions."""
        return self._base_wall + (time.perf_counter() - self._start)

    # ------------------------------------------------------------------
    def add(self, record: ExecutionResult) -> Optional[str]:
        """Fold in one execution; returns a stop reason or None."""
        self.result.add(record, self.limits.keep_records)
        if self.coverage is not None:
            self.coverage.end_execution()
        if self._listener is not None:
            self._listener(record)

        if (self.limits.stop_on_first_violation
                and record.outcome in (Outcome.VIOLATION, Outcome.DEADLOCK)):
            return "violation"
        if (self.limits.stop_on_first_divergence
                and record.outcome is Outcome.DIVERGENCE):
            return "divergence"
        return self.limit_reached()

    def limit_reached(self) -> Optional[str]:
        """Resource limits already satisfied by the accumulated counts.

        Also consulted at loop *entry*: a checkpoint snapshotted the
        moment a count limit fired restores an aggregator that is
        already at its cap, and resuming it must stop before running
        anything — not overshoot by one execution.
        """
        res = self.result
        if (self.limits.max_crashes is not None
                and res.outcomes[Outcome.CRASHED] >= self.limits.max_crashes):
            return "max-crashes"
        if (self.limits.max_executions is not None
                and res.executions >= self.limits.max_executions):
            return "max-executions"
        if (self.limits.max_seconds is not None
                and self.elapsed() >= self.limits.max_seconds):
            return "max-seconds"
        return None

    def finish(self, *, complete: bool, stop_reason: Optional[str]) -> ExplorationResult:
        res = self.result
        res.wall_seconds = self.elapsed()
        res.complete = complete
        res.stop_reason = stop_reason
        res.limit_hit = stop_reason in ("max-executions", "max-seconds",
                                        "max-crashes")
        if self.coverage is not None:
            res.states_covered = self.coverage.count
        if self._observer is not None:
            self._observer.exploration_finished(res)
        return res

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = exploration_to_state(self.result)
        state["wall_seconds"] = self.elapsed()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the partial results of a checkpointed search."""
        restored = exploration_from_state(state)
        # Keep the names the live search was constructed with; only the
        # accumulated numbers and records come from the checkpoint.
        restored.program_name = self.result.program_name
        restored.policy_name = self.result.policy_name
        restored.strategy_name = self.result.strategy_name
        self.result = restored
        self._base_wall = state.get("wall_seconds", 0.0)
        self._start = time.perf_counter()


class SearchStrategy:
    """Base class for resumable search strategies.

    Subclasses implement the frontier protocol:

    * ``_has_work()`` — is there a next execution to run?
    * ``_run_once()`` — run it (without consuming frontier state that
      the next checkpoint would need to re-run it);
    * ``_advance(record)`` — fold the finished execution into the
      frontier (compute the next DFS guide, pop + extend the BFS queue,
      decrement the random budget, ...); runs after *every* execution,
      including the one a stop limit fires on, so a final checkpoint
      never re-counts work already folded in;
    * ``_announce()`` — continuation telemetry (DFS's ``backtrack``
      event), emitted only when the loop actually continues;
    * ``_frontier_state()`` / ``_load_frontier(state)`` — JSON
      round-trip of that frontier.

    The inherited :meth:`explore` loop then provides, uniformly: stop
    limits, graceful ``KeyboardInterrupt`` / signal handling (partial
    results with ``stop_reason="interrupted"`` instead of a lost
    search), crash quarantine, and periodic + final checkpoints.

    Checkpoint consistency: snapshots are taken at iteration *start*,
    when the frontier still describes the next execution to run; an
    execution interrupted mid-flight is therefore re-run on resume
    (at-least-once, deterministic — the record is identical).

    The class is the strategy's row in
    :data:`repro.engine.strategies.STRATEGIES`: the attributes and
    class methods below are everything callers need to build, label
    and replay it.
    """

    #: Stable name recorded in checkpoints (must match on resume), and
    #: the ``--strategy`` name.
    name = "base"
    #: Whether draining the frontier means the search was exhaustive
    #: (random search finishes its budget without being "complete").
    exhaustive = True
    #: Per-execution reducer hook class, built from the guide; it steers
    #: each execution in place of a plain :class:`GuidedChooser`, so the
    #: recorded decisions index the options it leaves, and replays must
    #: use it too (None: they index every schedulable option).
    reducer: Optional[type] = None

    @classmethod
    def create(cls, program, policy_factory, config, limits, *,
               bound: Optional[int] = None, seed: int = 0,
               executions: int = 0, **common) -> "SearchStrategy":
        """Build the strategy from a checker's settings and, for ICB,
        confine it to the sweep at ``bound``.  ``seed`` and
        ``executions`` are the random-search budget; ``common`` the
        coverage/listener/observer/resilience keywords."""
        return cls(program, policy_factory, config, limits, **common)

    def __init__(
        self,
        program,
        policy_factory,
        config=None,
        limits: Optional[ExplorationLimits] = None,
        *,
        coverage: Optional[CoverageTracker] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
        resilience=None,
    ) -> None:
        self.program = program
        self.policy_factory = policy_factory
        self.config = config
        self.limits = limits or ExplorationLimits()
        self.coverage = coverage
        self.listener = listener
        self.observer = observer
        self.resilience = resilience
        #: The outermost strategy, whose ``state_dict`` checkpoints are
        #: taken from (ICB points its inner DFS sweeps back at itself).
        self.root: "SearchStrategy" = self
        self.aggregator: Optional[Aggregator] = None
        self._pending_aggregator_state: Optional[dict] = None

    # ------------------------------------------------------------------
    # frontier protocol (subclass responsibility)
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        raise NotImplementedError

    def _run_once(self) -> ExecutionResult:
        raise NotImplementedError

    def _advance(self, record: ExecutionResult) -> None:
        raise NotImplementedError

    def _announce(self) -> None:
        """Telemetry emitted only when the search continues."""

    def _frontier_state(self) -> dict:
        raise NotImplementedError

    def _load_frontier(self, state: dict) -> None:
        raise NotImplementedError

    def strategy_label(self) -> str:
        """Display name used in results (may carry parameters)."""
        return self.name

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to continue this search elsewhere/later."""
        state = {"strategy": self.name, "frontier": self._frontier_state()}
        if self.aggregator is not None:
            state["aggregator"] = self.aggregator.state_dict()
        elif self._pending_aggregator_state is not None:
            state["aggregator"] = self._pending_aggregator_state
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (before ``explore``)."""
        recorded = state.get("strategy")
        if recorded != self.name:
            raise UnsupportedConfiguration(
                f"checkpoint was written by strategy {recorded!r}, "
                f"cannot resume it with {self.name!r}"
            )
        self._load_frontier(state.get("frontier") or {})
        self._pending_aggregator_state = state.get("aggregator")

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _make_aggregator(self) -> Aggregator:
        policy_name = getattr(self.policy_factory(), "name", "")
        return Aggregator(
            program_name=self.program.name,
            policy_name=policy_name,
            strategy_name=self.strategy_label(),
            limits=self.limits,
            coverage=self.coverage,
            listener=self.listener,
            observer=self.observer,
        )

    def explore(self) -> ExplorationResult:
        """Run the search to exhaustion, a stop limit, or an interrupt."""
        aggregator = self.aggregator = self._make_aggregator()
        if self._pending_aggregator_state is not None:
            aggregator.load_state_dict(self._pending_aggregator_state)
            self._pending_aggregator_state = None

        resilience = self.resilience
        # Restored counters can already sit at a limit (final checkpoint
        # of a limit-stopped run); honor it before the first execution.
        stop_reason: Optional[str] = aggregator.limit_reached()
        exhausted = False
        try:
            while stop_reason is None:
                if not self._has_work():
                    exhausted = True
                    break
                if resilience is not None:
                    stop_reason = resilience.stop_requested()
                    if stop_reason is not None:
                        break
                    resilience.maybe_checkpoint(self.root)
                record = self._run_once()
                if record.outcome is Outcome.CRASHED and resilience is not None:
                    resilience.quarantine_crash(self.program, record)
                stop_reason = aggregator.add(record)
                self._advance(record)
                if stop_reason is not None:
                    break
                self._announce()
        except KeyboardInterrupt:
            # Salvage the partial results instead of discarding hours of
            # search behind a raw traceback.
            stop_reason = "interrupted"
        if resilience is not None:
            resilience.flush_checkpoint(self.root)
            if stop_reason == "interrupted" and self.observer is not None:
                self.observer.search_interrupted(
                    resilience.stop_signal or "KeyboardInterrupt")
        complete = exhausted and stop_reason is None and self.exhaustive
        return aggregator.finish(complete=complete, stop_reason=stop_reason)


def next_dfs_guide(decisions) -> Optional[list]:
    """Backtrack: the guide for the next execution in DFS order, or None
    when the (bounded) execution tree is exhausted.

    Finds the deepest decision with an untried alternative, bumps it, and
    truncates everything below — the core of stateless depth-first search.
    """
    i = len(decisions) - 1
    while i >= 0 and decisions[i].index + 1 >= decisions[i].options:
        i -= 1
    if i < 0:
        return None
    return [d.index for d in decisions[:i]] + [decisions[i].index + 1]
