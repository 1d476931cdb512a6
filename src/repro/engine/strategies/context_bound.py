"""Context-bounded search (Musuvathi & Qadeer, PLDI 2007) + fairness.

A *preemption* is a context switch forced by the scheduler while the
current thread is still enabled.  Context-bounded search explores only
executions with at most ``c`` preemptions; empirically most bugs need very
few.  Table 2 of the fair-scheduling paper evaluates ``cb = 1..3``.

Integration with fairness (Section 4): a switch forced by the priority
relation — the running thread is enabled but no longer schedulable — is
**not** counted against the bound, otherwise fair search would be unsound
at small bounds.  The accounting itself lives in the executor; this module
provides the iterative sweep, :class:`IcbStrategy`.

Checkpointing: an ICB snapshot holds the current bound, the serialized
results of every finished sweep, and the in-flight inner DFS frontier, so
``--resume`` picks the sweep back up mid-bound.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import ExecutionResult, ExplorationResult
from repro.engine.strategies.base import ExplorationLimits, SearchStrategy
from repro.engine.strategies.dfs import DfsStrategy
from repro.resilience.checkpoint import (
    exploration_from_state,
    exploration_to_state,
)

#: The sweep ceiling when the configuration sets no preemption bound.
DEFAULT_CEILING = 2


def _ceiling(config) -> int:
    bound = config.preemption_bound
    return DEFAULT_CEILING if bound is None else bound


def merge_sweeps(program_name: str, policy_name: str,
                 sweeps) -> ExplorationResult:
    """Fold the per-bound results of an ICB sweep into one summary."""
    merged = ExplorationResult(
        program_name=program_name,
        policy_name=policy_name,
        strategy_name=f"icb(<= {len(sweeps) - 1})",
    )
    for result in sweeps:
        merged.absorb(result)
    merged.complete = all(result.complete for result in sweeps)
    if sweeps:
        merged.stop_reason = sweeps[-1].stop_reason
    if sweeps and sweeps[-1].states_covered is not None:
        merged.states_covered = sweeps[-1].states_covered
    return merged


class IcbStrategy(SearchStrategy):
    """Iterative context bounding: DFS sweeps at bounds 0, 1, ..., max.

    :meth:`explore` returns the sweeps merged by :func:`merge_sweeps`;
    :meth:`sweeps` returns the per-bound :class:`ExplorationResult`\\ s.
    Each sweep is an inner :class:`DfsStrategy` whose ``root`` points
    back here, so checkpoints taken mid-sweep capture the whole sweep
    history plus the in-flight DFS frontier.  A checker's preemption
    bound is the ceiling of the sweeps (:data:`DEFAULT_CEILING` when it
    sets none).
    """

    name = "icb"

    @classmethod
    def create(cls, program, policy_factory, config, limits, *,
               bound=None, seed=0, executions=0, **common):
        """The whole sweep sequence, or with ``bound`` one sweep of it: a
        DFS under that bound."""
        if bound is not None:
            return DfsStrategy.create(
                program, policy_factory,
                dataclasses.replace(config, preemption_bound=bound), limits,
                strategy_name=f"cb={bound}", **common)
        return cls(program, policy_factory, _ceiling(config),
                   dataclasses.replace(config, preemption_bound=None),
                   limits, stop_on_violation=limits.stop_on_first_violation,
                   **common)

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        max_bound: int,
        config: Optional[ExecutorConfig] = None,
        limits: Optional[ExplorationLimits] = None,
        *,
        coverage: Optional[CoverageTracker] = None,
        stop_on_violation: bool = True,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
        resilience=None,
    ) -> None:
        if max_bound < 0:
            raise ValueError("preemption bound must be non-negative")
        super().__init__(
            program,
            policy_factory,
            config or ExecutorConfig(),
            limits,
            coverage=coverage,
            listener=listener,
            observer=observer,
            resilience=resilience,
        )
        self.max_bound = max_bound
        self.stop_on_violation = stop_on_violation
        self.bound = 0
        #: Serialized results of finished sweeps (JSON round-trippable).
        self.completed: List[dict] = []
        self._current_inner: Optional[DfsStrategy] = None
        self._inner_state: Optional[dict] = None

    def strategy_label(self) -> str:
        return f"icb(<= {self.max_bound})"

    # ------------------------------------------------------------------
    def _completed_executions(self) -> int:
        return sum(int(state.get("executions", 0))
                   for state in self.completed)

    def _make_inner(self, bound: int) -> DfsStrategy:
        limits = self.limits
        if limits is not None and limits.max_executions is not None:
            # The execution budget is a property of the whole sweep
            # sequence; charge this sweep only what the finished sweeps
            # left over, so ``max_executions`` bounds the merged total
            # (and resume-with-raised-cap slices each bound exactly).
            remaining = max(0, limits.max_executions
                            - self._completed_executions())
            limits = dataclasses.replace(limits, max_executions=remaining)
        inner = self.create(
            self.program, self.policy_factory, self.config, limits,
            bound=bound, coverage=self.coverage, listener=self.listener,
            observer=self.observer, resilience=self.resilience)
        inner.root = self
        return inner

    # ------------------------------------------------------------------
    def _frontier_state(self) -> dict:
        return {"bound": self.bound, "max_bound": self.max_bound,
                "completed": self.completed}

    def _load_frontier(self, state: dict) -> None:
        self.bound = state.get("bound", 0)
        self.max_bound = state.get("max_bound", self.max_bound)
        self.completed = list(state.get("completed", []))

    def state_dict(self) -> dict:
        state = super().state_dict()
        if self._current_inner is not None:
            state["inner"] = self._current_inner.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._inner_state = state.get("inner")

    # ------------------------------------------------------------------
    def explore(self) -> ExplorationResult:
        """Run the sweeps; returns them merged into one result."""
        return merge_sweeps(self.program.name,
                            getattr(self.policy_factory(), "name", ""),
                            self.sweeps())

    def sweeps(self) -> List[ExplorationResult]:
        """Run the sweeps; returns one result per bound explored."""
        results = [exploration_from_state(s) for s in self.completed]
        while self.bound <= self.max_bound:
            inner = self._make_inner(self.bound)
            if self._inner_state is not None:
                inner.load_state_dict(self._inner_state)
                self._inner_state = None
            self._current_inner = inner
            result = inner.explore()
            self._current_inner = None
            results.append(result)
            if result.interrupted:
                break
            if result.limit_hit and not result.complete:
                # A resource limit cut the sweep short.  Keep the bound
                # in flight — exactly like an interrupt — so a resumed
                # search continues this sweep from its frontier instead
                # of recording a truncated sweep and skipping to the
                # next bound (which would explore a different space).
                break
            self.completed.append(exploration_to_state(result))
            if self.observer is not None:
                self.observer.icb_sweep(self.bound, result)
            self.bound += 1
            if self.stop_on_violation and result.found_violation:
                break
        return results
