"""Systematic depth-first exploration (the paper's ``dfs`` strategy).

Stateless DFS over the choice tree: each execution is replayed from the
initial state along a guide (a prefix of decision indices), extended with
first alternatives, and the recorded decision string is backtracked to
produce the next guide.  Completeness: with the nonfair policy and no
bounds this enumerates every execution of a finite acyclic choice tree;
with the fair policy it enumerates every execution Algorithm 1 can
generate.

The frontier is a single guide plus the random-completion RNG, which makes
DFS the cheapest strategy to checkpoint: a snapshot is a few dozen
integers regardless of how deep the search is.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import (
    ExecutorConfig,
    GuidedChooser,
    Pruner,
    run_execution,
)
from repro.engine.results import ExecutionResult, ExplorationResult
from repro.engine.snapshots import PrefixSnapshotCache
from repro.engine.strategies.base import (
    ExplorationLimits,
    SearchStrategy,
    next_dfs_guide,
)
from repro.resilience.checkpoint import freeze_rng, thaw_rng


class DfsStrategy(SearchStrategy):
    """Depth-first search with a resumable (guide, RNG) frontier."""

    name = "dfs"

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        config: Optional[ExecutorConfig] = None,
        limits: Optional[ExplorationLimits] = None,
        *,
        coverage: Optional[CoverageTracker] = None,
        pruner: Optional[Pruner] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        strategy_name: str = "dfs",
        observer=None,
        resilience=None,
    ) -> None:
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
        self.pruner = pruner
        self._label = strategy_name
        self.guide: Optional[List[int]] = []
        self.completion_rng = random.Random(self.config.seed)
        #: Prefix-snapshot cache (None unless enabled and the program
        #: supports it).
        self.snapshot_cache = PrefixSnapshotCache.from_config(
            self.config, program)

    def strategy_label(self) -> str:
        return self._label

    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return self.guide is not None

    def _run_once(self) -> ExecutionResult:
        reducer = None if self.reducer is None else self.reducer(self.guide)
        return run_execution(
            self.program,
            self.policy_factory(),
            reducer or GuidedChooser(self.guide),
            self.config,
            coverage=self.coverage,
            pruner=self.pruner,
            completion_rng=self.completion_rng,
            observer=self.observer,
            snapshot_cache=self.snapshot_cache,
            reducer=reducer,
        )

    def _advance(self, record: ExecutionResult) -> None:
        self.guide = next_dfs_guide(record.decisions)

    def _announce(self) -> None:
        if self.observer is not None and self.guide is not None:
            self.observer.backtrack(len(self.guide))

    # ------------------------------------------------------------------
    def _frontier_state(self) -> dict:
        return {
            "guide": self.guide,
            "completion_rng": freeze_rng(self.completion_rng),
        }

    def _load_frontier(self, state: dict) -> None:
        self.guide = state.get("guide", [])
        rng_state = state.get("completion_rng")
        if rng_state is not None:
            thaw_rng(self.completion_rng, rng_state)


def explore_dfs(
    program: Program,
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
    limits: Optional[ExplorationLimits] = None,
    *,
    coverage: Optional[CoverageTracker] = None,
    pruner: Optional[Pruner] = None,
    listener: Optional[Callable[[ExecutionResult], None]] = None,
    strategy_name: str = "dfs",
    observer=None,
    resilience=None,
) -> ExplorationResult:
    """Exhaustively search the program's (bounded) execution tree."""
    return DfsStrategy(
        program,
        policy_factory,
        config,
        limits,
        coverage=coverage,
        pruner=pruner,
        listener=listener,
        strategy_name=strategy_name,
        observer=observer,
        resilience=resilience,
    ).explore()
