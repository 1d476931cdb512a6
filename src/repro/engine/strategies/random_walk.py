"""Pure random search (reference [17] of the paper).

Each execution makes uniform random choices.  The paper uses random search
in two places: as the completion mode past the depth bound for the unfair
baseline of Table 2 (that part lives inside the executor), and as a
standalone baseline.  Random scheduling is fair with probability one, so a
fair-terminating program terminates almost surely under it — but it gives
no systematic coverage guarantee, which is the point of comparison.

Walk *i* of a run with seed *s* draws from ``random.Random(f"{s}:{i}")``
rather than one continuous RNG stream.  String seeding hashes through
SHA-512, so the derived generators are stable across processes and Python
versions.  The frontier is just the next index, so checkpoints are a few
integers.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig, RandomChooser, run_execution
from repro.engine.results import ExecutionResult
from repro.engine.strategies.base import ExplorationLimits, SearchStrategy


def walk_rng(seed, index: int) -> random.Random:
    """The RNG for walk ``index`` of a random search with ``seed``.

    Derived, not streamed: every walk's generator is a pure function of
    ``(seed, index)``, so a resumed search makes the choices an
    uninterrupted one would have made.
    """
    return random.Random(f"{seed}:{index}")


class RandomWalkStrategy(SearchStrategy):
    """A fixed budget of independent random executions."""

    name = "random"
    #: Random search never exhausts the tree; draining the budget does
    #: not make the result "complete".
    exhaustive = False

    @classmethod
    def create(cls, program, policy_factory, config, limits, *,
               bound=None, seed=0, executions=0, **common):
        return cls(program, policy_factory, config, limits,
                   executions=executions, seed=seed, **common)

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        config: Optional[ExecutorConfig] = None,
        limits: Optional[ExplorationLimits] = None,
        *,
        executions: int = 100,
        seed: int = 0,
        coverage: Optional[CoverageTracker] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
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
        self.total = executions
        self.seed = seed
        self.next_index = 0

    def strategy_label(self) -> str:
        return f"random(n={self.total})"

    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return self.next_index < self.total

    def _run_once(self) -> ExecutionResult:
        rng = walk_rng(self.seed, self.next_index)
        return run_execution(
            self.program,
            self.policy_factory(),
            RandomChooser(rng),
            self.config,
            coverage=self.coverage,
            completion_rng=rng,
            observer=self.observer,
        )

    def _advance(self, record: ExecutionResult) -> None:
        self.next_index += 1

    # ------------------------------------------------------------------
    def _frontier_state(self) -> dict:
        return {
            "next_index": self.next_index,
            "total": self.total,
            "seed": self.seed,
        }

    def _load_frontier(self, state: dict) -> None:
        self.total = state.get("total", self.total)
        self.seed = state.get("seed", self.seed)
        if "next_index" in state:
            self.next_index = state["next_index"]
        else:
            # Oldest checkpoint shape ({remaining, total, rng}): the walk
            # indices left are the tail of [0, total).
            self.next_index = self.total - state.get("remaining", 0)
