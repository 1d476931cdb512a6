"""Dining philosophers workload tests (Figure 1 + Table 2 variant)."""

from repro.checker import Checker, check
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import DivergenceKind, Outcome
from repro.engine.strategies import ExplorationLimits, explore_dfs
from repro.core.policies import fair_policy
from repro.statespace.stateful import stateful_search
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)

import pytest


class TestLivelockVariant:
    def test_livelock_found(self):
        """Figure 1's livelock: Acquire, Acquire, TryAcquire, TryAcquire,
        Release, Release repeated forever — a fair cycle."""
        result = check(dining_philosophers_livelock(2), depth_bound=300)
        assert not result.ok
        record = result.livelock
        assert record is not None
        assert record.divergence.kind is DivergenceKind.LIVELOCK
        assert set(record.divergence.culprits) == {"Phil1", "Phil2"}

    def test_livelock_trace_shows_the_cycle(self):
        checker = Checker(dining_philosophers_livelock(2), depth_bound=300)
        result = checker.run()
        operations = [s.operation for s in result.livelock.trace[-40:]]
        assert any("try_acquire" in op for op in operations)
        assert any("release" in op for op in operations)

    def test_three_philosophers_also_livelock(self):
        result = check(dining_philosophers_livelock(3), depth_bound=300)
        assert result.livelock is not None

    def test_no_deadlock_reported(self):
        # The retry protocol never deadlocks — the only defect is the
        # livelock.
        result = check(dining_philosophers_livelock(2), depth_bound=300)
        assert result.violation is None


class TestHarnessedVariant:
    def test_fair_search_exhausts_and_passes(self):
        result = check(dining_philosophers(2), depth_bound=300)
        assert result.ok
        assert result.exploration.complete

    def test_full_state_coverage(self):
        """Table 2: fairness achieves 100% state coverage."""
        truth = stateful_search(dining_philosophers(2), depth_bound=300)
        coverage = CoverageTracker()
        explore_dfs(
            dining_philosophers(2), fair_policy(),
            ExecutorConfig(depth_bound=300),
            ExplorationLimits(stop_on_first_violation=False,
                              stop_on_first_divergence=False),
            coverage=coverage,
        )
        assert truth.states <= coverage.signatures()

    def test_unfair_depth_bounded_search_misses_or_wastes(self):
        """Without fairness the cyclic retry loops force a choice between
        missing states (small bound) and wasted unrolling (large bound)."""
        result = check(dining_philosophers(2), fairness=False,
                       depth_bound=25,
                       max_executions=4000)
        assert result.exploration.nonterminating_executions > 0

    def test_invalid_philosopher_count(self):
        with pytest.raises(ValueError):
            dining_philosophers(1)
