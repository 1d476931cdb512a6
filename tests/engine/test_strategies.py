"""Search strategy tests: DFS completeness, BFS, random, context bounding."""

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import (
    BfsStrategy,
    ExplorationLimits,
    IcbStrategy,
    RandomWalkStrategy,
    explore_dfs,
    next_dfs_guide,
)
from repro.engine.results import Decision
from repro.runtime.api import check, pause
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar


def interleaving_program(steps_per_thread=2):
    """Two threads with n pauses each: C(2n, n) complete interleavings."""

    def setup(env):
        def body():
            for _ in range(steps_per_thread):
                yield from pause()

        env.spawn(body, name="a")
        env.spawn(body, name="b")

    return VMProgram(setup, name=f"interleave({steps_per_thread})")


def racy_assert_program():
    """Fails only on one specific interleaving."""

    def setup(env):
        x = SharedVar(0, name="x")

        def writer():
            yield from x.set(1)
            yield from x.set(2)

        def reader():
            value = yield from x.get()
            check(value != 1, "reader saw the intermediate value")

        env.spawn(writer, name="w")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="racy")


class TestDFS:
    def test_enumerates_all_interleavings(self):
        # 2 threads x 3 transitions each (start + 2 pauses): the DFS must
        # enumerate exactly C(6, 3) = 20 executions.
        result = explore_dfs(interleaving_program(2), nonfair_policy())
        assert result.complete
        assert result.executions == 20
        assert result.outcomes[Outcome.TERMINATED] == 20

    def test_finds_racy_violation(self):
        result = explore_dfs(racy_assert_program(), nonfair_policy())
        assert result.found_violation
        assert "intermediate value" in str(result.violations[0].violation)
        assert result.first_violation_execution is not None

    def test_stop_on_first_violation_stops_early(self):
        stop = explore_dfs(racy_assert_program(), nonfair_policy())
        both = explore_dfs(
            racy_assert_program(), nonfair_policy(),
            limits=ExplorationLimits(stop_on_first_violation=False),
        )
        assert stop.executions <= both.executions
        assert both.complete

    def test_max_executions_limit(self):
        result = explore_dfs(
            interleaving_program(3), nonfair_policy(),
            limits=ExplorationLimits(max_executions=5),
        )
        assert result.executions == 5
        assert result.limit_hit
        assert not result.complete

    def test_coverage_collected(self):
        coverage = CoverageTracker()
        result = explore_dfs(interleaving_program(1), nonfair_policy(),
                             coverage=coverage)
        assert result.states_covered == coverage.count
        assert coverage.count > 0
        assert coverage.history  # per-execution checkpoints recorded


class TestNextGuide:
    def decision(self, index, options):
        return Decision("thread", index, options, index)

    def test_bumps_deepest_alternative(self):
        decisions = [self.decision(0, 2), self.decision(1, 2),
                     self.decision(0, 3)]
        assert next_dfs_guide(decisions) == [0, 1, 1]

    def test_backtracks_over_exhausted_suffix(self):
        decisions = [self.decision(0, 2), self.decision(1, 2),
                     self.decision(2, 3)]
        assert next_dfs_guide(decisions) == [1]

    def test_exhausted_tree_returns_none(self):
        decisions = [self.decision(1, 2), self.decision(2, 3)]
        assert next_dfs_guide(decisions) is None
        assert next_dfs_guide([]) is None


class TestBFS:
    def test_bfs_explores_same_leaves_as_dfs(self):
        coverage_dfs = CoverageTracker()
        coverage_bfs = CoverageTracker()
        explore_dfs(interleaving_program(1), nonfair_policy(),
                    coverage=coverage_dfs)
        result = BfsStrategy(interleaving_program(1), nonfair_policy(),
                             coverage=coverage_bfs).explore()
        assert result.complete
        assert coverage_bfs.signatures() == coverage_dfs.signatures()

    def test_bfs_finds_violation(self):
        result = BfsStrategy(racy_assert_program(),
                             nonfair_policy()).explore()
        assert result.found_violation


class TestRandom:
    def test_runs_requested_executions(self):
        result = RandomWalkStrategy(interleaving_program(2),
                                    nonfair_policy(), executions=17,
                                    seed=3).explore()
        assert result.executions == 17
        assert result.outcomes[Outcome.TERMINATED] == 17

    def test_seed_determinism(self):
        coverage = [CoverageTracker(), CoverageTracker()]
        for tracker in coverage:
            RandomWalkStrategy(interleaving_program(2), nonfair_policy(),
                               executions=10, seed=9,
                               coverage=tracker).explore()
        assert coverage[0].signatures() == coverage[1].signatures()

    def test_usually_finds_easy_race(self):
        result = RandomWalkStrategy(racy_assert_program(), nonfair_policy(),
                                    executions=100, seed=1).explore()
        assert result.found_violation


class TestContextBounding:
    def test_smaller_bound_explores_fewer_executions(self):
        sizes = []
        for bound in (0, 1, 2):
            result = IcbStrategy.create(
                interleaving_program(2), nonfair_policy(), ExecutorConfig(),
                ExplorationLimits(stop_on_first_violation=False),
                bound=bound,
            ).explore()
            assert result.complete
            sizes.append(result.executions)
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[0] == 2  # only the two run-to-completion orders

    def test_strategy_name_includes_bound(self):
        result = IcbStrategy.create(interleaving_program(1),
                                    nonfair_policy(), ExecutorConfig(),
                                    None, bound=1).explore()
        assert result.strategy_name == "cb=1"

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            IcbStrategy(interleaving_program(1), nonfair_policy(), -1)
        with pytest.raises(ValueError):
            Checker(interleaving_program(1), strategy="icb",
                    preemption_bound=-1)

    def test_iterative_stops_at_first_violating_bound(self):
        results = IcbStrategy(
            racy_assert_program(), nonfair_policy(), 3,
        ).sweeps()
        assert results[-1].found_violation
        assert len(results) <= 4

    def test_fair_policy_composes_with_bounding(self):
        result = IcbStrategy.create(
            interleaving_program(2), fair_policy(),
            ExecutorConfig(depth_bound=100),
            ExplorationLimits(stop_on_first_violation=False), bound=1,
        ).explore()
        assert result.complete
        assert not result.found_divergence
