"""End-to-end Checker facade tests across workloads and configurations."""

import pytest

from repro import Checker, CheckResult, check
from repro.engine.results import DivergenceKind, ExplorationResult
from repro.engine.strategies import merge_sweeps
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.spinloop import spinloop, spinloop_no_yield
from repro.workloads.wsq import work_stealing_queue


class TestVerdicts:
    def test_clean_program_passes(self):
        result = check(spinloop())
        assert result.ok
        assert result.violation is None
        assert result.livelock is None
        assert result.gs_violation is None

    def test_livelock_fails(self):
        result = check(dining_philosophers_livelock(2), depth_bound=300)
        assert not result.ok
        assert result.livelock is not None
        assert result.violation is None

    def test_gs_violation_fails(self):
        result = check(spinloop_no_yield(), depth_bound=200)
        assert not result.ok
        assert result.gs_violation is not None

    def test_safety_violation_fails(self):
        result = check(work_stealing_queue(items=1, stealers=1, bug=2),
                       preemption_bound=2, depth_bound=300)
        assert not result.ok
        assert result.violation is not None

    def test_unfair_divergence_is_warning_not_failure(self):
        # Without fairness, hitting the bound on a correct program by
        # starving a thread is noise: reported as a warning, ok stays
        # True.  (Spawn the spinner first so the unfair DFS's first
        # branch runs it forever.)
        from repro.runtime.program import VMProgram
        from repro.runtime.api import yield_now
        from repro.sync.atomics import SharedVar

        def setup(env):
            x = SharedVar(0, name="x")

            def spinner():
                while (yield from x.get()) != 1:
                    yield from yield_now()

            def writer():
                yield from x.set(1)

            env.spawn(spinner, name="u")
            env.spawn(writer, name="t")

        program = VMProgram(setup, name="spin-first")
        result = Checker(program, fairness=False, depth_bound=60,
                         nonfair_completion="divergence",
                         stop_on_first_divergence=True).run()
        assert result.ok
        assert result.warnings
        assert result.divergence.divergence.kind is DivergenceKind.UNFAIR


class TestReport:
    def test_report_contains_verdict_and_schedule(self):
        result = check(work_stealing_queue(items=1, stealers=1, bug=2),
                       preemption_bound=2, depth_bound=300)
        text = result.report()
        assert "FAIL" in text
        assert "replay schedule" in text
        assert "counterexample" in text

    def test_passing_report(self):
        text = check(spinloop()).report()
        assert "PASS" in text


class TestStrategies:
    def test_bfs_strategy(self):
        result = check(spinloop(), strategy="bfs", depth_bound=100,
                       max_executions=2000)
        assert result.ok

    def test_random_strategy(self):
        result = check(spinloop(), strategy="random", random_executions=25)
        assert result.ok
        assert result.exploration.executions == 25

    def test_icb_strategy_sweeps_bounds(self):
        result = check(work_stealing_queue(items=1, stealers=1, bug=1),
                       strategy="icb", preemption_bound=2, depth_bound=300)
        assert not result.ok
        assert result.exploration.strategy_name.startswith("icb")
        # ICB finds the one-preemption bug far faster than flat cb=2.
        flat = check(work_stealing_queue(items=1, stealers=1, bug=1),
                     preemption_bound=2, depth_bound=300)
        assert result.exploration.executions < flat.exploration.executions

    def test_icb_passes_clean_program(self):
        from repro.workloads.dining import dining_philosophers

        result = check(dining_philosophers(2), strategy="icb",
                       preemption_bound=2, depth_bound=300)
        assert result.ok
        assert result.exploration.complete

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Checker(spinloop(), strategy="magic").run()

    def test_custom_policy_factory(self):
        from repro.core.policies import round_robin_policy

        result = Checker(spinloop(), policy_factory=round_robin_policy(),
                         depth_bound=200).run()
        # Round-robin is fair: the spin loop terminates.
        assert result.ok
        assert result.exploration.executions == 1  # deterministic!


class TestMergeSweeps:
    """Regression: the merged first-violation index must be offset by the
    executions of *earlier* sweeps only, not the running total."""

    @staticmethod
    def _sweep(executions, first_violation=None):
        from repro.engine.results import ExecutionResult, Outcome

        result = ExplorationResult(program_name="p", policy_name="fair",
                                   strategy_name="dfs(cb=0)",
                                   executions=executions,
                                   complete=True)
        if first_violation is not None:
            result.first_violation_execution = first_violation
            result.violations.append(
                ExecutionResult(outcome=Outcome.VIOLATION, decisions=[],
                                steps=1))
        return result

    def test_violation_index_offset_by_earlier_sweeps(self):
        merged = merge_sweeps("p", "fair", [
            self._sweep(10),
            self._sweep(7, first_violation=3),
        ])
        # 10 executions in sweep 0, then 3 more into sweep 1.
        assert merged.first_violation_execution == 13
        assert merged.executions == 17
        assert merged.found_violation

    def test_first_sweep_with_violation_wins(self):
        merged = merge_sweeps("p", "fair", [
            self._sweep(5, first_violation=2),
            self._sweep(9, first_violation=0),
        ])
        assert merged.first_violation_execution == 2
        assert len(merged.violations) == 2

    def test_no_violation_leaves_none(self):
        merged = merge_sweeps("p", "fair", [self._sweep(4), self._sweep(6)])
        assert merged.first_violation_execution is None
        assert merged.executions == 10
        assert merged.complete

    def test_checker_icb_reports_global_index(self):
        result = check(work_stealing_queue(items=1, stealers=1, bug=1),
                       strategy="icb", preemption_bound=2, depth_bound=300)
        assert not result.ok
        first = result.exploration.first_violation_execution
        assert first is not None
        # A global (1-based) count: at most the executions actually run.
        # Before the fix this overcounted by the executions of the final
        # sweep, exceeding the total.
        assert 0 < first <= result.exploration.executions


class TestLimits:
    def test_time_limit_sets_warning(self):
        result = check(dining_philosophers(3), depth_bound=400,
                       max_seconds=0.05)
        assert any("resource limit" in w for w in result.warnings)

    def test_execution_limit(self):
        result = check(dining_philosophers(3), depth_bound=400,
                       max_executions=7)
        assert result.exploration.executions == 7


class TestKYield:
    def test_k_yield_parameter_flows_through(self):
        result = check(dining_philosophers(2), k_yield=2, depth_bound=400,
                       max_executions=20_000)
        assert result.ok
        baseline = check(dining_philosophers(2), depth_bound=400)
        # Weaker pruning with k=2: at least as many executions.
        assert result.exploration.executions >= \
            baseline.exploration.executions
