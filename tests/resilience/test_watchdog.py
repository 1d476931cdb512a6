"""Execution budgets: wall-clock budgets, hung threads, leaked threads."""

import threading

import pytest

from repro.core.policies import fair_policy
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import Outcome
from repro.engine.strategies import explore_dfs
from repro.obs import (
    CollectingSink,
    ExecutionAborted,
    Observer,
    ThreadLeaked,
)
from repro.runtime.errors import ExecutionHung
from repro.runtime.native import NativeProgram
from repro.runtime.program import VMProgram
from repro.sync import yield_now


def spin_forever():
    """One thread that yields in a loop — runs until somebody stops it."""
    def setup(env):
        def spinner():
            while True:
                yield from yield_now()

        env.spawn(spinner, name="spin")

    return VMProgram(setup, name="spin-forever")


def hung_native():
    """A controlled OS thread that blocks outside any scheduling point."""
    def setup(env):
        def stuck():
            threading.Event().wait()  # never returns, never traps

        env.spawn(stuck, name="stuck")

    return NativeProgram(setup, name="hung-native")


class TestExecutorBudget:
    def test_unbounded_spin_is_aborted(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = run_execution(
            spin_forever(), fair_policy()(), GuidedChooser(()),
            ExecutorConfig(depth_bound=None,
                           execution_budget_seconds=0.05),
            observer=observer,
        )
        assert result.outcome is Outcome.ABORTED
        assert "wall-clock budget" in result.abort_reason
        events = sink.of_type(ExecutionAborted)
        assert len(events) == 1
        assert observer.metrics.counter("executions.aborted").value == 1

    def test_fast_execution_is_unaffected_by_the_budget(self):
        def setup(env):
            def quick():
                yield from yield_now()

            env.spawn(quick, name="q")

        result = run_execution(
            VMProgram(setup, name="quick"), fair_policy()(),
            GuidedChooser(()),
            ExecutorConfig(execution_budget_seconds=30.0),
        )
        assert result.outcome is Outcome.TERMINATED
        assert result.abort_reason is None

    def test_search_counts_aborts_and_continues(self):
        result = explore_dfs(
            spin_forever(), fair_policy(),
            ExecutorConfig(depth_bound=None,
                           execution_budget_seconds=0.05),
        )
        # The single (one-option) schedule aborts; the search still
        # drains its frontier and reports the abort in the totals.
        assert result.aborted_executions == 1
        assert result.outcomes[Outcome.ABORTED] == 1
        assert result.stop_reason is None


class TestNativeHang:
    def test_hung_thread_aborts_and_reports_the_leak(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = run_execution(
            hung_native(), fair_policy()(), GuidedChooser(()),
            ExecutorConfig(depth_bound=None,
                           execution_budget_seconds=0.2),
            observer=observer,
        )
        assert result.outcome is Outcome.ABORTED
        assert "did not reach its next scheduling point" in result.abort_reason
        leaks = sink.of_type(ThreadLeaked)
        assert len(leaks) == 1
        assert leaks[0].threads == ("stuck",)
        assert observer.metrics.counter("threads.leaked").value == 1

    def test_resume_with_timeout_raises_execution_hung(self):
        instance = hung_native().instantiate()
        try:
            (tid,) = instance.thread_ids()
            instance.step_timeout = 0.1
            with pytest.raises(ExecutionHung, match="stuck"):
                instance.step(tid)
            assert instance.task(tid).hung
        finally:
            instance.close()
        assert instance.leaked_threads == ("stuck",)
