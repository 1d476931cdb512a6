"""Executor edge cases."""

import pytest

from repro.core.policies import NonfairPolicy, nonfair_policy
from repro.engine.executor import (
    ExecutorConfig,
    GuidedChooser,
    run_execution,
)
from repro.engine.results import Outcome
from repro.engine.strategies import BfsStrategy, explore_dfs
from repro.runtime.api import check, pause, yield_now
from repro.runtime.errors import ExecutionHung, TaskCrash
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar


def empty_program():
    return VMProgram(lambda env: None, name="empty")


def single_program(steps=2):
    def setup(env):
        def body():
            for _ in range(steps):
                yield from pause()

        env.spawn(body, name="solo")

    return VMProgram(setup, name="single")


class TestDegenerate:
    def test_program_with_no_threads_terminates_immediately(self):
        record = run_execution(empty_program(), NonfairPolicy(),
                               GuidedChooser([]), ExecutorConfig())
        assert record.outcome is Outcome.TERMINATED
        assert record.steps == 0
        assert record.decisions == []

    def test_depth_bound_zero_prunes_instantly(self):
        record = run_execution(
            single_program(), NonfairPolicy(), GuidedChooser([]),
            ExecutorConfig(depth_bound=0, on_depth_exceeded="prune"),
        )
        assert record.outcome is Outcome.DEPTH_PRUNED
        assert record.steps == 0

    def test_single_thread_has_singleton_options(self):
        record = run_execution(single_program(), NonfairPolicy(),
                               GuidedChooser([]), ExecutorConfig())
        assert all(d.options == 1 for d in record.decisions)

    def test_dfs_on_single_thread_is_one_execution(self):
        result = explore_dfs(single_program(), nonfair_policy())
        assert result.complete
        assert result.executions == 1


class TestTraceWindow:
    def test_trace_ring_buffer_bounded(self):
        record = run_execution(
            single_program(steps=50), NonfairPolicy(), GuidedChooser([]),
            ExecutorConfig(trace_window=10),
        )
        assert len(record.trace) == 10
        # The kept suffix is the *last* ten transitions.
        assert record.trace[-1].operation == "pause"


class TestKeepInstance:
    def test_final_instance_retained_when_requested(self):
        record = run_execution(
            single_program(), NonfairPolicy(), GuidedChooser([]),
            ExecutorConfig(keep_instance=True),
        )
        assert record.final_instance is not None
        assert not record.final_instance.has_live_threads()

    def test_final_instance_absent_by_default(self):
        record = run_execution(single_program(), NonfairPolicy(),
                               GuidedChooser([]), ExecutorConfig())
        assert record.final_instance is None


class _FaultyInstance:
    """Minimal ProgramInstance whose second transition raises ``exc``."""

    def __init__(self, exc):
        self._exc = exc
        self._stepped = 0

    def thread_ids(self):
        return frozenset({0})

    def enabled_threads(self):
        return frozenset({0})

    def step(self, tid):
        self._stepped += 1
        if self._stepped >= 2:
            raise self._exc
        from repro.core.model import StepInfo
        return StepInfo(tid=tid, enabled_before=frozenset({0}),
                        enabled_after=frozenset({0}), yielded=False,
                        spawned=(), operation="op")


class _FaultyProgram:
    name = "faulty"

    def __init__(self, exc):
        self._exc = exc

    def instantiate(self):
        return _FaultyInstance(self._exc)


class TestTerminalStepAccounting:
    """Every terminal path counts the faulting transition in ``steps``."""

    def test_hung_execution_counts_faulting_step(self):
        hung = run_execution(
            _FaultyProgram(ExecutionHung("handshake timed out")),
            NonfairPolicy(), GuidedChooser([]), ExecutorConfig(),
        )
        crashed = run_execution(
            _FaultyProgram(TaskCrash("boom")),
            NonfairPolicy(), GuidedChooser([]), ExecutorConfig(),
        )
        assert hung.outcome is Outcome.ABORTED
        assert crashed.outcome is Outcome.VIOLATION
        # Both faulted on transition #2; the step totals must agree.
        assert hung.steps == crashed.steps == 2


class TestRandomCompletionDecorrelation:
    """The fallback completion RNG derives from the decision prefix, so
    different executions complete with different random schedules."""

    def make_yield_forever(self, threads=3):
        def setup(env):
            def body():
                while True:
                    yield from yield_now()

            for i in range(threads):
                env.spawn(body, name=f"t{i}")

        return VMProgram(setup, name="yield-forever")

    def _completion_tail(self, guide):
        config = ExecutorConfig(
            depth_bound=4,
            on_depth_exceeded="random-completion",
            random_completion_cap=40,
            seed=7,
        )
        record = run_execution(self.make_yield_forever(), NonfairPolicy(),
                               GuidedChooser(guide), config)
        return [s.tid for s in record.trace][4:]

    def test_different_prefixes_complete_differently(self):
        tail_a = self._completion_tail([0])
        tail_b = self._completion_tail([1])
        assert len(tail_a) == len(tail_b) == 40
        # With a shared Random(seed) both tails would be the identical
        # index sequence over three always-enabled symmetric threads.
        assert tail_a != tail_b

    def test_same_prefix_still_deterministic(self):
        assert self._completion_tail([1]) == self._completion_tail([1])


class TestBFSShortestCounterexample:
    def make_two_depth_bugs(self):
        """A violation reachable both early and late; BFS must report a
        shortest schedule."""

        def setup(env):
            x = SharedVar(0, name="x")

            def victim():
                value = yield from x.get()
                check(value == 0, "saw the write")
                yield from pause()
                value = yield from x.get()
                check(value == 0, "saw the write late")

            def writer():
                yield from x.set(1)

            env.spawn(victim, name="v")
            env.spawn(writer, name="w")

        return VMProgram(setup, name="two-depth")

    def test_bfs_counterexample_not_longer_than_dfs(self):
        program = self.make_two_depth_bugs()
        bfs = BfsStrategy(program, nonfair_policy()).explore()
        dfs = explore_dfs(program, nonfair_policy())
        assert bfs.found_violation and dfs.found_violation
        assert len(bfs.violations[0].decisions) <= \
            len(dfs.violations[0].decisions)
