"""Trace-diff and summary reporting tests."""

from repro.engine.reporting import (
    diff_traces,
    first_divergence,
    format_thread_summary,
    thread_summary,
)
from repro.core.model import StepInfo


def step(name, op, yielded=False, tid=None):
    return StepInfo(tid=tid if tid is not None else name,
                    thread_name=name, operation=op, yielded=yielded,
                    enabled_before=frozenset(), enabled_after=frozenset())


TRACE_A = [step("a", "acquire(m)"), step("b", "load(x)"),
           step("a", "release(m)")]
TRACE_B = [step("a", "acquire(m)"), step("a", "release(m)"),
           step("b", "load(x)")]


class TestFirstDivergence:
    def test_finds_split_point(self):
        assert first_divergence(TRACE_A, TRACE_B) == 1

    def test_identical_traces(self):
        assert first_divergence(TRACE_A, TRACE_A) is None

    def test_prefix_relation(self):
        assert first_divergence(TRACE_A, TRACE_A[:2]) is None


class TestDiff:
    def test_marks_divergence_row(self):
        text = diff_traces(TRACE_A, TRACE_B, names=("pass", "fail"))
        assert "diverge at step 1" in text
        assert ">>" in text
        assert "pass" in text and "fail" in text

    def test_identical(self):
        assert diff_traces(TRACE_A, TRACE_A) == "traces are identical"

    def test_prefix_notes_continuation(self):
        text = diff_traces(TRACE_A, TRACE_A[:1])
        assert "agree for 1 steps" in text

    def test_real_counterexample_diff(self):
        """Diff a passing and a failing schedule of a real program."""
        from repro.core.policies import nonfair_policy, NonfairPolicy
        from repro.engine.executor import (
            ExecutorConfig,
            GuidedChooser,
            run_execution,
        )
        from repro.engine.strategies import explore_dfs
        from repro.runtime.api import check as rt_check
        from repro.runtime.program import VMProgram
        from repro.sync.atomics import SharedVar

        def setup(env):
            x = SharedVar(0, name="x")

            def writer():
                yield from x.set(1)
                yield from x.set(2)

            def reader():
                value = yield from x.get()
                rt_check(value != 1, "saw intermediate")

            env.spawn(writer, name="w")
            env.spawn(reader, name="r")

        program = VMProgram(setup, name="racy")
        passing = run_execution(program, NonfairPolicy(),
                                GuidedChooser([]), ExecutorConfig())
        failing = explore_dfs(program, nonfair_policy()).violations[0]
        text = diff_traces(passing.trace, failing.trace,
                           names=("passing", "failing"))
        assert "diverge" in text


class TestSummary:
    def test_counts(self):
        trace = [step("a", "op"), step("a", "yield", yielded=True),
                 step("b", "op")]
        rows = thread_summary(trace)
        assert rows[0] == ("a", 2, 1)
        assert rows[1] == ("b", 1, 0)

    def test_format(self):
        text = format_thread_summary([step("worker", "op")])
        assert "worker" in text
        assert "transitions" in text

    def test_sorted_by_transitions_descending(self):
        trace = ([step("rare", "op")] + [step("busy", "op")] * 5
                 + [step("mid", "op")] * 3)
        names = [row[0] for row in thread_summary(trace)]
        assert names == ["busy", "mid", "rare"]

    def test_empty_trace(self):
        assert thread_summary([]) == []
        assert "transitions" in format_thread_summary([])


class TestDiffEdges:
    def test_same_tid_different_operation_diverges(self):
        left = [step("a", "acquire(m)")]
        right = [step("a", "release(m)")]
        assert first_divergence(left, right) == 0
        assert "diverge at step 0" in diff_traces(left, right)

    def test_context_clamped_to_trace_bounds(self):
        left = [step("a", f"op{i}") for i in range(10)]
        right = left[:5] + [step("b", "other")] + left[6:]
        text = diff_traces(left, right, context=100)
        lines = text.splitlines()
        # header + note + one row per step, no out-of-range rows
        assert len(lines) == 2 + 10
        assert ">>   5" in text

    def test_both_empty(self):
        assert diff_traces([], []) == "traces are identical"

    def test_one_empty_notes_continuation(self):
        text = diff_traces([step("a", "op")], [])
        assert "agree for 0 steps" in text
        assert "left continues" in text

    def test_missing_rows_render_placeholder(self):
        text = diff_traces([step("a", "op1"), step("a", "op2")],
                           [step("a", "op1")])
        assert text.splitlines()[-1].rstrip().endswith("-")

    def test_yield_marker_rendered(self):
        text = diff_traces([step("a", "yield", yielded=True)],
                           [step("a", "op")])
        assert "[yield]" in text
