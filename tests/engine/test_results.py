"""Result types: traces, summaries, schedules."""

from collections import Counter

from repro.core.model import StepInfo
from repro.engine.results import (
    Decision,
    DivergenceKind,
    DivergenceReport,
    ExecutionResult,
    ExplorationResult,
    Outcome,
    format_trace,
)


def step(name, op, yielded=False):
    return StepInfo(tid=0, thread_name=name, operation=op,
                    yielded=yielded, enabled_before=frozenset({0}),
                    enabled_after=frozenset())


class TestFormatTrace:
    def test_numbering_and_yield_marker(self):
        text = format_trace([step("a", "acquire(m)"),
                             step("b", "yield", yielded=True)])
        lines = text.splitlines()
        assert lines[0].startswith("   0. a: acquire(m)")
        assert "[yield]" in lines[1]

    def test_limit_elides_prefix(self):
        trace = [step("a", f"op{i}") for i in range(10)]
        text = format_trace(trace, limit=3)
        assert "7 earlier steps elided" in text
        assert "op9" in text
        assert "op0" not in text

    def test_no_elision_when_short(self):
        text = format_trace([step("a", "op")], limit=10)
        assert "elided" not in text


class TestExecutionResult:
    def test_schedule_extracts_indices(self):
        record = ExecutionResult(
            outcome=Outcome.TERMINATED,
            decisions=[Decision("thread", 1, 2, "t"),
                       Decision("data", 0, 3, 0)],
            steps=2,
        )
        assert record.schedule == [1, 0]


class TestExplorationResult:
    def make(self, **kwargs):
        result = ExplorationResult(program_name="p", policy_name="fair",
                                   strategy_name="dfs", **kwargs)
        return result

    def test_counters_initialized(self):
        result = self.make()
        assert isinstance(result.outcomes, Counter)
        assert not result.found_violation
        assert not result.found_divergence

    def test_livelock_and_gs_filters(self):
        def divergent(kind):
            return ExecutionResult(
                outcome=Outcome.DIVERGENCE, decisions=[], steps=1,
                divergence=DivergenceReport(kind=kind, culprits=("x",),
                                            window=10, detail="d"),
            )

        result = self.make()
        result.divergences = [
            divergent(DivergenceKind.LIVELOCK),
            divergent(DivergenceKind.GOOD_SAMARITAN_VIOLATION),
            divergent(DivergenceKind.UNFAIR),
        ]
        assert len(result.livelocks()) == 1
        assert len(result.gs_violations()) == 1

    def test_summary_mentions_key_facts(self):
        result = self.make()
        result.executions = 5
        result.outcomes[Outcome.TERMINATED] = 5
        result.states_covered = 12
        text = result.summary()
        assert "executions=5" in text
        assert "states covered=12" in text
        assert "fair" in text


class TestDivergenceReport:
    def test_str(self):
        report = DivergenceReport(kind=DivergenceKind.LIVELOCK,
                                  culprits=("a",), window=5, detail="spin")
        assert "livelock" in str(report)
        assert "spin" in str(report)
