"""Tests for the experiment harness itself."""

from repro.bench.experiments import (
    BugSearchResult,
    CoverageCell,
    count_nonterminating_executions,
    fair_wins,
    find_bug,
    measure_coverage,
    program_characteristics,
    search_times,
)
from repro.bench.tables import format_series, format_table
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.wsq import work_stealing_queue

import repro.workloads.dining as dining_module


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("s", [(1, 2), (10, 20)])
        assert "s" in text and "20" in text


class TestFig2Harness:
    def test_counts_grow_with_bound(self):
        small, _, _ = count_nonterminating_executions(
            lambda: dining_philosophers_livelock(2), 8, max_seconds=10,
        )
        large, _, _ = count_nonterminating_executions(
            lambda: dining_philosophers_livelock(2), 12, max_seconds=10,
        )
        assert 0 < small < large


class TestCoverageHarness:
    def test_fair_cell_full_coverage_on_dining2(self):
        cell = measure_coverage(
            lambda: dining_philosophers(2), "cb=1", fair=True,
            divergence_bound=300, max_seconds=10,
        )
        assert isinstance(cell, CoverageCell)
        assert cell.full_coverage
        assert not cell.timed_out
        assert cell.label == str(cell.states)

    def test_unfair_cell_uses_depth_bound(self):
        cell = measure_coverage(
            lambda: dining_philosophers(2), "cb=1", fair=False,
            depth_bound=15, divergence_bound=300, max_seconds=10,
        )
        assert cell.depth_bound == 15
        assert cell.states > 0

    def test_timed_out_cell_marked(self):
        cell = measure_coverage(
            lambda: dining_philosophers(3), "dfs", fair=True,
            divergence_bound=300, max_seconds=0.05, total_states=97,
        )
        assert cell.timed_out
        assert cell.label.endswith("*")

    def test_unknown_strategy_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            measure_coverage(lambda: dining_philosophers(2), "bogus",
                             fair=True)


def cell(seconds, timed_out, fair=False):
    """A hand-built Figs 5-6 cell."""
    return CoverageCell(strategy="dfs", fair=fair,
                        depth_bound=None if fair else 40, total_states=0,
                        states=10, executions=100, seconds=seconds,
                        timed_out=timed_out)


class TestSearchTimeHarness:
    def test_every_budget_hit_is_marked(self):
        assert cell(12.0, True, fair=True).seconds_label == "12.00*"
        assert cell(12.0, True).seconds_label == "12.00*"
        assert cell(0.714, False, fair=True).seconds_label == "0.71"

    def test_fair_cell_of_a_row_is_marked(self):
        rows = search_times(lambda: dining_philosophers(3),
                            strategies=("dfs",), depth_bounds=(15,),
                            max_seconds=0.05)
        (strategy, fair_label, unfair_label, cells), = rows
        assert cells[0].timed_out
        assert fair_label == cells[0].seconds_label
        assert fair_label.endswith("*")

    def test_fair_win_needs_a_finished_fair_search(self):
        finished = cell(1.0, False, fair=True)
        budget_hit = cell(12.0, True, fair=True)
        # Fair finished; unfair hit the budget or was slower: a win.
        assert fair_wins([finished, cell(0.5, False), cell(12.0, True)])
        assert fair_wins([finished, cell(3.0, False)])
        # Fair finished but was the slower one: no win.
        assert not fair_wins([finished, cell(0.5, False)])
        # Both hit the budget: the row shows nothing.
        assert not fair_wins([budget_hit, cell(12.0, True)])
        # Fair hit the budget, even against a slower unfair search.
        assert not fair_wins([budget_hit, cell(20.0, False)])


class TestBugHarness:
    def test_fair_finds_seeded_bug(self):
        result = find_bug(
            lambda: work_stealing_queue(items=1, stealers=1, bug=2),
            fair=True, preemption_bound=2, max_seconds=20,
        )
        assert isinstance(result, BugSearchResult)
        assert result.found
        assert result.executions_label != "-"

    def test_unfound_bug_labels(self):
        result = find_bug(
            lambda: work_stealing_queue(items=1, stealers=1),  # no bug
            fair=True, preemption_bound=0, max_seconds=5,
        )
        assert not result.found
        assert result.executions_label == "-"
        assert result.seconds_label.startswith(">")


class TestCharacteristics:
    def test_dining_row(self):
        name, loc, threads, sync_ops = program_characteristics(
            dining_philosophers(3), dining_module,
        )
        assert name == "dining(3)"
        assert loc > 30
        assert threads == 3
        assert sync_ops > 5
