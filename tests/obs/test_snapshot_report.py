"""Snapshot-cache amortization report: accounting and verdict."""

import pytest

from repro.obs.profile import format_snapshot_report, snapshot_amortization
from repro.workloads.boundedbuffer import bounded_buffer_program


@pytest.fixture(scope="module")
def report():
    # One real double-run shared by every assertion in the module; the
    # hotpath-bench configuration at a reduced execution cap.
    return snapshot_amortization(
        lambda: bounded_buffer_program(items=2, consumers=2),
        strategy="dfs", depth_bound=200, preemption_bound=2,
        snapshot_interval=4, max_executions=120,
    )


class TestAccounting:
    def test_runs_agree_on_the_search(self, report):
        off, on = report["runs"]
        assert off["executions"] == on["executions"]
        assert off["transitions"] == on["transitions"]
        assert on["replayed_steps"] < off["replayed_steps"]

    def test_capture_and_restore_costs_are_recorded(self, report):
        accounting = report["accounting"]
        assert accounting["capture"]["count"] > 0
        assert accounting["restore"]["count"] > 0

    def test_accounted_cost_matches_the_phase_timer(self, report):
        # Acceptance criterion: capture+restore sums must explain the
        # "snapshot" phase-timer total to within 10%.  By construction
        # every perf_counter pair feeds both, so this is exact up to
        # float rounding — the 10% bound just keeps the test honest.
        accounting = report["accounting"]
        phase = accounting["snapshot_phase_seconds"]
        assert phase > 0
        assert accounting["accounted_seconds"] == pytest.approx(
            phase, rel=0.10)
        assert accounting["accounted_fraction"] == pytest.approx(
            1.0, abs=0.10)


class TestVerdict:
    def test_verdict_recommends_the_winning_cache(self, report):
        # This report once flagged the cache as a wall-clock regression:
        # per-capture policy deepcopy cost more than the replay savings.
        # The persistent snapshot_state/restore_state protocol cut
        # capture+restore to O(changed), so on the hotpath workload the
        # model now nets positive and the verdict is ON — pinned here so
        # a future change that re-inflates capture cost fails loudly.
        assert report["verdict"] == "on"

    def test_model_identity(self, report):
        model = report["model"]
        assert model["saved_steps"] > 0
        assert model["overhead_seconds"] == pytest.approx(
            report["accounting"]["accounted_seconds"])
        assert model["break_even_per_step_seconds"] == pytest.approx(
            model["overhead_seconds"] / model["saved_steps"])

    def test_format_renders_every_section(self, report):
        text = format_snapshot_report(report)
        assert "cost accounting (cache on):" in text
        assert "amortization model:" in text
        assert "verdict: snapshot cache ON for this workload" in text
        for reason in report["reasons"]:
            assert reason in text
