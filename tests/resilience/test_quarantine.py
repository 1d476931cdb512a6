"""Crash quarantine: crashing executions become findings, not fatalities."""

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.persistence import load_schedule
from repro.engine.results import Outcome
from repro.obs import CollectingSink, CrashQuarantined, Observer
from repro.runtime.program import VMProgram
from repro.sync import SharedVar


def crashy_program():
    """Every interleaving crashes one thread with a plain RuntimeError."""
    def setup(env):
        x = SharedVar(0, name="x")

        def ok():
            yield from x.set(1)

        def bad():
            yield from x.get()
            raise RuntimeError("boom")

        env.spawn(ok, name="ok")
        env.spawn(bad, name="bad")

    return VMProgram(setup, name="crashy")


class TestExecutorCapture:
    def test_legacy_crash_is_a_violation(self):
        result = run_execution(crashy_program(), fair_policy()(),
                               GuidedChooser(()), ExecutorConfig())
        assert result.outcome is Outcome.VIOLATION
        assert "boom" in str(result.violation)

    def test_captured_crash_is_quarantined(self):
        result = run_execution(
            crashy_program(), fair_policy()(), GuidedChooser(()),
            ExecutorConfig(capture_crashes=True),
        )
        assert result.outcome is Outcome.CRASHED
        assert "boom" in str(result.crash)
        assert result.violation is None
        # The record still carries a replayable schedule.
        assert result.decisions


class TestCheckerQuarantine:
    def test_max_crashes_stops_the_search(self, tmp_path):
        quarantine = tmp_path / "quarantine"
        sink = CollectingSink()
        result = Checker(
            crashy_program(), max_crashes=3, quarantine_dir=str(quarantine),
            handle_signals=False, observer=Observer(sink=sink),
        ).run()
        exploration = result.exploration
        assert exploration.stop_reason == "max-crashes"
        assert exploration.outcomes[Outcome.CRASHED] == 3
        assert len(exploration.crashes) == 3
        assert not result.ok
        assert "quarantined crash" in result.report()

        saved = sorted(p.name for p in quarantine.iterdir())
        assert saved == ["crash-0000.json", "crash-0001.json",
                         "crash-0002.json"]
        payload = load_schedule(quarantine / "crash-0000.json")
        assert payload["schedule"] == exploration.crashes[0].schedule
        assert payload["strategy"] == "dfs"
        assert payload["preemption_bound"] is None

        events = sink.of_type(CrashQuarantined)
        assert len(events) == 3
        assert all("boom" in e.message for e in events)
        assert events[0].path.endswith("crash-0000.json")

    def test_quarantine_dir_alone_enables_capture(self, tmp_path):
        quarantine = tmp_path / "q"
        result = Checker(crashy_program(), quarantine_dir=str(quarantine),
                         handle_signals=False).run()
        assert result.exploration.outcomes[Outcome.CRASHED] > 0
        assert any(quarantine.iterdir())

    def test_without_capture_a_crash_is_still_a_violation(self):
        result = Checker(crashy_program(), handle_signals=False).run()
        assert result.exploration.found_violation
        assert result.exploration.stop_reason == "violation"
        assert not result.exploration.crashes
