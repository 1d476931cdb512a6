"""Command-line interface tests (driven in-process via cli.main)."""

import pytest

from repro.cli import main


class TestDemos:
    def test_demos_lists_names(self, capsys):
        assert main(["demos"]) == 0
        out = capsys.readouterr().out
        assert "dining-livelock" in out
        assert "singularity" in out

    def test_demo_pass(self, capsys):
        code = main(["demo", "spinloop", "--depth-bound", "200"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_demo_fail(self, capsys):
        code = main(["demo", "dining-livelock", "--depth-bound", "300"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "livelock" in out

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nonsense"]) == 2


class TestCheck:
    def test_check_by_spec_with_args(self, capsys):
        code = main([
            "check", "repro.workloads.dining:dining_philosophers",
            "-a", "2", "--depth-bound", "300",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_failing_program(self, capsys):
        code = main([
            "check",
            "repro.workloads.dining:dining_philosophers_livelock",
            "-a", "2", "--depth-bound", "300",
        ])
        assert code == 1

    def test_no_fairness_flag(self, capsys):
        code = main([
            "check", "repro.workloads.spinloop:spinloop",
            "--no-fairness", "--depth-bound", "25",
            "--max-executions", "500",
        ])
        assert code == 0
        assert "nonfair" in capsys.readouterr().out

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "no-colon-here"])
        with pytest.raises(SystemExit):
            main(["check", "nonexistent.module:factory"])
        with pytest.raises(SystemExit):
            main(["check", "repro.workloads.dining:_HUNGRY"])


class TestCountValidation:
    """A non-positive count is a usage error (exit 2), never reported
    with the exit code of a found bug."""

    DINING = ["check", "repro.workloads.dining:dining_philosophers",
              "-a", "2", "--depth-bound", "200"]

    #: The range each flag's value must fall in, when it is not "a
    #: positive integer".
    RANGES = {"--preemption-bound": "a non-negative integer",
              "--execution-budget": "a positive number",
              "--max-seconds": "a positive number"}

    @pytest.mark.parametrize("flags", [
        ["--snapshot-interval", "0"],
        ["--snapshot-cache", "--snapshot-interval", "0"],
        ["--no-snapshot-cache", "--snapshot-interval", "-2"],
        ["--depth-bound", "0"],
        ["--depth-bound", "-1"],
        ["--preemption-bound", "-1"],
        ["--execution-budget", "0"],
        ["--random-executions", "-3"],
        ["--max-crashes", "0"],
        ["--max-executions", "0"],
        ["--max-executions", "-2"],
        ["--max-seconds", "0"],
        ["--max-seconds", "-1"],
        ["--k-yield", "0"],
    ])
    def test_non_positive_count_exits_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.DINING + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flags[-2]}" in err
        expected = self.RANGES.get(flags[-2], "a positive integer")
        assert f"must be {expected}" in err

    def test_checker_rejects_non_positive_counts(self):
        from repro.checker import Checker
        from repro.workloads.dining import dining_philosophers

        for kwargs in ({"snapshot_interval": 0},
                       {"snapshot_interval": 0, "snapshot_cache": False},
                       {"depth_bound": 0},
                       {"depth_bound": -1},
                       {"execution_budget_seconds": 0},
                       {"strategy": "random", "random_executions": -3},
                       {"max_crashes": 0},
                       {"max_executions": 0},
                       {"max_executions": -2},
                       {"max_seconds": 0},
                       {"max_seconds": -1},
                       {"k_yield": 0}):
            with pytest.raises(ValueError, match="must be positive"):
                Checker(dining_philosophers(2), **kwargs)
        with pytest.raises(ValueError, match="must be non-negative"):
            Checker(dining_philosophers(2), preemption_bound=-1)

    def test_snapshot_cache_is_on_by_default(self, tmp_path, capsys):
        import json

        counts = {}
        for flag in ([], ["--no-snapshot-cache"]):
            path = tmp_path / f"m{len(flag)}.json"
            assert main(self.DINING + flag + [
                "--snapshot-interval", "4", "--metrics-json", str(path)]) == 0
            counters = json.loads(path.read_text())["counters"]
            counts[bool(flag)] = counters
        assert counts[False]["snapshot.hits"] > 0
        assert "snapshot.hits" not in counts[True]
        for key in ("executions", "transitions"):
            assert counts[False][key] == counts[True][key]


class TestReproRoundTrip:
    def test_save_and_replay(self, tmp_path, capsys):
        repro_file = str(tmp_path / "bug.json")
        code = main([
            "check", "repro.workloads.wsq:work_stealing_queue",
            "-a", "1", "--preemption-bound", "1", "--depth-bound", "300",
            "--save-repro", repro_file,
        ])
        # The correct queue passes; no repro file written.
        assert code == 0

        code = main([
            "demo", "wsq-bug1", "--depth-bound", "300",
            "--save-repro", repro_file,
        ])
        assert code == 1
        assert "repro file written" in capsys.readouterr().out

        # Replay it through the CLI against the same factory parameters
        # (items=1, stealers=1, bug=1): the violation reproduces.
        code = main([
            "replay", repro_file,
            "repro.workloads.wsq:work_stealing_queue",
            "-a", "1", "-a", "1", "-a", "1",
            "--preemption-bound", "2", "--depth-bound", "300",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation" in out

    def test_replay_against_wrong_program_rejected(self, tmp_path):
        repro_file = str(tmp_path / "bug.json")
        code = main([
            "demo", "wsq-bug1", "--depth-bound", "300",
            "--save-repro", repro_file,
        ])
        assert code == 1
        import pytest as _pytest

        with _pytest.raises(ValueError):
            main([
                "replay", repro_file,
                "repro.workloads.spinloop:spinloop",
            ])


class TestTelemetryFlags:
    DINING = ["check", "repro.workloads.dining:dining_philosophers",
              "-a", "2", "--depth-bound", "300"]

    def test_stats_prints_phases_and_metrics(self, capsys):
        assert main(self.DINING + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        for phase in ("policy", "schedule", "execute"):
            assert phase in out
        assert "executions" in out

    def test_metrics_json_export(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "metrics.json")
        assert main(self.DINING + ["--metrics-json", path]) == 0
        assert "metrics written to" in capsys.readouterr().out
        data = json.loads(open(path).read())
        assert data["counters"]["executions"] >= 1
        assert data["counters"]["transitions"] >= 1
        assert "policy" in data["phases"]
        # The acceptance bar: at least 8 distinct metrics exported.
        names = (list(data["counters"]) + list(data["gauges"])
                 + list(data["histograms"]))
        assert len(names) >= 8

    def test_trace_out_recovers_the_schedule(self, tmp_path, capsys):
        from repro.obs import read_jsonl, schedule_from_events

        path = str(tmp_path / "trace.jsonl")
        code = main([
            "check",
            "repro.workloads.wsq:work_stealing_queue",
            "-a", "1", "-a", "1", "-a", "1",
            "--preemption-bound", "2", "--depth-bound", "300",
            "--trace-out", path,
        ])
        assert code == 1
        assert "event trace written" in capsys.readouterr().out
        events = list(read_jsonl(path))
        # The decision events of the failing execution form a replayable
        # guide (replay itself is covered in tests/obs/test_observer.py).
        guide = schedule_from_events(events)
        assert guide

    def test_progress_writes_to_stderr(self, capsys):
        assert main(self.DINING + ["--progress",
                                   "--progress-interval", "0"]) == 0
        err = capsys.readouterr().err
        assert "[progress]" in err
        assert "exec/s=" in err

    def test_no_flags_no_observer(self, capsys):
        assert main(self.DINING) == 0
        out = capsys.readouterr().out
        assert "phase timings" not in out
        assert "metrics written" not in out
