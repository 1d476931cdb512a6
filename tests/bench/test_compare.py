"""Benchmark regression comparison: rules, exit codes, CLI wiring."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.profile import compare_bench, load_bench


def hotpath_doc():
    return {
        "bench": "hotpath_replay",
        "scale": "smoke",
        "cpu_count": 4,
        "host": "ci-runner",
        "entries": [{
            "program": "bounded-buffer(items=2, consumers=2)",
            "strategy": "dfs",
            "depth_bound": 200,
            "preemption_bound": 2,
            "snapshot_interval": 4,
            "runs": [
                {"snapshot_cache": False, "seconds": 0.5, "ok": True,
                 "executions": 250, "transitions": 4000,
                 "replayed_steps": 3000, "restored_steps": 0,
                 "snapshot_hits": 0, "snapshot_misses": 0},
                {"snapshot_cache": True, "seconds": 0.4, "ok": True,
                 "executions": 250, "transitions": 4000,
                 "replayed_steps": 400, "restored_steps": 2500,
                 "snapshot_hits": 60, "snapshot_misses": 2},
            ],
            "replayed_reduction": 7.5,
            "cache_speedup": 1.25,
        }],
    }


class TestCompareRules:
    def test_identical_documents_pass(self):
        comparison = compare_bench(hotpath_doc(), hotpath_doc())
        assert comparison.ok
        assert comparison.exit_code == 0
        assert not comparison.regressions

    def test_injected_20_percent_regression_fails(self):
        current = hotpath_doc()
        run = current["entries"][0]["runs"][0]
        run["seconds"] = round(run["seconds"] * 1.25, 3)  # > 20% slower
        comparison = compare_bench(hotpath_doc(), current)
        assert comparison.exit_code == 1
        assert any(v.metric == "seconds" for v in comparison.regressions)

    def test_slowdown_within_tolerance_passes(self):
        current = hotpath_doc()
        run = current["entries"][0]["runs"][0]
        run["seconds"] = round(run["seconds"] * 1.15, 3)
        assert compare_bench(hotpath_doc(), current).ok

    def test_improvement_is_reported_not_gated(self):
        current = hotpath_doc()
        current["entries"][0]["runs"][0]["seconds"] = 0.3
        comparison = compare_bench(hotpath_doc(), current)
        assert comparison.ok
        assert comparison.improvements

    def test_replayed_steps_are_informational(self):
        # The step counter is gated through the replayed_reduction
        # ratio, not raw counts — a blowup shows up there instead.
        current = hotpath_doc()
        current["entries"][0]["runs"][1]["replayed_steps"] = 3000
        comparison = compare_bench(hotpath_doc(), current)
        assert comparison.ok
        assert any(v.metric == "replayed_steps" and v.status == "info"
                   for v in comparison.values)

    def test_reduction_collapse_fails(self):
        current = hotpath_doc()
        current["entries"][0]["replayed_reduction"] = 1.1
        assert compare_bench(hotpath_doc(), current).exit_code == 1

    def test_cache_speedup_collapse_fails(self):
        # The wall-clock gate: the off/on ratio dropping past tolerance
        # means the cache stopped winning in seconds.
        current = hotpath_doc()
        current["entries"][0]["cache_speedup"] = 0.9
        comparison = compare_bench(hotpath_doc(), current)
        assert comparison.exit_code == 1
        assert any(v.metric == "cache_speedup"
                   for v in comparison.regressions)

    def test_determinism_contract_is_exact(self):
        # One execution of drift is a regression, no tolerance applies.
        current = hotpath_doc()
        current["entries"][0]["runs"][0]["executions"] = 251
        comparison = compare_bench(hotpath_doc(), current)
        assert any(v.metric == "executions"
                   for v in comparison.regressions)

    def test_sub_noise_floor_seconds_never_gate(self):
        baseline, current = hotpath_doc(), hotpath_doc()
        baseline["entries"][0]["runs"][0]["seconds"] = 0.004
        current["entries"][0]["runs"][0]["seconds"] = 0.012  # 3x but tiny
        assert compare_bench(baseline, current).ok

    def test_provenance_drift_warns_without_failing(self):
        current = hotpath_doc()
        current["host"] = "laptop"
        current["cpu_count"] = 1
        comparison = compare_bench(hotpath_doc(), current)
        assert comparison.ok
        drifts = [v for v in comparison.values if v.status == "drift"]
        assert {v.metric for v in drifts} == {"host", "cpu_count"}

    def test_missing_entry_warns(self):
        current = hotpath_doc()
        current["entries"] = []
        comparison = compare_bench(hotpath_doc(), current)
        assert comparison.ok
        assert any("missing" in w for w in comparison.warnings)

    def test_snapshot_cost_columns_are_informational(self):
        baseline, current = hotpath_doc(), hotpath_doc()
        for doc, value in ((baseline, 0.01), (current, 0.09)):
            doc["entries"][0]["runs"][1]["capture_seconds"] = value
        comparison = compare_bench(baseline, current)
        assert comparison.ok
        assert any(v.metric == "capture_seconds" and v.status == "info"
                   for v in comparison.values)

    def test_summary_mentions_the_verdict(self):
        text = compare_bench(hotpath_doc(), hotpath_doc()).summary()
        assert "result: OK" in text


class TestLoadAndCli:
    def write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_load_bench_rejects_non_bench_json(self, tmp_path):
        path = self.write(tmp_path, "x.json", {"not": "a bench"})
        with pytest.raises(ValueError, match="entries"):
            load_bench(path)

    def test_cli_exit_zero_on_identical(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", hotpath_doc())
        code = main(["bench", "compare", base, base])
        assert code == 0
        assert "result: OK" in capsys.readouterr().out

    def test_cli_exit_nonzero_on_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", hotpath_doc())
        current_doc = copy.deepcopy(hotpath_doc())
        current_doc["entries"][0]["runs"][0]["seconds"] = 0.7
        current = self.write(tmp_path, "current.json", current_doc)
        code = main(["bench", "compare", base, current])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_tolerance_flag(self, tmp_path):
        base = self.write(tmp_path, "base.json", hotpath_doc())
        current_doc = copy.deepcopy(hotpath_doc())
        current_doc["entries"][0]["runs"][0]["seconds"] = 0.7  # +40%
        current = self.write(tmp_path, "current.json", current_doc)
        assert main(["bench", "compare", base, current,
                     "--tolerance", "0.5"]) == 0

    def test_cli_missing_file_is_a_clean_error(self, tmp_path):
        base = self.write(tmp_path, "base.json", hotpath_doc())
        with pytest.raises(SystemExit, match="cannot load"):
            main(["bench", "compare", base, str(tmp_path / "nope.json")])

    def test_committed_baselines_load(self):
        # The repo-root BENCH files must stay valid compare inputs.
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent.parent
        for name in ("BENCH_hotpath.json", "BENCH_dpor.json"):
            document = load_bench(str(root / name))
            comparison = compare_bench(document, document)
            assert comparison.exit_code == 0
