"""End-to-end resilience through the CLI: interrupt a search, resume it.

Two interruption styles are exercised on two workloads:

* a *real* SIGINT delivered to a subprocess mid-search (the operator
  pressing Ctrl-C), then ``--resume`` with a deterministic execution
  budget compared against an uninterrupted reference run;
* an in-process limit stop (``--max-executions``) followed by a resume
  that finishes the search.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def totals(output: str):
    match = re.search(r"executions=(\d+) transitions=(\d+)", output)
    assert match, f"no totals in output:\n{output}"
    return int(match.group(1)), int(match.group(2))


def run_cli(args, timeout=120):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def sigint_then_resume(spec, prog_args, tmp_path, budget):
    """SIGINT a CLI search once a checkpoint exists; resume to ``budget``
    executions and compare with an uninterrupted budget-bounded run."""
    ckpt = str(tmp_path / "search.ckpt")
    base = ["check", spec, *prog_args, "--depth-bound", "500"]
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *base,
         "--checkpoint", ckpt, "--checkpoint-interval", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(ckpt):
            if proc.poll() is not None or time.monotonic() > deadline:
                out, err = proc.communicate(timeout=10)
                pytest.fail(f"search ended before any checkpoint:\n{out}\n{err}")
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, f"stdout:\n{out}\nstderr:\n{err}"
    assert "interrupted" in out

    interrupted_execs, _ = totals(out)
    assert interrupted_execs < budget, (
        f"search ran past the test budget before the SIGINT landed "
        f"({interrupted_execs} >= {budget}); raise the budget")

    resumed = run_cli([*base, "--checkpoint", ckpt, "--resume",
                       "--max-executions", str(budget)])
    reference = run_cli([*base, "--max-executions", str(budget)])
    assert resumed.returncode == reference.returncode
    assert totals(resumed.stdout) == totals(reference.stdout)


@pytest.mark.slow
class TestSigintResume:
    def test_dining_philosophers(self, tmp_path):
        sigint_then_resume("repro.workloads.dining:dining_philosophers",
                           ["-a", "3"], tmp_path, budget=800)

    def test_work_stealing_queue(self, tmp_path):
        sigint_then_resume("repro.workloads.wsq:work_stealing_queue",
                           ["-a", "2"], tmp_path, budget=800)


class TestLimitStopResume:
    def test_limit_stop_then_resume_completes(self, tmp_path, capsys):
        ckpt = str(tmp_path / "search.ckpt")
        base = ["check", "repro.workloads.dining:dining_philosophers",
                "-a", "2", "--depth-bound", "300"]

        assert main([*base, "--checkpoint", ckpt, "--checkpoint-interval",
                     "5", "--max-executions", "10"]) == 0
        partial = capsys.readouterr().out
        assert totals(partial)[0] == 10

        assert main([*base, "--checkpoint", ckpt, "--resume"]) == 0
        resumed = capsys.readouterr().out

        assert main(base) == 0
        reference = capsys.readouterr().out
        assert totals(resumed) == totals(reference)
        assert "complete=True" in resumed

    def test_resume_with_another_strategy_exits_2(self, tmp_path, capsys):
        ckpt = str(tmp_path / "search.ckpt")
        base = ["check", "repro.workloads.dining:dining_philosophers",
                "-a", "2", "--depth-bound", "300", "--checkpoint", ckpt]
        assert main([*base, "--strategy", "bfs", "--checkpoint-interval",
                     "5", "--max-executions", "10"]) == 0
        capsys.readouterr()

        assert main([*base, "--resume"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "'bfs'" in err and "'dfs'" in err

    def test_resume_without_checkpoint_flag_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["check", "repro.workloads.dining:dining_philosophers",
                  "-a", "2", "--resume"])

    def test_resume_with_missing_file_starts_fresh(self, tmp_path, capsys):
        ckpt = str(tmp_path / "never-written.ckpt")
        code = main(["check", "repro.workloads.dining:dining_philosophers",
                     "-a", "2", "--depth-bound", "300",
                     "--checkpoint", ckpt, "--resume"])
        assert code == 0
        assert "complete=True" in capsys.readouterr().out
