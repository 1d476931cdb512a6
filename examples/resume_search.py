#!/usr/bin/env python
"""Resilience: interrupt a search, then resume it from its checkpoint.

A long CHESS run must survive Ctrl-C and machine reboots: with
``checkpoint_path`` set, the checker periodically snapshots the search
frontier plus the aggregated results, and ``run(resume_from=...)``
continues exactly where the interrupted search stopped.  Because
executions are deterministic, the resumed search produces the *same*
totals as an uninterrupted one.

This script stands in for the operator's Ctrl-C programmatically: a
listener requests a graceful stop after a few executions (exactly what
the SIGINT handler does), then a second checker resumes from the flushed
checkpoint.  The same flow from the CLI:

    python -m repro check repro.workloads.dining:dining_philosophers \\
        -a 2 --checkpoint search.ckpt --checkpoint-interval 100
    # Ctrl-C ... then:
    python -m repro check repro.workloads.dining:dining_philosophers \\
        -a 2 --checkpoint search.ckpt --resume

Run:  python examples/resume_search.py
"""

import tempfile
from pathlib import Path

from repro import Checker
from repro.engine.strategies import DfsStrategy
from repro.resilience import (
    ResilienceController,
    ResilienceOptions,
    load_checkpoint,
)
from repro.core.policies import fair_policy
from repro.engine.executor import ExecutorConfig
from repro.workloads.dining import dining_philosophers

INTERRUPT_AFTER = 9


def main():
    with tempfile.TemporaryDirectory() as tmp:
        interrupt_and_resume(Path(tmp) / "search.ckpt")


def interrupt_and_resume(ckpt: Path):
    config = ExecutorConfig(depth_bound=300)

    # Reference: the uninterrupted search.
    reference = Checker(dining_philosophers(2), depth_bound=300,
                        handle_signals=False).run()
    ref = reference.exploration
    print(f"uninterrupted: {ref.executions} executions, "
          f"{ref.transitions} transitions, complete={ref.complete}")

    # Interrupted run: a listener plays the operator and requests a
    # graceful stop mid-search (SIGINT does the same through run()).
    controller = ResilienceController(
        ResilienceOptions(checkpoint_path=ckpt, checkpoint_interval=5),
        program=dining_philosophers(2), policy_name="fair", config=config,
    )
    seen = [0]

    def press_ctrl_c(record):
        seen[0] += 1
        if seen[0] >= INTERRUPT_AFTER:
            controller.request_stop("SIGINT")

    partial = DfsStrategy(dining_philosophers(2), fair_policy(), config,
                          listener=press_ctrl_c,
                          resilience=controller).explore()
    print(f"interrupted:   {partial.executions} executions, "
          f"stop_reason={partial.stop_reason!r}, checkpoint at {ckpt.name}")
    assert partial.stop_reason == "interrupted"

    # Resume: a fresh checker continues from the snapshot.
    resumed = Checker(dining_philosophers(2), depth_bound=300,
                      handle_signals=False).run(resume_from=str(ckpt))
    res = resumed.exploration
    print(f"resumed:       {res.executions} executions, "
          f"{res.transitions} transitions, complete={res.complete}")

    assert (res.executions, res.transitions) == (ref.executions,
                                                 ref.transitions)
    print("resumed search matches the uninterrupted one exactly")

    # The checkpoint itself is plain (versioned) JSON.
    payload = load_checkpoint(ckpt)
    print(f"checkpoint: format={payload['format']} "
          f"strategy={payload['strategy']} "
          f"executions={payload['state']['aggregator']['executions']}")


if __name__ == "__main__":
    main()
