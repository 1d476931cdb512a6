"""Checkpoint/resume round-trips: a resumed search equals an uninterrupted one.

Each strategy is run three ways on the same workload:

1. uninterrupted, as the reference;
2. with a checkpoint and a listener that requests a graceful stop
   mid-search (the programmatic stand-in for SIGINT);
3. resumed from the flushed checkpoint.

The resumed totals (executions, transitions, per-outcome counts,
completeness) must match the reference exactly — the whole point of
checkpointing a deterministic search.
"""

import dataclasses

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy
from repro.engine.executor import ExecutorConfig
from repro.engine.strategies import STRATEGIES, ExplorationLimits
from repro.resilience import (
    ResilienceController,
    ResilienceOptions,
    load_checkpoint,
)
from repro.workloads.dining import dining_philosophers

CONFIG = ExecutorConfig(depth_bound=300)
#: ICB sweeps bounds 0..1: its ceiling is the configured preemption bound.
CONFIGS = {"icb": dataclasses.replace(CONFIG, preemption_bound=1)}
#: Executions to run before the listener requests the graceful stop.
INTERRUPT_AFTER = 7


def build(name, program, *, listener=None, resilience=None):
    return STRATEGIES[name].create(
        program, fair_policy(), CONFIGS.get(name, CONFIG),
        ExplorationLimits(), seed=11, executions=25,
        listener=listener, resilience=resilience)


def controller_for(path, program):
    options = ResilienceOptions(checkpoint_path=path,
                                checkpoint_interval=10_000,
                                handle_signals=False)
    return ResilienceController(options, program=program,
                                policy_name="fair", config=CONFIG)


@pytest.mark.parametrize("name", list(STRATEGIES))
class TestResumeEqualsUninterrupted:
    def test_round_trip(self, name, tmp_path):
        program = dining_philosophers(2)
        reference = build(name, program).explore()
        assert reference.executions > INTERRUPT_AFTER

        # Interrupted leg: request a graceful stop mid-search; the final
        # checkpoint is flushed on the way out.
        ckpt = tmp_path / "search.ckpt"
        controller = controller_for(ckpt, program)
        seen = [0]

        def stop_midway(record):
            seen[0] += 1
            if seen[0] >= INTERRUPT_AFTER:
                controller.request_stop("test")

        partial = build(name, program, listener=stop_midway,
                        resilience=controller).explore()
        assert partial.stop_reason == "interrupted"
        assert partial.interrupted
        assert not partial.complete
        assert partial.executions == INTERRUPT_AFTER
        assert partial.executions < reference.executions
        assert ckpt.exists()

        # Resumed leg: fresh strategy object, state from the checkpoint.
        resumed_strategy = build(name, program)
        resumed_strategy.load_state_dict(load_checkpoint(ckpt)["state"])
        resumed = resumed_strategy.explore()

        assert resumed.executions == reference.executions
        assert resumed.transitions == reference.transitions
        assert dict(resumed.outcomes) == dict(reference.outcomes)
        assert resumed.complete == reference.complete
        assert resumed.stop_reason is None

    def test_checkpoint_refuses_other_strategy(self, name, tmp_path):
        program = dining_philosophers(2)
        ckpt = tmp_path / "search.ckpt"
        controller = controller_for(ckpt, program)
        controller.flush_checkpoint(build(name, program,
                                          resilience=controller))
        other = "bfs" if name != "bfs" else "dfs"
        with pytest.raises(ValueError, match="written by strategy"):
            build(other, program).load_state_dict(
                load_checkpoint(ckpt)["state"])


class TestCheckerResume:
    def test_limit_stop_then_resume_completes(self, tmp_path):
        ckpt = str(tmp_path / "search.ckpt")
        reference = Checker(dining_philosophers(2), depth_bound=300,
                            handle_signals=False).run()

        partial = Checker(dining_philosophers(2), depth_bound=300,
                          checkpoint_path=ckpt, checkpoint_interval=5,
                          max_executions=10, handle_signals=False).run()
        assert partial.exploration.stop_reason == "max-executions"
        assert partial.exploration.executions == 10

        resumed = Checker(dining_philosophers(2), depth_bound=300,
                          handle_signals=False).run(resume_from=ckpt)
        assert resumed.exploration.executions == reference.exploration.executions
        assert resumed.exploration.transitions == reference.exploration.transitions
        assert resumed.exploration.complete

    def test_resume_rejects_other_program(self, tmp_path):
        from repro.workloads.spinloop import spinloop

        ckpt = str(tmp_path / "search.ckpt")
        Checker(dining_philosophers(2), depth_bound=300, checkpoint_path=ckpt,
                max_executions=5, handle_signals=False).run()
        with pytest.raises(ValueError, match="recorded for program"):
            Checker(spinloop(), depth_bound=300,
                    handle_signals=False).run(resume_from=ckpt)

    def test_checkpoint_interval_paces_periodic_writes(self, tmp_path):
        from repro.obs import CheckpointWritten, CollectingSink, Observer

        sink = CollectingSink()
        Checker(dining_philosophers(2), depth_bound=300,
                checkpoint_path=str(tmp_path / "s.ckpt"),
                checkpoint_interval=10, handle_signals=False,
                observer=Observer(sink=sink)).run()
        written = sink.of_type(CheckpointWritten)
        # 42 executions at interval 10 -> 4 periodic snapshots + the
        # final flush.
        assert len(written) == 5
        assert written[-1].executions == 42
