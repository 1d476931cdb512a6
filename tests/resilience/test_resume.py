"""Checkpoint/resume round-trips: a resumed search equals an uninterrupted one.

Each strategy is run three ways on the same workload:

1. uninterrupted, as the reference;
2. with a checkpoint and a listener that requests a graceful stop
   mid-search (the programmatic stand-in for SIGINT);
3. resumed from the flushed checkpoint.

The resumed totals (executions, transitions, per-outcome counts,
completeness) must match the reference exactly — the whole point of
checkpointing a deterministic search.

``TestSlicedEqualsDirect`` runs each strategy as a sequence of short
``Checker`` runs, each resuming the last one's checkpoint under a
growing ``max_executions``, and holds the result to one uninterrupted
run: totals, verdict and the first counterexample's schedule.
"""

import dataclasses

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy
from repro.engine.executor import ExecutorConfig
from repro.engine.persistence import load_and_replay, save_schedule
from repro.engine.strategies import STRATEGIES, ExplorationLimits
from repro.resilience import (
    CheckpointStore,
    ResilienceController,
    ResilienceOptions,
    load_checkpoint,
)
from repro.workloads.dining import dining_philosophers
from repro.workloads.wsq import work_stealing_queue

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


@pytest.mark.parametrize("name, legacy", [
    ("dfs", {"prefix": []}),
    ("random", {"start": 0, "end": 25}),
])
def test_earlier_frontier_shapes_still_resume(name, legacy, tmp_path):
    """Serial checkpoints from before the parallel search was deleted
    carry a DFS ``prefix`` and a random walk's ``start``/``end``; they
    resume to the totals of an uninterrupted run."""
    program = dining_philosophers(2)
    reference = build(name, program).explore()
    ckpt = tmp_path / "search.ckpt"
    controller = controller_for(ckpt, program)
    seen = [0]

    def stop_midway(record):
        seen[0] += 1
        if seen[0] >= INTERRUPT_AFTER:
            controller.request_stop("test")

    build(name, program, listener=stop_midway,
          resilience=controller).explore()
    state = load_checkpoint(ckpt)["state"]
    assert not set(legacy) & set(state["frontier"])
    state["frontier"].update(legacy)

    resumed_strategy = build(name, program)
    resumed_strategy.load_state_dict(state)
    resumed = resumed_strategy.explore()
    assert resumed.executions == reference.executions
    assert resumed.transitions == reference.transitions
    assert dict(resumed.outcomes) == dict(reference.outcomes)
    assert resumed.complete == reference.complete


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

    def test_refuses_parallel_checkpoint(self, tmp_path, capsys):
        # The state the deleted multi-process search wrote; nothing can
        # resume it now.
        from repro.cli import main

        ckpt = str(tmp_path / "par.ckpt")
        CheckpointStore(ckpt).save({
            "program": dining_philosophers(2).name,
            "policy": "fair",
            "strategy": "parallel",
            "state": {"strategy": "parallel", "inner": "dfs", "phase": 0,
                      "completed_phases": [], "completed_shards": {},
                      "aggregator": {"executions": 10}},
        })
        with pytest.raises(ValueError, match="parallel"):
            Checker(dining_philosophers(2), depth_bound=300,
                    handle_signals=False).run(resume_from=ckpt)
        assert main(["check", "repro.workloads.dining:dining_philosophers",
                     "-a", "2", "--depth-bound", "300",
                     "--checkpoint", ckpt, "--resume"]) == 2
        assert "'parallel'" in capsys.readouterr().err

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


def run_sliced(make_program, quantum, ckpt, **config):
    """Run a search in slices of ``quantum`` executions, one fresh
    ``Checker`` per slice, each resuming the previous slice's checkpoint
    (what ``repro check --checkpoint P --resume --max-executions N``
    does run after run).  Returns the last slice's checker and result,
    and the number of slices."""
    cap = config.pop("max_executions", None)
    done = slices = 0
    while True:
        limit = done + quantum if cap is None else min(done + quantum, cap)
        resume = str(ckpt) if CheckpointStore(ckpt).recoverable() else None
        checker = Checker(make_program(), max_executions=limit,
                          checkpoint_path=str(ckpt),
                          checkpoint_interval=quantum, handle_signals=False,
                          **config)
        result = checker.run(resume_from=resume)
        slices += 1
        done = result.exploration.executions
        if result.exploration.stop_reason != "max-executions" or done == cap:
            return checker, result, slices


def search_totals(result):
    exploration = result.exploration
    record = result.violation
    return (exploration.executions, exploration.transitions,
            dict(exploration.outcomes), exploration.complete,
            exploration.first_violation_execution,
            None if record is None else record.schedule)


#: Per-strategy options: random search gets a fixed walk count and seed.
SLICED_EXTRA = {"random": {"random_executions": 60, "seed": 11}}


@pytest.mark.parametrize("name", list(STRATEGIES))
class TestSlicedEqualsDirect:
    """A search cut into checkpointed slices reaches the totals, verdict
    and first counterexample of one uninterrupted ``Checker.run()``."""

    def check(self, name, make_program, quantum, tmp_path, **config):
        config = {"strategy": name, **SLICED_EXTRA.get(name, {}), **config}
        direct = Checker(make_program(), handle_signals=False,
                         **config).run()
        checker, sliced, slices = run_sliced(
            make_program, quantum, tmp_path / "sliced.ckpt", **config)
        assert search_totals(sliced) == search_totals(direct)
        if direct.exploration.executions > quantum:
            assert slices > 1, "the quantum did not slice the search"
        return checker, sliced

    def test_clean_program(self, name, tmp_path):
        self.check(name, lambda: dining_philosophers(2), 7, tmp_path)

    def test_buggy_program(self, name, tmp_path):
        self.check(name, lambda: work_stealing_queue(1, 1, 1), 9, tmp_path,
                   max_executions=400)

    def test_counterexample_replays(self, name, tmp_path):
        def make_program():
            return work_stealing_queue(3, 1, 2)

        checker, sliced = self.check(name, make_program, 1, tmp_path,
                                     depth_bound=200)
        record = sliced.violation
        assert record is not None
        path = save_schedule(tmp_path / "repro.json", checker.program,
                             record, policy_name=checker.policy_factory().name,
                             config=checker.config, strategy=checker.strategy)
        replayed = load_and_replay(path, make_program(),
                                   checker.policy_factory, checker.config)
        assert replayed.outcome is record.outcome
