"""Coordinator semantics: crashes, checkpoints, stops, telemetry.

The serial-equivalence suite checks *what* a parallel search computes;
this one checks *how* it behaves when the world misbehaves — worker
processes dying mid-shard, operator limits firing mid-run, resumes, and
the observability contract (events, metrics, progress parity).
"""

import os

import pytest

from repro.checker import Checker
from repro.obs import CollectingSink, Observer, ShardFinished, ShardStarted, WorkerCrashed
from repro.resilience import load_checkpoint
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar
from repro.workloads.dining import dining_philosophers


def killer_program(safe_pid):
    """A program that hard-kills any process except ``safe_pid`` when the
    reader observes the writer's store.

    Schedules where ``u`` reads after ``t``'s write are therefore fatal
    to worker processes but harmless to the coordinator's planner probes
    (which run in the parent, ``safe_pid``).  ``os._exit`` bypasses all
    Python-level crash capture, so this models a genuine native crash.
    """

    def setup(env):
        x = SharedVar(0, name="x")

        def t():
            yield from x.set(1)

        def u():
            value = yield from x.get()
            if value == 1 and os.getpid() != safe_pid:
                os._exit(17)

        env.spawn(t, name="t")
        env.spawn(u, name="u")

    return VMProgram(setup, name="killer")


def counted(program, **kwargs):
    return Checker(program, depth_bound=300,
                   stop_on_first_violation=False,
                   stop_on_first_divergence=False, **kwargs)


class TestWorkerCrashes:
    def test_crashing_shard_is_requeued_then_quarantined(self):
        sink = CollectingSink()
        result = counted(killer_program(os.getpid()), workers=2,
                         observer=Observer(sink=sink)).run()
        crashes = sink.of_type(WorkerCrashed)
        assert crashes, "worker deaths must surface as WorkerCrashed events"
        assert any(e.requeued for e in crashes), "first death retries"
        assert any(not e.requeued for e in crashes), \
            "exhausted retries quarantine the shard"
        assert not result.exploration.complete
        assert any("quarantined" in w for w in result.warnings)
        # An unsearched subtree is never a PASS.
        assert not result.ok
        assert "verdict: FAIL" in result.report()

    def test_healthy_shards_still_merge_around_the_quarantine(self):
        result = counted(killer_program(os.getpid()), workers=2).run()
        # The crash-free subtrees (u reads before t writes) still count.
        assert result.exploration.executions > 0


class TestParallelCheckpointResume:
    def test_limit_stop_then_resume_completes(self, tmp_path):
        ckpt = str(tmp_path / "par.ckpt")
        reference = counted(dining_philosophers(2), workers=2).run()

        partial = counted(dining_philosophers(2), workers=2,
                          max_executions=10, checkpoint_path=ckpt,
                          checkpoint_interval=1,
                          handle_signals=False).run()
        assert partial.exploration.stop_reason == "max-executions"
        assert partial.exploration.limit_hit
        assert not partial.exploration.complete

        payload = load_checkpoint(ckpt)
        assert payload["state"]["strategy"] == "parallel"
        assert payload["state"]["inner"] == "dfs"

        resumed = counted(dining_philosophers(2), workers=2,
                          handle_signals=False).run(resume_from=ckpt)
        assert resumed.exploration.executions == \
            reference.exploration.executions
        assert resumed.exploration.transitions == \
            reference.exploration.transitions
        assert resumed.exploration.complete

    def test_serial_refuses_parallel_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "par.ckpt")
        counted(dining_philosophers(2), workers=2, max_executions=10,
                checkpoint_path=ckpt, checkpoint_interval=1,
                handle_signals=False).run()
        with pytest.raises(ValueError, match="parallel"):
            counted(dining_philosophers(2),
                    handle_signals=False).run(resume_from=ckpt)

    def test_parallel_refuses_serial_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "serial.ckpt")
        counted(dining_philosophers(2), max_executions=10,
                checkpoint_path=ckpt, checkpoint_interval=1,
                handle_signals=False).run()
        with pytest.raises(ValueError, match="cannot resume"):
            counted(dining_philosophers(2), workers=2,
                    handle_signals=False).run(resume_from=ckpt)

    def test_parallel_refuses_other_inner_strategy(self, tmp_path):
        ckpt = str(tmp_path / "par.ckpt")
        counted(dining_philosophers(2), workers=2, max_executions=10,
                checkpoint_path=ckpt, checkpoint_interval=1,
                handle_signals=False).run()
        with pytest.raises(ValueError, match="written for strategy"):
            counted(dining_philosophers(2), workers=2, strategy="bfs",
                    handle_signals=False).run(resume_from=ckpt)


class TestTelemetryParity:
    def test_events_and_metrics_reflect_the_merge(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = counted(dining_philosophers(2), workers=2,
                         observer=observer).run()
        merged = result.exploration

        started = sink.of_type(ShardStarted)
        finished = sink.of_type(ShardFinished)
        assert started and finished
        assert sum(e.executions for e in finished) == merged.executions
        # Reconciled counters equal the merged (deterministic) totals.
        assert observer.metrics.counter("executions").value == \
            merged.executions
        assert observer.metrics.counter("transitions").value == \
            merged.transitions
        assert observer.metrics.counter("shards.completed").value == \
            len(finished)

    def test_metrics_json_parity_with_serial(self, tmp_path):
        import json

        def metrics_for(workers):
            observer = Observer()
            counted(dining_philosophers(2), workers=workers,
                    observer=observer).run()
            path = tmp_path / f"m{workers}.json"
            observer.dump_json(str(path))
            counters = json.loads(path.read_text())["counters"]
            # Untouched counters are never created (on either path), so
            # absent and zero are the same reading.
            return {k: counters.get(k, 0) for k in
                    ("executions", "transitions", "violations", "deadlocks")}

        assert metrics_for(4) == metrics_for(1)


class TestInlineFallback:
    def test_platforms_without_fork_run_the_same_plan(self, monkeypatch):
        import repro.parallel.coordinator as coordinator_module

        monkeypatch.setattr(coordinator_module, "_fork_context", lambda: None)
        reference = counted(dining_philosophers(2)).run()
        inline = counted(dining_philosophers(2), workers=4).run()
        assert inline.exploration.executions == \
            reference.exploration.executions
        assert inline.exploration.transitions == \
            reference.exploration.transitions
        assert inline.exploration.complete


class TestValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="positive"):
            Checker(dining_philosophers(2), workers=0)

    def test_workers_one_is_exactly_the_serial_path(self):
        # workers=1 must not even touch the parallel machinery.
        result = counted(dining_philosophers(2), workers=1).run()
        assert result.exploration.complete
        assert result.exploration.executions == 42
