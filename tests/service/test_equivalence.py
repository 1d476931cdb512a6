"""Service-vs-direct equivalence: quantum slicing must not change results.

The service runs every job as a sequence of checkpoint/resume quanta.
Because resume reproduces the uninterrupted search exactly (PR2's
guarantee, tests/resilience/test_resume.py), a sliced job's final
totals, verdict, and first-violation index must be bit-identical to a
direct ``Checker.run()`` with the same config — for every strategy, and
even when the server is killed and restarted mid-job.
"""

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy
from repro.engine.persistence import load_and_replay
from repro.service import CheckServer, JobSpec, JobState
from repro.workloads.dining import dining_philosophers
from repro.workloads.wsq import work_stealing_queue

#: (strategy, extra config) triples exercised through the service.  The
#: quantum (well below each search's total) forces many resume cycles.
STRATEGIES = [
    ("dfs", {}),
    ("bfs", {}),
    ("icb", {}),
    ("por", {}),
    ("random", {"random_executions": 60, "seed": 11}),
]


def run_direct(program, config):
    # The service always runs jobs with a quarantine dir (crash capture
    # on); mirror that so the executor configs match exactly.
    import tempfile

    return Checker(program, quarantine_dir=tempfile.mkdtemp(),
                   **config).run()


def totals(exploration):
    return (exploration.executions, exploration.transitions,
            exploration.complete, exploration.first_violation_execution)


@pytest.mark.parametrize("strategy,extra", STRATEGIES,
                         ids=[s for s, _ in STRATEGIES])
class TestSlicedEqualsDirect:
    def test_clean_program(self, strategy, extra, tmp_path):
        config = {"strategy": strategy, **extra}
        direct = run_direct(dining_philosophers(2), config)

        server = CheckServer(tmp_path / "svc", fleet=2,
                             quantum_executions=7)
        record = server.submit(JobSpec(
            program="repro.workloads.dining:dining_philosophers",
            factory_args=["2"], config=config))
        try:
            server.run_until_idle(timeout=120)
        finally:
            server.stop()

        final = server.job(record.id)
        result = server.result(record.id)
        assert final.state is JobState.DONE
        assert result["verdict"] == ("pass" if direct.ok else "fail")
        assert final.quanta > 1, "quantum did not slice the search"
        assert (result["executions"], result["transitions"],
                result["complete"],
                result["first_violation_execution"]) == \
            totals(direct.exploration)

    def test_buggy_program(self, strategy, extra, tmp_path):
        config = {"strategy": strategy, "max_executions": 400, **extra}
        direct = run_direct(work_stealing_queue(1, 1, 1), config)

        server = CheckServer(tmp_path / "svc", fleet=2,
                             quantum_executions=9)
        record = server.submit(JobSpec(
            program="repro.workloads.wsq:work_stealing_queue",
            factory_args=["1", "1", "1"], config=config))
        try:
            server.run_until_idle(timeout=240)
        finally:
            server.stop()

        result = server.result(record.id)
        assert server.job(record.id).state is JobState.DONE
        assert result["verdict"] == ("pass" if direct.ok else "fail")
        assert (result["executions"], result["transitions"],
                result["complete"],
                result["first_violation_execution"]) == \
            totals(direct.exploration)
        # A found counterexample ships as a replayable repro artifact.
        if direct.violation is not None:
            assert result["counterexample_schedule"] == \
                direct.violation.schedule
            replayed = load_and_replay(server.store.repro_path(record.id),
                                       work_stealing_queue(1, 1, 1),
                                       fair_policy())
            assert replayed.outcome is direct.violation.outcome


class TestRestartMidJob:
    """Kill the server between quanta; a fresh one must finish the job
    with totals identical to a never-interrupted direct run."""

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "icb"])
    def test_restart_preserves_totals(self, strategy, tmp_path):
        config = {"strategy": strategy}
        direct = run_direct(dining_philosophers(2), config)

        data_dir = tmp_path / "svc"
        first = CheckServer(data_dir, fleet=1, quantum_executions=5)
        record = first.submit(JobSpec(
            program="repro.workloads.dining:dining_philosophers",
            factory_args=["2"], config=config))
        # Let it make partial progress, then kill it mid-job.
        first.start()
        deadline_progress = False
        import time
        for _ in range(200):
            time.sleep(0.05)
            snapshot = first.job(record.id)
            if snapshot.executions > 0:
                deadline_progress = True
                break
        first.stop()
        assert deadline_progress, "job never started before shutdown"

        durable = first.store.load(record.id)
        if durable.state.terminal:
            pytest.skip("search finished before the kill; nothing to "
                        "resume (timing)")
        assert durable.state in (JobState.QUEUED, JobState.RUNNING)

        second = CheckServer(data_dir, fleet=1, quantum_executions=5)
        try:
            second.run_until_idle(timeout=120)
        finally:
            second.stop()

        result = second.result(record.id)
        assert second.job(record.id).state is JobState.DONE
        assert (result["executions"], result["transitions"],
                result["complete"],
                result["first_violation_execution"]) == \
            totals(direct.exploration)
        assert result["verdict"] == ("pass" if direct.ok else "fail")
        # The resumed server must not leak the checkpoint afterwards.
        assert not second.store.checkpoint_path(record.id).exists()
        assert second.store.stale_checkpoints() == []

    def test_restart_completes_queued_cancel(self, tmp_path):
        """A cancel that lands just before a crash finalizes on reboot."""
        data_dir = tmp_path / "svc"
        first = CheckServer(data_dir, fleet=1, quantum_executions=5)
        record = first.submit(JobSpec(
            program="repro.workloads.dining:dining_philosophers",
            factory_args=["2"], config={"strategy": "dfs"}))
        # Simulate "cancel recorded, server died before finalizing":
        # flip the durable flag without running the cancel path.
        durable = first.store.load(record.id)
        durable.cancel_requested = True
        first.store.save(durable)
        first.scheduler.close()  # never started; just drop it

        second = CheckServer(data_dir, fleet=1, quantum_executions=5)
        second.stop()
        final = second.store.load(record.id)
        assert final.state is JobState.CANCELLED
