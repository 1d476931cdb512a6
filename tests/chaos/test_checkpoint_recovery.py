"""Checkpoint rotation, corrupt-file recovery, and ENOSPC degradation."""

import pytest

from repro.chaos.faults import FaultPlan, FaultRule, fault_plan
from repro.checker import Checker
from repro.obs import Observer
from repro.resilience import ResilienceController, ResilienceOptions
from repro.resilience.checkpoint import CheckpointStore
from repro.workloads.dining import dining_philosophers


def payload(n=1):
    return {"program": "p", "strategy": "dfs",
            "state": {"strategy": "dfs", "frontier": {"n": n}}}


class TestRotation:
    def test_second_save_rotates_first_to_prev(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload(1))
        store.save(payload(2))
        assert store.load()["state"]["frontier"] == {"n": 2}
        prev = CheckpointStore._validate(tmp_path / "s.ckpt.prev")
        assert prev["state"]["frontier"] == {"n": 1}

    def test_first_save_has_no_prev(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload())
        assert not (tmp_path / "s.ckpt.prev").exists()

    def test_delete_removes_all_rotation_siblings(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload(1))
        store.save(payload(2))
        (tmp_path / "s.ckpt.corrupt").write_text("junk")
        store.delete()
        assert list(tmp_path.iterdir()) == []


class TestLoadOrRecover:
    def test_clean_load_is_not_a_recovery(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload(1))
        loaded, recovered, quarantined = store.load_or_recover()
        assert loaded["state"]["frontier"] == {"n": 1}
        assert not recovered
        assert quarantined is None

    def test_corrupt_primary_recovers_from_prev(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload(1))
        store.save(payload(2))
        (tmp_path / "s.ckpt").write_text("{torn")
        loaded, recovered, quarantined = store.load_or_recover()
        assert loaded["state"]["frontier"] == {"n": 1}
        assert recovered
        # The bad file is preserved for forensics, out of the way.
        assert quarantined == tmp_path / "s.ckpt.corrupt"
        assert quarantined.read_text() == "{torn"
        # The store healed itself: a plain load now works.
        assert store.load()["state"]["frontier"] == {"n": 1}

    def test_missing_primary_recovers_from_prev(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload(1))
        store.save(payload(2))
        (tmp_path / "s.ckpt").unlink()
        loaded, recovered, quarantined = store.load_or_recover()
        assert loaded["state"]["frontier"] == {"n": 1}
        assert recovered
        assert quarantined is None  # nothing to quarantine

    def test_both_corrupt_reraises_the_primary_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        store.save(payload(1))
        store.save(payload(2))
        (tmp_path / "s.ckpt").write_text("{torn")
        (tmp_path / "s.ckpt.prev").write_text("{also torn")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            store.load_or_recover()

    def test_nothing_on_disk_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        with pytest.raises(ValueError, match="does not exist"):
            store.load_or_recover()

    def test_recoverable_checks_both_generations(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.ckpt")
        assert not store.recoverable()
        store.save(payload(1))
        store.save(payload(2))
        assert store.recoverable()
        (tmp_path / "s.ckpt").unlink()
        assert store.recoverable()  # .prev alone is enough


class TestCheckerResumeRecovery:
    def _run(self, tmp_path, **kwargs):
        return Checker(dining_philosophers(2), depth_bound=60,
                       checkpoint_path=str(tmp_path / "s.ckpt"),
                       checkpoint_interval=1, handle_signals=False,
                       **kwargs)

    def test_resume_from_corrupt_checkpoint_warns_and_recovers(
            self, tmp_path):
        baseline = self._run(tmp_path).run()
        ckpt = tmp_path / "s.ckpt"
        ckpt.write_text(ckpt.read_text()[:40])  # tear the final save
        observer = Observer()
        resumed = self._run(tmp_path, observer=observer).run(
            resume_from=str(ckpt))
        assert any("quarantined" in w for w in resumed.warnings)
        assert observer.metrics.counter("checkpoints.recovered").value == 1
        assert (resumed.exploration.executions
                == baseline.exploration.executions)
        assert (resumed.exploration.transitions
                == baseline.exploration.transitions)

    def test_resume_at_limit_does_not_overshoot(self, tmp_path):
        first = self._run(tmp_path, max_executions=5).run()
        assert first.exploration.executions == 5
        resumed = self._run(tmp_path, max_executions=5).run(
            resume_from=str(tmp_path / "s.ckpt"))
        # The final checkpoint already sits at the cap; resuming it must
        # not run a 6th execution.
        assert resumed.exploration.executions == 5
        assert resumed.exploration.stop_reason == "max-executions"


class TestEnospcDegradation:
    def test_flush_failure_degrades_not_dies(self, tmp_path):
        observer = Observer()
        controller = ResilienceController(
            ResilienceOptions(checkpoint_path=str(tmp_path / "s.ckpt"),
                              checkpoint_interval=1,
                              handle_signals=False),
            observer=observer)

        class FakeStrategy:
            name = "dfs"

            def state_dict(self):
                return {"strategy": "dfs", "frontier": {}}

        plan = FaultPlan(rules=[FaultRule(point="checkpoint.write",
                                          kind="enospc", times=10**9)])
        with fault_plan(plan):
            saved = controller.flush_checkpoint(FakeStrategy())
        assert saved is None
        assert controller.checkpoint_write_failures == 1
        assert "ENOSPC" in controller.last_checkpoint_error or \
            "No space" in controller.last_checkpoint_error
        counter = observer.metrics.counter("checkpoints.write_failed")
        assert counter.value == 1
        assert not (tmp_path / "s.ckpt").exists()

    def test_search_survives_full_disk_checkpointing(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(point="checkpoint.write",
                                          kind="enospc", times=10**9)])
        checker = Checker(dining_philosophers(2), depth_bound=60,
                          checkpoint_path=str(tmp_path / "s.ckpt"),
                          checkpoint_interval=1, handle_signals=False)
        with fault_plan(plan):
            result = checker.run()
        assert result.ok  # verdict delivered despite zero checkpoints
        assert not (tmp_path / "s.ckpt").exists()
