"""Abstract model interface tests."""

import pickle

import pytest

from repro.core.model import Program, ProgramInstance, RunStatus, StepInfo
from repro.engine.results import Decision, TraceStep

#: One of each per-transition record the engine builds.
RECORDS = [
    StepInfo(tid=1, enabled_before=frozenset(), enabled_after=frozenset(),
             yielded=True),
    Decision("thread", 1, 2, "t"),
    TraceStep(tid=0, thread_name="a", operation="op", yielded=False,
              enabled_before=frozenset({0, 1})),
]


class TestStepInfo:
    def test_defaults(self):
        info = StepInfo(tid=1, enabled_before=frozenset({1}),
                        enabled_after=frozenset(), yielded=False)
        assert info.spawned == ()
        assert info.operation == ""

    def test_frozen(self):
        for record in RECORDS:
            with pytest.raises(Exception):
                setattr(record, type(record)._fields[0], 2)

    def test_pickle_round_trip(self):
        # Parallel workers send records between processes by pickling.
        for record in RECORDS:
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record
            assert type(copy) is type(record)
            assert repr(copy) == repr(record)


class TestStatusDerivation:
    class FakeInstance(ProgramInstance):
        def __init__(self, enabled, live):
            self._enabled = frozenset(enabled)
            self._live = live

        def thread_ids(self):
            return frozenset({0})

        def enabled_threads(self):
            return self._enabled

        def is_yielding(self, tid):
            return False

        def step(self, tid):
            raise NotImplementedError

        def has_live_threads(self):
            return self._live

    def test_running(self):
        assert self.FakeInstance({0}, True).status() is RunStatus.RUNNING

    def test_terminated(self):
        assert self.FakeInstance((), False).status() is RunStatus.TERMINATED

    def test_deadlock(self):
        assert self.FakeInstance((), True).status() is RunStatus.DEADLOCK

    def test_default_signature_is_none(self):
        assert self.FakeInstance((), False).state_signature() is None


class TestAbstractness:
    def test_program_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Program()

    def test_instance_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ProgramInstance()
