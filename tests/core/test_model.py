"""Abstract model interface tests."""

import pickle

import pytest

from repro.core.model import Program, ProgramInstance, RunStatus, StepInfo
from repro.core.policies import NonfairPolicy
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import Decision
from repro.runtime.api import choose
from repro.runtime.program import VMProgram
from repro.workloads.dining import dining_philosophers


def _vm_step_info() -> StepInfo:
    """A StepInfo as the VM builds it (``tuple.__new__``)."""
    vm = dining_philosophers(2).instantiate()
    return vm.step(min(vm.enabled_threads()))


def _executor_decisions():
    """A thread and a data Decision as the executor builds them."""
    def setup(env):
        def body():
            yield from choose(2)

        env.spawn(body, name="chooser")

    record = run_execution(VMProgram(setup, name="choose"), NonfairPolicy(),
                           GuidedChooser([0, 0, 1]), ExecutorConfig())
    by_kind = {decision.kind: decision for decision in record.decisions}
    return [by_kind["thread"], by_kind["data"]]


#: One of each per-transition record the engine builds, by keyword and as
#: the hot path builds them.
RECORDS = [
    StepInfo(tid=1, enabled_before=frozenset(), enabled_after=frozenset(),
             yielded=True),
    Decision("thread", 1, 2, "t"),
    StepInfo(tid=0, thread_name="a", operation="op", yielded=False,
             enabled_before=frozenset({0, 1}), enabled_after=frozenset()),
    _vm_step_info(),
    *_executor_decisions(),
]


class TestStepInfo:
    def test_defaults(self):
        info = StepInfo(tid=1, enabled_before=frozenset({1}),
                        enabled_after=frozenset(), yielded=False)
        assert info.spawned == ()
        assert info.operation == ""
        assert info.thread_name == ""

    def test_hot_path_records_are_whole(self):
        # tuple.__new__ checks no arity: each record must carry every
        # field of its type, named as a keyword-built one would be.
        vm_info, thread, data = RECORDS[3:]
        for record in RECORDS:
            assert len(record) == len(type(record)._fields)
        assert vm_info.thread_name == "Phil1"
        assert vm_info.operation == "start"
        assert vm_info == StepInfo(**vm_info._asdict())
        assert (thread.kind, data.kind) == ("thread", "data")
        assert data == Decision("data", 1, 2, 1)
        assert thread._replace(index=1).index == 1

    def test_frozen(self):
        for record in RECORDS:
            with pytest.raises(Exception):
                setattr(record, type(record)._fields[0], 2)

    def test_pickle_round_trip(self):
        # A record must survive pickling to cross a process boundary.
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
