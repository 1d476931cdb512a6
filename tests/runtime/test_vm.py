"""Virtual machine tests: predicates, transitions, spawning, signatures."""

import random

import pytest

from repro.core.model import RunStatus
from repro.engine.results import Decision
from repro.runtime.api import pause, spawn, yield_now
from repro.runtime.errors import PropertyViolation, ScheduleError
from repro.runtime.vm import VirtualMachine
from repro.sync.mutex import Mutex
from repro.workloads.boundedbuffer import bounded_buffer_program
from repro.workloads.dining import dining_philosophers
from repro.workloads.promise import promise_program
from repro.workloads.wsq import work_stealing_queue


def drain(vm, order=None, limit=200):
    """Run the VM scheduling the lowest enabled tid (or a given order)."""
    steps = 0
    schedule = list(order or [])
    while vm.enabled_threads() and steps < limit:
        if schedule:
            tid = schedule.pop(0)
        else:
            tid = min(vm.enabled_threads())
        vm.step(tid)
        steps += 1
    return steps


class TestBasics:
    def test_spawn_assigns_increasing_tids(self):
        vm = VirtualMachine()

        def body():
            yield from pause()

        first = vm.spawn_task(body, name="a")
        second = vm.spawn_task(body, name="b")
        assert (first.tid, second.tid) == (0, 1)
        assert vm.thread_ids() == frozenset({0, 1})

    def test_default_name_includes_function(self):
        vm = VirtualMachine()

        def my_worker():
            yield from pause()

        task = vm.spawn_task(my_worker)
        assert "my_worker" in task.name

    def test_non_generator_rejected(self):
        vm = VirtualMachine()
        with pytest.raises(TypeError):
            vm.spawn_task(lambda: 42)

    def test_step_disabled_thread_rejected(self):
        vm = VirtualMachine()
        lock = Mutex()

        def holder():
            yield from lock.acquire()
            yield from pause()
            yield from lock.release()

        def waiter():
            yield from lock.acquire()
            yield from lock.release()

        vm.spawn_task(holder, name="holder")
        vm.spawn_task(waiter, name="waiter")
        vm.step(0)  # start
        vm.step(0)  # acquire
        vm.step(1)  # start waiter -> now blocked on acquire
        assert vm.enabled_threads() == frozenset({0})
        with pytest.raises(ScheduleError):
            vm.step(1)
        with pytest.raises(ScheduleError):
            vm.step(99)

    def test_status_terminated(self):
        vm = VirtualMachine()

        def body():
            yield from pause()

        vm.spawn_task(body)
        drain(vm)
        assert vm.status() is RunStatus.TERMINATED
        assert not vm.has_live_threads()

    def test_status_deadlock(self):
        vm = VirtualMachine()
        lock = Mutex()

        def body():
            yield from lock.acquire()
            yield from lock.acquire()  # self-deadlock (non-reentrant)

        vm.spawn_task(body)
        drain(vm)
        assert vm.status() is RunStatus.DEADLOCK
        assert vm.has_live_threads()


class TestStepInfo:
    def test_yield_flag_reported(self):
        vm = VirtualMachine()

        def body():
            yield from yield_now()

        vm.spawn_task(body)
        start_info = vm.step(0)
        assert not start_info.yielded
        yield_info = vm.step(0)
        assert yield_info.yielded
        assert yield_info.operation == "yield"

    def test_enabled_sets_track_blocking(self):
        vm = VirtualMachine()
        lock = Mutex(name="L")

        def holder():
            yield from lock.acquire()
            yield from pause()
            yield from lock.release()

        def waiter():
            yield from lock.acquire()
            yield from lock.release()

        vm.spawn_task(holder, name="h")
        vm.spawn_task(waiter, name="w")
        vm.step(0)
        vm.step(1)  # both started; both pending acquire
        info = vm.step(0)  # holder acquires: waiter becomes disabled
        assert info.enabled_before == frozenset({0, 1})
        assert info.enabled_after == frozenset({0})

    def test_spawned_threads_reported(self):
        vm = VirtualMachine()

        def child():
            yield from pause()

        def parent():
            yield from spawn(child, name="kid")

        vm.spawn_task(parent, name="parent")
        vm.step(0)
        info = vm.step(0)  # executes the spawn
        assert len(info.spawned) == 1
        assert vm.task(info.spawned[0]).name == "kid"


class TestSignatures:
    def test_default_signature_changes_with_progress(self):
        vm = VirtualMachine()

        def body():
            yield from pause()
            yield from pause()

        vm.spawn_task(body)
        sig0 = vm.state_signature()
        vm.step(0)
        sig1 = vm.state_signature()
        assert sig0 != sig1

    def test_manual_state_fn_used(self):
        vm = VirtualMachine()
        cell = {"x": 0}
        vm.set_state_fn(lambda: cell["x"])
        assert vm.state_signature() == 0
        cell["x"] = 5
        assert vm.state_signature() == 5

    def test_precise_signature_distinguishes_pendings(self):
        vm = VirtualMachine()
        vm.set_state_fn(lambda: "constant")

        def body():
            yield from pause("p1")
            yield from pause("p2")

        vm.spawn_task(body)
        before = vm.precise_signature()
        vm.step(0)
        after = vm.precise_signature()
        assert vm.state_signature() == vm.state_signature()
        assert before != after


class TestDataChoices:
    def test_choose_without_handler_fails(self):
        from repro.runtime.api import choose

        vm = VirtualMachine()

        def body():
            value = yield from choose(3)
            return value

        vm.spawn_task(body)
        vm.step(0)
        with pytest.raises(ScheduleError):
            vm.step(0)

    def test_choose_with_handler(self):
        from repro.runtime.api import choose

        vm = VirtualMachine()
        vm.data_choice_handler = lambda n: n - 1
        results = []

        def body():
            value = yield from choose(4)
            results.append(value)

        vm.spawn_task(body)
        drain(vm)
        assert results == [3]

    def test_out_of_range_handler_detected(self):
        from repro.runtime.api import choose

        vm = VirtualMachine()
        vm.data_choice_handler = lambda n: n  # off by one

        def body():
            yield from choose(2)

        vm.spawn_task(body)
        vm.step(0)
        with pytest.raises(ScheduleError):
            vm.step(0)


def fresh_enabled(vm):
    """ES recomputed from the predicates, bypassing the VM's cache."""
    return frozenset(t for t in vm.thread_ids() if vm.is_enabled(t))


def random_run(program, seed, limit=300):
    """Step a fresh instance under a seeded random schedule, checking the
    enabled sets ``step`` reports against fresh recomputations.

    Returns the decision log of the steps that completed cleanly (what
    ``fast_forward`` replays) and their ``StepInfo`` records.
    """
    rng = random.Random(seed)
    vm = program.instantiate()
    decisions = []

    def data_choice(n):
        value = rng.randrange(n)
        decisions.append(Decision("data", value, n, value))
        return value

    vm.data_choice_handler = data_choice
    infos = []
    clean = 0
    before = fresh_enabled(vm)
    while before and len(infos) < limit:
        options = sorted(before)
        index = rng.randrange(len(options))
        tid = options[index]
        decisions.append(Decision("thread", index, len(options), tid))
        try:
            info = vm.step(tid)
            for monitor in vm.monitors:
                monitor()
        except PropertyViolation:
            break  # a buggy schedule ends the run, as in the engine
        assert info.enabled_before == before
        if infos:
            assert info.enabled_before == infos[-1].enabled_after
        before = fresh_enabled(vm)
        assert info.enabled_after == before
        assert vm.enabled_threads() == before
        infos.append(info)
        clean = len(decisions)
    return decisions[:clean], infos


class TestLeanStep:
    """``step(tid, record=False)`` tests only ``tid``'s enabledness, but
    refuses the same threads, with the same errors, as a recorded step."""

    @staticmethod
    def refusal(vm, tid, record):
        with pytest.raises(ScheduleError) as caught:
            vm.step(tid, record=record)
        return str(caught.value)

    def test_unknown_and_disabled_threads_raise_the_same_error(self):
        vm = VirtualMachine()
        lock = Mutex()

        def holder():
            yield from lock.acquire()
            yield from pause()

        def waiter():
            yield from lock.acquire()

        vm.spawn_task(holder, name="holder")
        vm.spawn_task(waiter, name="waiter")
        for tid in (0, 0, 1):  # start, acquire, start the waiter
            vm.step(tid, record=False)
        assert vm.enabled_threads() == frozenset({0})
        for tid in (1, 7):  # blocked on the lock; no such thread
            assert (self.refusal(vm, tid, record=False)
                    == self.refusal(vm, tid, record=True))
        vm.step(0, record=False)  # pause: the holder ends, lock held
        assert vm.enabled_threads() == frozenset()
        assert (self.refusal(vm, 0, record=False)
                == self.refusal(vm, 0, record=True))

    def test_lean_step_leaves_the_enabled_set_to_be_computed(self):
        vm = dining_philosophers(3).instantiate()
        tid = min(vm.enabled_threads())
        vm.step(tid, record=False)
        assert vm._enabled_cache is None
        assert vm.enabled_threads() == fresh_enabled(vm)


class TestOnePassStep:
    """``step`` evaluates each task's enabledness once: ``enabled_before``
    is the cached ES and ``enabled_after`` becomes the next one.  Both
    must equal a fresh recomputation at every step, whether the step is
    driven directly or through ``fast_forward``."""

    @pytest.mark.parametrize("make", [
        lambda: dining_philosophers(3),
        # condition variables and joins
        lambda: bounded_buffer_program(items=2, consumers=2),
        # threads spawned at run time
        lambda: promise_program(2),
        lambda: work_stealing_queue(1, 1, 1),
    ], ids=["dining3", "bbuf-2-2", "promise2", "wsq-1-1-1"])
    def test_enabled_sets_match_recomputation(self, make):
        program = make()
        for seed in range(8):
            decisions, infos = random_run(program, seed)
            assert infos, "the schedule took no step"

            vm = program.instantiate()
            seen = []

            def per_step(live):
                assert live.enabled_threads() == fresh_enabled(live)
                seen.append(live.enabled_threads())

            assert vm.fast_forward(decisions, per_step=per_step) == len(infos)
            assert seen == [info.enabled_after for info in infos]
