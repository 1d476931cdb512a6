"""One record per transition: the runtime's StepInfo is the trace entry.

Reports read the trace, so a counterexample must print the same listing
and the same classification whatever builds the entries.
``trace_reports.json`` pins the ``format_trace`` listing and the
divergence report of two counterexamples: the first violation of the
work-stealing queue and Fig 1's livelock.  Each must come out byte for
byte the same with the snapshot cache on and off, where restored entries
come from an earlier execution's trace.

Every runtime names its threads in its records: the VM and the native
runtime by task name, an explicit transition system by thread id.
"""

import json
import random
from pathlib import Path

import pytest

from repro import Checker, format_trace
from repro.core.policies import FairPolicy
from repro.engine.classify import classify_divergence
from repro.engine.executor import ExecutorConfig, RandomChooser, run_execution
from repro.runtime.native import NativeMutex, NativeProgram, NativeSharedVar
from repro.statespace.adapter import TransitionSystemProgram
from repro.statespace.random_programs import random_system
from repro.statespace.transition_system import figure3_system
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.wsq import work_stealing_queue

GOLDEN = json.loads(Path(__file__).with_name("trace_reports.json")
                    .read_text(encoding="utf-8"))


def as_dict(report):
    return {"kind": report.kind.value, "culprits": list(report.culprits),
            "window": report.window, "detail": report.detail}


@pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
class TestReportsAreByteIdentical:
    def test_violation_report(self, cache):
        result = Checker(work_stealing_queue(3, 1, 2), depth_bound=200,
                         snapshot_cache=cache, handle_signals=False).run()
        record = result.exploration.violations[0]
        golden = GOLDEN["work_stealing_queue(3, 1, 2) depth 200"]
        assert format_trace(record.trace) == golden["trace"]
        assert str(record.violation) == golden["violation"]
        # The faulting step's entry is built by the executor; the
        # classifier reads its name and enabled set like any other.
        assert as_dict(classify_divergence(record.trace)) == \
            golden["classified"]

    def test_livelock_report(self, cache):
        result = Checker(dining_philosophers_livelock(2), depth_bound=400,
                         snapshot_cache=cache, handle_signals=False).run()
        record = result.exploration.divergences[0]
        golden = GOLDEN["dining_philosophers_livelock(2) depth 400"]
        assert format_trace(record.trace) == golden["trace"]
        assert as_dict(record.divergence) == golden["divergence"]


def native_program():
    def setup(env):
        lock = NativeMutex(name="L")
        counter = NativeSharedVar(0, name="n")

        def worker():
            lock.acquire()
            counter.set(counter.get() + 1)
            lock.release()

        for i in range(2):
            env.spawn(worker, name=f"w{i}")

    return NativeProgram(setup, name="native-names")


def trace_names(program):
    record = run_execution(
        program, FairPolicy(), RandomChooser(random.Random(3)),
        ExecutorConfig(depth_bound=30, on_depth_exceeded="prune"))
    return [step.thread_name for step in record.trace]


class TestEveryRuntimeNamesItsThreads:
    def test_vm(self):
        assert trace_names(dining_philosophers(2)) == [
            "Phil1", "Phil1", "Phil2", "Phil1", "Phil1", "Phil2", "Phil1",
            "Phil2", "Phil2", "Phil2"]

    def test_native_threads(self):
        assert trace_names(native_program()) == [
            "w0", "w0", "w1", "w0", "w0", "w0", "w1", "w1", "w1", "w1"]

    def test_transition_system(self):
        assert trace_names(TransitionSystemProgram(figure3_system())) == [
            "t", "u"]
        record = run_execution(
            TransitionSystemProgram(random_system(7)), FairPolicy(),
            RandomChooser(random.Random(3)),
            ExecutorConfig(depth_bound=30, on_depth_exceeded="prune"))
        assert record.trace
        assert all(step.thread_name == str(step.tid)
                   for step in record.trace)
