"""Differential suite: snapshot cache on == snapshot cache off.

The prefix-snapshot cache is a pure performance optimization — for every
strategy and every snapshot interval, a cached search must report exactly
the totals, decisions, verdicts, coverage and kept reports (schedules,
traces, divergence classifications) of an uncached one.  These tests run
the same checker configuration twice (cache off, cache on) and compare
everything observable.
"""

import pytest

from repro.chaos.faults import FaultPlan, FaultRule, fault_plan
from repro.checker import Checker
from repro.engine.strategies import STRATEGIES as STRATEGY_TABLE
from repro.obs import Observer
from repro.runtime.native import NativeMutex, NativeProgram, NativeSharedVar
from repro.workloads.boundedbuffer import bounded_buffer_program
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.wsq import work_stealing_queue

STRATEGIES = ["dfs", "bfs", "por", "icb", "random"]
INTERVALS = [1, 4, 16]


def native_counter_program():
    """A small native-thread workload (two locked increments + a reader)."""
    def setup(env):
        lock = NativeMutex(name="L")
        counter = NativeSharedVar(0, name="n")

        def worker():
            lock.acquire()
            value = counter.get()
            counter.set(value + 1)
            lock.release()

        for i in range(2):
            env.spawn(worker, name=f"w{i}")

        def reader():
            counter.get()

        env.spawn(reader, name="r")
        env.set_state_fn(lambda: (counter.peek(), lock.owner_name()))

    return NativeProgram(setup, name="native-counter-diff")


def _report(record):
    """What a kept record shows a user: its schedule, its trace and, for
    a divergence, the classification."""
    divergence = record.divergence
    return (
        record.outcome,
        tuple(d.index for d in record.decisions),
        record.steps,
        record.trace,
        None if divergence is None else (
            divergence.kind, divergence.culprits, divergence.window),
        str(record.violation),
    )


def _run(program_factory, *, strategy="dfs", coverage=False, **kwargs):
    """Run one search; ``kwargs`` go to the :class:`Checker`, the
    snapshot settings included (omitted: the defaults)."""
    observer = Observer()
    checker = Checker(
        program_factory(),
        strategy=strategy,
        observer=observer,
        collect_coverage=coverage,
        stop_on_first_violation=False,
        stop_on_first_divergence=False,
        **kwargs,
    )
    result = checker.run()
    metrics = observer.metrics
    exploration = result.exploration
    fingerprint = {
        "ok": result.ok,
        "executions": exploration.executions,
        "transitions": exploration.transitions,
        "violations": sorted(v.schedule for v in exploration.violations),
        "deadlocks": sorted(d.schedule for d in exploration.deadlocks),
        "divergences": len(exploration.divergences),
        "reports": [_report(record) for kept in (
            exploration.violations, exploration.deadlocks,
            exploration.divergences, exploration.crashes)
            for record in kept],
        "states.new": metrics.counter("states.new").value,
        "states.revisited": metrics.counter("states.revisited").value,
    }
    return fingerprint, metrics


class TestStrategyIntervalMatrix:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_identical_results(self, strategy, interval):
        kwargs = dict(depth_bound=120, max_executions=120)
        if strategy == "random":
            kwargs["random_executions"] = 30
        baseline, _ = _run(
            lambda: dining_philosophers(2), strategy=strategy,
            snapshot_cache=False, snapshot_interval=interval, **kwargs)
        cached, metrics = _run(
            lambda: dining_philosophers(2), strategy=strategy,
            snapshot_cache=True, snapshot_interval=interval, **kwargs)
        assert cached == baseline
        if strategy != "random" and interval == 1:
            # Guided strategies must actually use the cache.  (At larger
            # intervals short reduced executions may never reach a
            # capture point, which is fine — full replay is the
            # documented fallback.)
            assert metrics.counter("snapshot.hits").value > 0


class TestDefaultConfiguration:
    """A checker given no snapshot argument runs with the cache on: it
    must equal ``snapshot_cache=False`` for every strategy, hit in the
    guided ones, and never look up in DPOR or random walk."""

    @pytest.mark.parametrize("strategy", list(STRATEGY_TABLE))
    def test_default_equals_cache_off(self, strategy):
        kwargs = dict(depth_bound=200, max_executions=120)
        if strategy == "bfs":
            # BFS runs guides longer than the default interval only deep
            # in the tree: search the whole of a narrower one.
            kwargs = dict(depth_bound=200, preemption_bound=0)
        if strategy == "random":
            kwargs["random_executions"] = 30
        make = lambda: bounded_buffer_program(items=2, consumers=1)  # noqa: E731
        baseline, _ = _run(make, strategy=strategy, snapshot_cache=False,
                           **kwargs)
        default, metrics = _run(make, strategy=strategy, **kwargs)
        assert default == baseline
        hits = metrics.counter("snapshot.hits").value
        lookups = hits + metrics.counter("snapshot.misses").value
        if strategy in ("dpor", "random"):
            assert lookups == 0
        else:
            assert hits > 0


class TestLivelockReport:
    """Fig 1's livelock at the perfbench depth: the cached search must
    report the same divergences with the same traces, so the restored
    trace tail is part of the comparison."""

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_identical_livelock_reports(self, interval):
        kwargs = dict(depth_bound=400, max_executions=40,
                      snapshot_interval=interval)
        baseline, _ = _run(lambda: dining_philosophers_livelock(2),
                           snapshot_cache=False, **kwargs)
        cached, metrics = _run(lambda: dining_philosophers_livelock(2),
                               snapshot_cache=True, **kwargs)
        assert cached == baseline
        kinds = {report[4][0].value for report in baseline["reports"]}
        assert "livelock" in kinds
        assert all(len(report[3]) > 0 for report in baseline["reports"])
        assert metrics.counter("snapshot.hits").value > 0


class TestWorkloadDifferentials:
    """The two measured workloads, with coverage tracking on, so state
    totals are part of the comparison."""

    @pytest.mark.parametrize("interval", [4])
    def test_bounded_buffer(self, interval):
        kwargs = dict(depth_bound=200, preemption_bound=2,
                      max_executions=250, coverage=True)
        baseline, _ = _run(
            lambda: bounded_buffer_program(items=2, consumers=2),
            snapshot_cache=False, snapshot_interval=interval, **kwargs)
        cached, metrics = _run(
            lambda: bounded_buffer_program(items=2, consumers=2),
            snapshot_cache=True, snapshot_interval=interval, **kwargs)
        assert cached == baseline
        assert metrics.counter("snapshot.hits").value > 0
        restored = metrics.counter("executions.restored_steps").value
        replayed = metrics.counter("executions.replayed_steps").value
        assert restored > replayed  # the cache carries most of the prefix

    @pytest.mark.parametrize("interval", [4])
    def test_work_stealing_queue_with_bug(self, interval):
        kwargs = dict(depth_bound=200, preemption_bound=2,
                      max_executions=250, coverage=True, fairness=False)
        baseline, _ = _run(
            lambda: work_stealing_queue(items=1, stealers=1, bug=1),
            snapshot_cache=False, snapshot_interval=interval, **kwargs)
        cached, metrics = _run(
            lambda: work_stealing_queue(items=1, stealers=1, bug=1),
            snapshot_cache=True, snapshot_interval=interval, **kwargs)
        assert cached == baseline
        assert metrics.counter("snapshot.hits").value > 0


class TestNativeRuntimeDifferentials:
    """The native runtime now advertises ``supports_snapshot`` (restore
    drives fresh OS threads through the recorded decision log), so the
    bit-for-bit guarantee must hold there too — across the same
    strategy × interval matrix as the VM."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_identical_results(self, strategy, interval):
        kwargs = dict(depth_bound=120, max_executions=80)
        if strategy == "random":
            kwargs["random_executions"] = 20
        baseline, _ = _run(
            native_counter_program, strategy=strategy,
            snapshot_cache=False, snapshot_interval=interval, **kwargs)
        cached, metrics = _run(
            native_counter_program, strategy=strategy,
            snapshot_cache=True, snapshot_interval=interval, **kwargs)
        assert cached == baseline
        if strategy != "random" and interval == 1:
            assert metrics.counter("snapshot.hits").value > 0

    def test_native_coverage_totals_match(self):
        kwargs = dict(depth_bound=120, max_executions=80, coverage=True)
        baseline, _ = _run(native_counter_program, snapshot_cache=False,
                           snapshot_interval=4, **kwargs)
        cached, metrics = _run(native_counter_program, snapshot_cache=True,
                               snapshot_interval=4, **kwargs)
        assert cached == baseline
        assert metrics.counter("snapshot.hits").value > 0
        restored = metrics.counter("executions.restored_steps").value
        replayed = metrics.counter("executions.replayed_steps").value
        assert restored > replayed  # the cache carries most of the prefix


class TestRestoreCrashFallback:
    """Chaos plane at the ``snapshot.restore`` fault point: an injected
    restore failure must clear the cache and transparently fall back to
    a full replay, leaving the results bit-for-bit unchanged."""

    @pytest.mark.parametrize("make_program,label", [
        (lambda: dining_philosophers(2), "vm"),
        (native_counter_program, "native"),
    ])
    def test_injected_restore_fault_falls_back(self, make_program, label):
        kwargs = dict(depth_bound=120, max_executions=80)
        baseline, _ = _run(make_program, snapshot_cache=False,
                           snapshot_interval=1, **kwargs)
        # Every restore attempt faults: the cache is cleared on the
        # first hit, repopulates, and faults again on the next lookup.
        plan = FaultPlan(rules=[FaultRule(point="snapshot.restore",
                                          kind="eio", at=1, times=10 ** 9)],
                         name="restore-eio")
        with fault_plan(plan) as injector:
            faulted, metrics = _run(make_program, snapshot_cache=True,
                                    snapshot_interval=1, **kwargs)
        assert faulted == baseline
        assert any(f.point == "snapshot.restore" for f in injector.fired)
        # Nothing was ever restored: every hit fell back to full replay.
        assert metrics.counter("executions.restored_steps").value == 0

    def test_single_restore_fault_recovers(self):
        kwargs = dict(depth_bound=120, max_executions=80)
        baseline, _ = _run(native_counter_program, snapshot_cache=False,
                           snapshot_interval=1, **kwargs)
        plan = FaultPlan(rules=[FaultRule(point="snapshot.restore",
                                          kind="eio", at=1, times=1)],
                         name="restore-eio-once")
        with fault_plan(plan):
            faulted, metrics = _run(native_counter_program,
                                    snapshot_cache=True,
                                    snapshot_interval=1, **kwargs)
        assert faulted == baseline
        # After the one fault the repopulated cache serves hits again.
        assert metrics.counter("executions.restored_steps").value > 0
