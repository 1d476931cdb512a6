"""Every strategy honours the whole program contract, or refuses.

A matrix of strategies × program-contract features.  Each cell must
report the same first failing property as ``dfs`` does on the same input
— or raise an explicit refusal naming the strategy and the feature it
cannot honour.  All strategies share one execution loop
(``run_execution``), so a feature the loop supports reaches every
strategy; this suite guards that it stays that way.
"""

import time

import pytest

from repro.checker import Checker
from repro.cli import main
from repro.engine.liveness import EventuallyMonitor
from repro.engine.monitors import invariant
from repro.engine.results import DivergenceKind
from repro.runtime.api import check, choose, yield_now
from repro.runtime.errors import UnsupportedConfiguration
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar
from repro.workloads.dining import dining_philosophers_livelock
from repro.workloads.wsq import work_stealing_queue

STRATEGIES = ["dfs", "bfs", "random", "icb", "por", "dpor"]


def lost_update():
    """Two non-atomic increments, guarded only by an ``env.add_monitor``
    invariant that sees the lost update (it needs one preemption)."""

    def setup(env):
        x = SharedVar(0, name="x")
        finished = []

        def bump():
            value = yield from x.get()
            yield from x.set(value + 1)
            finished.append(True)

        env.spawn(bump, name="a")
        env.spawn(bump, name="b")
        env.add_monitor(invariant(lambda: x.peek() == len(finished),
                                  "an increment was lost"))

    return VMProgram(setup, name="lost-update")


def stuck_boot():
    """Diverges before ever reaching its goal state."""

    def setup(env):
        booted = SharedVar(False, name="booted")

        def spinner():
            while not (yield from booted.get()):
                yield from yield_now()

        env.spawn(spinner, name="spinner")
        env.add_temporal_monitor(EventuallyMonitor(
            goal=lambda: bool(booted.peek()), name="boots"))

    return VMProgram(setup, name="stuck-boot")


def chooser():
    def setup(env):
        def picker():
            value = yield from choose(3)
            check(value != 2, "picked 2")

        env.spawn(picker, name="picker")

    return VMProgram(setup, name="choose(3)")


def slow():
    """Each transition takes a millisecond: any budget below that aborts."""

    def setup(env):
        def sleeper():
            for _ in range(3):
                time.sleep(0.001)
                yield from yield_now()

        env.spawn(sleeper, name="sleeper")

    return VMProgram(setup, name="slow")


def crasher():
    def setup(env):
        def crash():
            yield from yield_now()
            raise RuntimeError("boom")

        env.spawn(crash, name="crash")

    return VMProgram(setup, name="crasher")


def racy():
    """The reader sees the intermediate value only if the writer is
    preempted between its two writes."""

    def setup(env):
        x = SharedVar(0, name="x")

        def writer():
            yield from x.set(1)
            yield from x.set(2)

        def reader():
            value = yield from x.get()
            check(value != 1, "saw intermediate")

        env.spawn(writer, name="w")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="racy")


#: feature -> (program factory, Checker kwargs, expected first failure).
FEATURES = {
    "invariant": (lost_update, {}, "invariant violated: an increment was lost"),
    "temporal": (stuck_boot, dict(depth_bound=60), "TEMPORAL"),
    "choose": (chooser, {}, "picked 2"),
    "budget": (slow, dict(execution_budget_seconds=0.0005), "ABORTED"),
    "crash": (crasher, dict(max_crashes=1), "CRASHED"),
}

#: What each strategy cannot honour, and refuses.
REFUSED = {("dpor", "choose"): "choose()"}


def run(strategy, program, **kwargs):
    return Checker(program, strategy=strategy, handle_signals=False,
                   random_executions=50, seed=1, **kwargs).run()


def first_failure(result):
    """The first failing property a search reports."""
    exploration = result.exploration
    if result.violation is not None:
        return str(result.violation.violation)
    if result.crashed is not None:
        return "CRASHED"
    if result.divergence is not None:
        return result.divergence.divergence.kind.name
    if exploration.aborted_executions:
        return "ABORTED"
    return "PASS"


@pytest.fixture(scope="module")
def dfs_failures():
    return {feature: first_failure(run("dfs", factory(), **kwargs))
            for feature, (factory, kwargs, _) in FEATURES.items()}


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_first_failure_matches_dfs(strategy, feature, dfs_failures):
    factory, kwargs, expected = FEATURES[feature]
    assert dfs_failures[feature] == expected
    refused = REFUSED.get((strategy, feature))
    if refused is not None:
        with pytest.raises(UnsupportedConfiguration) as excinfo:
            run(strategy, factory(), **kwargs)
        assert strategy in str(excinfo.value)
        assert refused in str(excinfo.value)
        return
    assert first_failure(run(strategy, factory(), **kwargs)) == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_preemption_bound_is_honoured_or_refused(strategy):
    with pytest.raises(ValueError, match="preemption bound"):
        run(strategy, racy(), preemption_bound=-1)
    if strategy in ("por", "dpor"):
        with pytest.raises(UnsupportedConfiguration) as excinfo:
            run(strategy, racy(), preemption_bound=0)
        assert strategy in str(excinfo.value)
        assert "preemption_bound" in str(excinfo.value)
        return
    # The bug needs one preemption: unbounded it is found, bound 0 hides it.
    assert first_failure(run(strategy, racy())) == "saw intermediate"
    assert first_failure(run(strategy, racy(), preemption_bound=0)) == "PASS"


@pytest.mark.parametrize("strategy", ["por", "dpor"])
def test_reducers_report_the_wsq_invariant_like_dfs(strategy):
    # icb and random reach this workload's end-of-run audit first (their
    # search order finds a stale empty-slot steal before the double
    # consumption), which is why the matrix row uses an invariant-only
    # program; the DFS-ordered reducers must agree with dfs here.
    def first(name):
        return first_failure(run(
            name, work_stealing_queue(items=3, stealers=1, bug=2),
            depth_bound=200))

    assert first("dfs") == "invariant violated: an item was consumed twice"
    assert first(strategy) == first("dfs")


def test_demo_preemption_bound_is_refused_by_the_cli(capsys):
    # The demo sets its preemption bound after building the checker.
    assert main(["demo", "wsq", "--strategy", "por",
                 "--depth-bound", "100"]) == 2
    assert "preemption_bound" in capsys.readouterr().err


def test_fair_por_reports_the_livelock():
    result = run("por", dining_philosophers_livelock(2), depth_bound=400,
                 max_executions=3000)
    assert result.livelock is not None
    assert result.livelock.divergence.kind is DivergenceKind.LIVELOCK
