"""Differential harness: a parallel search must equal the serial one.

docs/parallel.md promises that for *counted* sweeps (no early-stop
limits) the merged totals of a parallel run are byte-identical to a
serial run's, independent of the worker count, and that with early
stopping the *verdict* (and the replayability of the counterexample)
is preserved.  This suite checks those promises differentially for
every strategy at workers 1, 2, and 4 on three workloads of the paper's
evaluation (dining philosophers, bounded buffer, work-stealing queue).

Sleep-set POR and source-DPOR refuse a preemption bound (they are not
sound under one), so their rows run without it.  Unbounded, the wsq tree
is enormous; the wsq rows therefore skip ``por`` and ``dpor`` (a serial
limitation, not a parallel one).
"""

import pytest

from repro.checker import Checker
from repro.engine.persistence import load_and_replay, save_schedule
from repro.engine.results import Outcome
from repro.workloads.boundedbuffer import bounded_buffer_program
from repro.workloads.dining import dining_philosophers
from repro.workloads.wsq import work_stealing_queue

WORKERS = [1, 2, 4]

#: (workload id, factory, checker kwargs) — small enough that the full
#: bounded tree is explored in well under a second per strategy.
WORKLOADS = {
    "dining": (lambda: dining_philosophers(2), dict(depth_bound=300)),
    "boundedbuffer": (lambda: bounded_buffer_program(items=1, consumers=1),
                      dict(depth_bound=400, preemption_bound=1)),
    "wsq": (lambda: work_stealing_queue(items=1, stealers=1, bug=1),
            dict(depth_bound=400, preemption_bound=1)),
}

#: Counted-sweep matrix: every strategy on every workload, except the
#: prohibitively slow por/dpor x wsq pairings (see module docstring).
COUNTED = [
    (workload, strategy)
    for workload in WORKLOADS
    for strategy in ("dfs", "bfs", "por", "icb", "random", "dpor")
    if not (workload == "wsq" and strategy in ("por", "bfs", "dpor"))
]


def run_counted(workload, strategy, workers):
    factory, kwargs = WORKLOADS[workload]
    if strategy in ("por", "dpor"):
        kwargs = {k: v for k, v in kwargs.items() if k != "preemption_bound"}
    return Checker(
        factory(), strategy=strategy, workers=workers,
        stop_on_first_violation=False, stop_on_first_divergence=False,
        random_executions=60, seed=7, **kwargs,
    ).run()


def totals(result):
    e = result.exploration
    return {
        "executions": e.executions,
        "transitions": e.transitions,
        "outcomes": {o.value: n for o, n in e.outcomes.items() if n},
        "complete": e.complete,
        "stop_reason": e.stop_reason,
        "nonterminating": e.nonterminating_executions,
        "first_violation": e.first_violation_execution,
    }


@pytest.mark.parametrize("workload,strategy", COUNTED)
def test_counted_sweep_totals_are_worker_count_independent(workload,
                                                           strategy):
    reference = totals(run_counted(workload, strategy, workers=1))
    for workers in WORKERS[1:]:
        assert totals(run_counted(workload, strategy, workers)) == \
            reference, f"{workload}/{strategy} diverged at workers={workers}"


@pytest.mark.parametrize("strategy", ["dfs", "icb", "random"])
@pytest.mark.parametrize("workers", WORKERS[1:])
def test_violation_verdict_matches_serial(strategy, workers):
    factory, kwargs = WORKLOADS["wsq"]
    serial = Checker(factory(), strategy=strategy, random_executions=300,
                     seed=3, **kwargs).run()
    parallel = Checker(factory(), strategy=strategy, random_executions=300,
                       seed=3, workers=workers, **kwargs).run()
    assert not serial.ok
    assert parallel.ok == serial.ok
    record = parallel.violation
    assert record is not None
    assert record.trace, "merged counterexample must carry a trace"
    # The winning schedule replays to the same outcome under the serial
    # replayer — the counterexample is real, not a merge artifact.
    replayed = Checker(factory(), strategy=strategy, **kwargs).replay(record)
    assert replayed.outcome in (Outcome.VIOLATION, Outcome.DEADLOCK)


@pytest.mark.parametrize("workload", ["dining", "boundedbuffer"])
def test_state_coverage_matches_serial(workload):
    factory, kwargs = WORKLOADS[workload]

    def covered(workers):
        result = Checker(factory(), strategy="dfs", workers=workers,
                         collect_coverage=True,
                         stop_on_first_violation=False,
                         stop_on_first_divergence=False, **kwargs).run()
        return result.exploration.states_covered

    reference = covered(1)
    assert reference and reference > 0
    assert covered(4) == reference


def test_parallel_repro_file_replays_serially(tmp_path):
    factory, kwargs = WORKLOADS["wsq"]
    parallel = Checker(factory(), strategy="dfs", workers=4, **kwargs).run()
    record = parallel.violation
    assert record is not None

    checker = Checker(factory(), **kwargs)
    path = save_schedule(tmp_path / "wsq.repro", factory(), record,
                         policy_name=checker.policy_factory().name,
                         config=checker.config)
    replayed = load_and_replay(path, factory(), checker.policy_factory,
                               checker.config)
    assert replayed.outcome in (Outcome.VIOLATION, Outcome.DEADLOCK)
    assert replayed.schedule == record.schedule


def test_deadlock_verdict_matches_serial():
    # Deadlocks (a violation class of their own) also merge first-wins.
    from repro.workloads.dining import dining_philosophers_livelock

    serial = Checker(dining_philosophers_livelock(2), depth_bound=300).run()
    parallel = Checker(dining_philosophers_livelock(2), depth_bound=300,
                       workers=2).run()
    assert parallel.ok == serial.ok
    if serial.violation is not None:
        assert parallel.violation is not None
