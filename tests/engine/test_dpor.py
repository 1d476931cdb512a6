"""Unit tests of the source-DPOR strategy mechanics.

The coverage *oracle* tests (test_dpor_coverage.py) prove the reduction
sound; this file exercises the machinery around it: race counters,
checkpoint round-trips, replayability of its records, the declined
snapshot cache, the explicit-transition-system resource path, and the
incremental analysis against a full re-analysis of every execution.
"""

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import DfsStrategy, DporStrategy, ExplorationLimits
from repro.engine.strategies.dpor import (
    DporRun,
    _races,
    _vector_clocks,
    _wakeup_sequence,
)
from repro.obs import Observer
from repro.runtime.program import VMProgram
from repro.statespace import TransitionSystemProgram, random_partitioned_system
from repro.sync.atomics import SharedVar
from repro.sync.mutex import Mutex
from repro.workloads.dining import dining_philosophers

from tests.engine.test_dpor_coverage import independent_program

LIMITS = ExplorationLimits(stop_on_first_violation=False,
                           stop_on_first_divergence=False)


def counter_program():
    def setup(env):
        x = SharedVar(0, name="x")

        def bump():
            value = yield from x.get()
            yield from x.set(value + 1)

        env.spawn(bump, name="a")
        env.spawn(bump, name="b")
        env.set_state_fn(lambda: x.peek())

    return VMProgram(setup, name="counter")


def abba_program():
    def setup(env):
        a, b = Mutex(name="a"), Mutex(name="b")

        def left():
            yield from a.acquire()
            yield from b.acquire()
            yield from b.release()
            yield from a.release()

        def right():
            yield from b.acquire()
            yield from a.acquire()
            yield from a.release()
            yield from b.release()

        env.spawn(left, name="L")
        env.spawn(right, name="R")
        env.set_state_fn(lambda: (a.owner_name(), b.owner_name()))

    return VMProgram(setup, name="abba")


class TestRaceAnalysis:
    """Vector clocks and race detection on hand-written event lists."""

    def test_program_order_is_not_a_race(self):
        tids = ["t", "t"]
        resources = [("x",), ("x",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == []

    def test_adjacent_dependent_pair_races(self):
        tids = ["t", "u"]
        resources = [("x",), ("x",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == [(0, 1)]

    def test_independent_steps_never_race(self):
        tids = ["t", "u"]
        resources = [("x",), ("y",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == []

    def test_transitive_hb_masks_far_race(self):
        # t(x) -> u(x,y) -> v(y): t and v are ordered only through u,
        # so only the adjacent pairs race.
        tids = ["t", "u", "v"]
        resources = [("x",), ("x", "y"), ("y",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == [(0, 1), (1, 2)]

    def test_wakeup_sequence_skips_dependents_of_i(self):
        # race (0, 3); step 1 depends on 0 (same resource) and is not
        # part of notdep(0); independent step 2 is.
        tids = ["t", "u", "v", "w"]
        resources = [("x",), ("x",), ("z",), ("x",)]
        clocks = _vector_clocks(tids, resources)
        idxs, initials = _wakeup_sequence(0, 3, tids, resources, clocks)
        assert idxs == [2, 3]
        assert initials == ["v", "w"]


class TestCounters:
    def run_with_observer(self, program, policy_factory):
        observer = Observer()
        result = DporStrategy(program, policy_factory, depth_bound=500,
                              limits=LIMITS, observer=observer).explore()
        return result, observer.metrics

    def test_races_detected_on_shared_counter(self):
        result, metrics = self.run_with_observer(counter_program(),
                                                 nonfair_policy())
        assert result.complete
        assert metrics.counter("dpor.races_detected").value > 0

    def test_lock_handover_on_abba(self):
        result, metrics = self.run_with_observer(abba_program(),
                                                 nonfair_policy())
        assert result.outcomes[Outcome.DEADLOCK] > 0
        assert metrics.counter("dpor.lock_handovers").value > 0

    def test_fairness_composition_runs_clean(self):
        # Under the fair policy the insertion guards must consult the
        # schedulable set; the search still terminates and finds the
        # deadlock.
        result, metrics = self.run_with_observer(abba_program(),
                                                 fair_policy())
        assert result.complete
        assert result.outcomes[Outcome.DEADLOCK] > 0


class TestCheckpointResume:
    def test_round_trip_matches_uninterrupted_run(self):
        program = dining_philosophers(2)
        baseline = DporStrategy(program, nonfair_policy(), depth_bound=300,
                                limits=LIMITS).explore()
        assert baseline.complete

        first = DporStrategy(
            program, nonfair_policy(), depth_bound=300,
            limits=ExplorationLimits(max_executions=5,
                                     stop_on_first_violation=False,
                                     stop_on_first_divergence=False))
        partial = first.explore()
        assert partial.stop_reason == "max-executions"
        state = first.state_dict()

        second = DporStrategy(program, nonfair_policy(), depth_bound=300,
                              limits=LIMITS)
        second.load_state_dict(state)
        resumed = second.explore()
        assert resumed.complete
        assert resumed.executions == baseline.executions
        assert resumed.transitions == baseline.transitions
        assert dict(resumed.outcomes) == dict(baseline.outcomes)

    def test_rejects_foreign_checkpoint(self):
        program = dining_philosophers(2)
        strategy = DporStrategy(program, nonfair_policy(), depth_bound=300)
        try:
            strategy.load_state_dict({"strategy": "dfs", "frontier": {}})
        except ValueError as exc:
            assert "dfs" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("foreign checkpoint accepted")


class TestCheckerIntegration:
    def test_replay_reproduces_deadlock(self):
        checker = Checker(abba_program(), strategy="dpor", fairness=False)
        result = checker.run()
        assert result.exploration.deadlocks
        record = result.exploration.deadlocks[0]
        replayed = checker.replay(record)
        assert replayed.outcome is Outcome.DEADLOCK
        assert [d.chosen for d in replayed.decisions] == \
            [d.chosen for d in record.decisions]

    def test_snapshot_cache_flag_changes_nothing(self):
        plain = Checker(dining_philosophers(2), strategy="dpor",
                        fairness=False, depth_bound=300).run()
        cached = Checker(dining_philosophers(2), strategy="dpor",
                         fairness=False, depth_bound=300,
                         snapshot_cache=True).run()
        assert plain.exploration.executions == cached.exploration.executions
        assert plain.exploration.transitions == cached.exploration.transitions
        assert dict(plain.exploration.outcomes) == \
            dict(cached.exploration.outcomes)


class TestExplicitSystems:
    def test_partitioned_system_verdicts_match_dfs(self):
        for seed in (0, 1, 2, 3, 4):
            program = TransitionSystemProgram(
                random_partitioned_system(seed))
            dpor = Checker(program, strategy="dpor", fairness=False,
                           depth_bound=200).run()
            dfs = Checker(program, strategy="dfs", fairness=False,
                          depth_bound=200).run()
            assert dpor.ok == dfs.ok
            assert dpor.exploration.executions <= dfs.exploration.executions

    def test_declared_footprints_reduce(self):
        # Across a handful of seeds the honest footprints must buy a
        # strict reduction at least once (they nearly always do).
        reduced = False
        for seed in range(6):
            program = TransitionSystemProgram(
                random_partitioned_system(seed))
            dpor = Checker(program, strategy="dpor", fairness=False,
                           depth_bound=200).run()
            dfs = Checker(program, strategy="dfs", fairness=False,
                          depth_bound=200).run()
            if dpor.exploration.executions < dfs.exploration.executions:
                reduced = True
        assert reduced


class FullAnalysisRun(DporRun):
    """A run that replays no prefix: it settles every sleep set, and the
    analysis recomputes every clock and re-detects every race."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replayed = 0


def explored(program, policy_factory, depth_bound):
    """Every execution's outcome, decision indices and steps, and the
    search's metrics."""
    executions = []
    observer = Observer()
    DporStrategy(program, policy_factory, depth_bound=depth_bound,
                 limits=LIMITS, observer=observer,
                 listener=lambda r: executions.append(
                     (r.outcome, [d.index for d in r.decisions], r.steps)),
                 ).explore()
    return executions, observer.metrics


def explored_whole(monkeypatch, *args):
    """:func:`explored`, re-analysing every execution whole."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.engine.strategies.dpor.DporRun",
                      FullAnalysisRun)
        return explored(*args)


INCREMENTAL_CASES = [
    ("dining(3) nonfair d20", lambda: dining_philosophers(3), nonfair_policy, 20),
    ("dining(3) nonfair d30", lambda: dining_philosophers(3), nonfair_policy, 30),
    ("dining(2) fair d300", lambda: dining_philosophers(2), fair_policy, 300),
    ("abba", abba_program, fair_policy, 300),
    ("independent(3)", lambda: independent_program(3), fair_policy, 300),
] + [
    (f"partitioned({seed})",
     lambda seed=seed: TransitionSystemProgram(random_partitioned_system(seed)),
     nonfair_policy, 200)
    for seed in range(5)
]


class TestIncrementalAnalysis:
    """Keeping the replayed prefix's clocks and sleep sets, and detecting
    only the races past it, explores exactly what re-analysing every
    execution whole explores."""

    @pytest.mark.parametrize("case", INCREMENTAL_CASES, ids=lambda c: c[0])
    def test_explores_like_full_analysis(self, case, monkeypatch):
        _name, make, policy_factory, depth = case
        incremental, _ = explored(make(), policy_factory(), depth)
        full, _ = explored_whole(monkeypatch, make(), policy_factory(), depth)
        assert len(incremental) > 1
        assert incremental == full

    def test_each_race_counts_once(self, monkeypatch):
        # A race inside the replayed prefix was detected, and acted on,
        # when its later step first ran; the full analysis re-detects it
        # and prunes its wakeup again.  Nothing else moves.
        program = dining_philosophers(3)
        _, metrics = explored(program, nonfair_policy(), 20)
        _, full = explored_whole(monkeypatch, program, nonfair_policy(), 20)
        counts = {name: (metrics.counter(name).value, full.counter(name).value)
                  for name in ("dpor.races_detected", "dpor.wakeup_pruned",
                               "backtracks", "dpor.lock_handovers",
                               "dpor.sleep_blocked")}
        assert counts == {
            "dpor.races_detected": (755, 1_578),
            "dpor.wakeup_pruned": (445, 1_268),
            "backtracks": (310, 310),
            "dpor.lock_handovers": (60, 60),
            "dpor.sleep_blocked": (64, 64),
        }

    def test_sliced_search_counts_the_races_of_a_direct_one(self, tmp_path):
        # Every slice resumes with no clocks and still detects only the
        # races past the replayed prefix, so the slices add up to the
        # direct run's count.
        def run(**options):
            checker = Checker(dining_philosophers(2), strategy="dpor",
                              fairness=False, depth_bound=300,
                              handle_signals=False, observer=Observer(),
                              **options)
            resume = options.get("checkpoint_path") if slices else None
            result = checker.run(resume_from=resume)
            return result, checker.observer.metrics.counter(
                "dpor.races_detected").value

        slices = 0
        direct, direct_races = run()
        total = 0
        while True:
            sliced, races = run(max_executions=3 * (slices + 1),
                                checkpoint_path=str(tmp_path / "s.ckpt"),
                                checkpoint_interval=3)
            total += races
            slices += 1
            if sliced.exploration.stop_reason != "max-executions":
                break
        assert slices > 2
        assert sliced.exploration.executions == direct.exploration.executions
        assert total == direct_races > 0


class TestAnalysisPhase:
    def test_one_analysis_sample_per_execution(self):
        observer = Observer()
        result = DporStrategy(dining_philosophers(2), nonfair_policy(),
                              depth_bound=300, limits=LIMITS,
                              observer=observer).explore()
        assert observer.timers.counts["analysis"] == result.executions > 1
        assert observer.timers.seconds("analysis") > 0

    def test_dfs_times_no_analysis(self):
        observer = Observer()
        DfsStrategy(dining_philosophers(2), fair_policy(),
                    ExecutorConfig(depth_bound=300), LIMITS,
                    observer=observer).explore()
        assert "analysis" not in observer.timers.counts
