"""Property-based validation of the paper's theorems (hypothesis).

Random finite-state programs are generated from seeds
(:mod:`repro.statespace.random_programs`) and the fair scheduler's
guarantees are checked against them:

* Theorem 1 — every infinite execution generated satisfies ``GS ⇒ SF``:
  on long executions produced by the fair scheduler, if every scheduled
  thread keeps yielding in the suffix, no enabled thread is starved.
* Theorem 2 — with no reachable infinite ``GS ⇒ SF`` run (no fair SCC and
  no good-samaritan SCC in the state graph), fair DFS terminates without
  a divergence; and every divergence verdict it does report lies on the
  SCC that explains it.
* Theorem 3 — the priority relation stays acyclic, so ``T = ∅ ⇔ ES = ∅``
  (no false deadlocks).
* Theorem 5 — the fair search visits every reachable state of yield
  count zero.
* Theorem 6 — a reachable (yield-count-zero) fair cycle of yield count
  ≤ 1 forces the fair search to generate a divergent execution.
"""

import random as random_module

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import Checker
from repro.core.policies import FairPolicy, fair_policy
from repro.engine.classify import classify_divergence
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import (
    ExecutorConfig,
    GuidedChooser,
    RandomChooser,
    run_execution,
)
from repro.engine.results import DivergenceKind, Outcome
from repro.engine.strategies import ExplorationLimits, explore_dfs
from repro.statespace.adapter import TransitionSystemProgram
from repro.statespace.cycles import (
    cycle_yield_count,
    enumerate_cycles,
    fair_sccs,
    good_samaritan_sccs,
    is_fair_cycle,
)
from repro.statespace.random_programs import (
    random_good_samaritan_system,
    random_system,
)
from repro.statespace.stateful import stateful_search
from repro.workloads.coherence import coherence_program
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.promise import promise_program
from repro.workloads.spinloop import spinloop, spinloop_no_yield

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def yield_free_states(system):
    """States reachable via executions of yield count zero: BFS using
    only non-yielding transitions."""
    from collections import deque

    seen = {system.initial}
    frontier = deque([system.initial])
    while frontier:
        state = frontier.popleft()
        for tid in system.enabled_threads(state):
            if system.is_yielding(state, tid):
                continue
            successor = system.next_state(state, tid)
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


class TestTheorem1:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), walk=st.integers(0, 100))
    def test_gs_implies_fairness_on_long_executions(self, seed, walk):
        """Random walks under the fair policy on good-samaritan programs:
        if the walk diverges, its suffix must be fair (never classified
        UNFAIR)."""
        system = random_good_samaritan_system(seed, n_threads=2, n_pcs=3)
        program = TransitionSystemProgram(system)
        record = run_execution(
            program, FairPolicy(),
            RandomChooser(random_module.Random(walk)),
            ExecutorConfig(depth_bound=400, on_depth_exceeded="divergence"),
        )
        if record.outcome is Outcome.DIVERGENCE:
            assert record.divergence.kind is not DivergenceKind.UNFAIR, (
                f"fair scheduler starved a thread on {system.name}: "
                f"{record.divergence}"
            )

    @SETTINGS
    @given(seed=st.integers(0, 10_000), walk=st.integers(0, 50))
    def test_no_starvation_window_on_gs_programs(self, seed, walk):
        """Directly check SF on the suffix: any thread enabled throughout
        the final window must be scheduled in it."""
        system = random_good_samaritan_system(seed, n_threads=3, n_pcs=2)
        program = TransitionSystemProgram(system)
        record = run_execution(
            program, FairPolicy(),
            RandomChooser(random_module.Random(walk)),
            ExecutorConfig(depth_bound=500, on_depth_exceeded="divergence",
                           trace_window=128),
        )
        if record.outcome is not Outcome.DIVERGENCE:
            return
        suffix = list(record.trace)[-96:]
        scheduled = {step.tid for step in suffix}
        always_enabled = set(suffix[0].enabled_before)
        for step in suffix:
            always_enabled &= step.enabled_before
        assert always_enabled <= scheduled, (
            f"threads {always_enabled - scheduled} continuously enabled "
            f"but starved by the fair scheduler"
        )


#: Four random-program settings for the liveness oracle: arbitrary
#: programs (which livelock, deadlock and spin freely) and good-samaritan
#: ones, each with two and three threads.
GENERATORS = {
    "random": random_system,
    "random-3": lambda seed: random_system(seed, n_threads=3, n_pcs=2,
                                           yield_prob=0.5),
    "gs": random_good_samaritan_system,
    "gs-3": lambda seed: random_good_samaritan_system(seed, n_threads=3,
                                                      n_pcs=2),
}


def complete_graph(system):
    truth = stateful_search(system)
    assert truth.complete
    return truth.graph


def fair_dfs(system):
    """Fair DFS at depth 300, to the end or the first divergence."""
    return explore_dfs(
        TransitionSystemProgram(system), fair_policy(),
        ExecutorConfig(depth_bound=300),
        ExplorationLimits(stop_on_first_violation=False),
    )


def window_states(system, record):
    """The states in the window the classifier judged: the schedule is
    replayed, because the last step of a window may leave the SCC."""
    states = [system.initial]
    for decision in record.decisions:
        states.append(system.next_state(states[-1], decision.chosen))
    return set(states[-record.divergence.window - 1:])


class TestTheorem2:
    @SETTINGS
    @given(seed=st.integers(0, 10_000),
           setting=st.sampled_from(["random", "gs"]))
    def test_no_fair_or_gs_scc_means_termination(self, seed, setting):
        """With neither a fair SCC nor a good-samaritan SCC, no infinite
        run satisfies ``GS ⇒ SF``: fair DFS must finish, divergence-free."""
        system = GENERATORS[setting](seed)
        graph = complete_graph(system)
        if fair_sccs(graph) or good_samaritan_sccs(graph):
            return  # an infinite GS ⇒ SF run exists; nothing to check
        result = fair_dfs(system)
        assert result.complete and not result.divergences, (
            f"{system.name} has no fair or good-samaritan SCC, but fair "
            f"DFS reported {result.divergences[:1]}"
        )

    @SETTINGS
    @given(seed=st.integers(0, 10_000),
           setting=st.sampled_from(sorted(GENERATORS)))
    def test_verdicts_lie_on_their_sccs(self, seed, setting):
        """Every LIVELOCK window meets a fair SCC; every good-samaritan
        window meets a good-samaritan SCC of one of its culprits."""
        system = GENERATORS[setting](seed)
        graph = complete_graph(system)
        fair = frozenset().union(*fair_sccs(graph))
        spinning = good_samaritan_sccs(graph)
        for record in fair_dfs(system).divergences:
            report = record.divergence
            window = window_states(system, record)
            if report.kind is DivergenceKind.LIVELOCK:
                assert window & fair, (
                    f"{system.name}: livelock verdict off every fair SCC")
            elif report.kind is DivergenceKind.GOOD_SAMARITAN_VIOLATION:
                assert any(window & component
                           for culprit in report.culprits
                           for component in spinning.get(culprit, ())), (
                    f"{system.name}: {report} off its culprits' SCCs")


def static_verdict(program):
    graph = complete_graph(program)
    if fair_sccs(graph):
        return DivergenceKind.LIVELOCK
    if good_samaritan_sccs(graph):
        return DivergenceKind.GOOD_SAMARITAN_VIOLATION
    return None


WRITERS = [[("w", 10)], [("w", 20)]]


class TestStaticVerdictOnPaperWorkloads:
    """The SCC verdict equals the fair checker's on the paper's
    workloads.  dining(3) is left out: its fair DFS alone runs for
    minutes."""

    @pytest.mark.parametrize("factory", [
        lambda: dining_philosophers(2),
        lambda: dining_philosophers_livelock(2),
        lambda: promise_program(1, stale_read_bug=True),
        spinloop,
        spinloop_no_yield,
        lambda: coherence_program(WRITERS),
        lambda: coherence_program(WRITERS, bug="upgrade-livelock"),
    ], ids=["dining2", "dining-livelock2", "promise-stale-read", "spinloop",
            "spinloop-no-yield", "msi", "msi-upgrade-livelock"])
    def test_static_equals_dynamic(self, factory):
        result = Checker(factory(), depth_bound=300).run()
        dynamic = (result.divergence.divergence.kind
                   if result.divergence is not None else None)
        assert static_verdict(factory()) == dynamic


class TestTheorem3:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), walk=st.integers(0, 50))
    def test_priority_relation_stays_acyclic(self, seed, walk):
        system = random_system(seed, n_threads=3, n_pcs=3, yield_prob=0.5)
        program = TransitionSystemProgram(system)
        # check_acyclic raises inside the policy if Theorem 3 breaks.
        record = run_execution(
            program, FairPolicy(check_acyclic=True),
            RandomChooser(random_module.Random(walk)),
            ExecutorConfig(depth_bound=300, on_depth_exceeded="prune"),
        )
        assert record.outcome in (Outcome.TERMINATED, Outcome.DEADLOCK,
                                  Outcome.DEPTH_PRUNED)

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_no_false_deadlocks(self, seed):
        """T = ∅ iff ES = ∅: the fair DFS reports termination at exactly
        the states where the nonfair search would."""
        system = random_system(seed, n_threads=2, n_pcs=2, yield_prob=0.6)
        program = TransitionSystemProgram(system)
        result = explore_dfs(
            program, fair_policy(),
            ExecutorConfig(depth_bound=200, on_depth_exceeded="prune"),
            ExplorationLimits(max_executions=500,
                              stop_on_first_violation=False,
                              stop_on_first_divergence=False),
        )
        # The executor asserts non-emptiness of T internally; surviving
        # the search without AssertionError is the property.
        assert result.executions >= 1


class TestTheorem5:
    @SETTINGS
    @given(seed=st.integers(0, 2_000))
    def test_fair_dfs_covers_yield_free_states(self, seed):
        system = random_system(seed, n_threads=2, n_pcs=2, domain=2,
                               yield_prob=0.4)
        program = TransitionSystemProgram(system)
        coverage = CoverageTracker()
        result = explore_dfs(
            program, fair_policy(),
            ExecutorConfig(depth_bound=200),
            ExplorationLimits(max_executions=3000,
                              stop_on_first_violation=False,
                              stop_on_first_divergence=True),
            coverage=coverage,
        )
        if result.found_divergence or result.limit_hit:
            # Theorem 5's other branch: the algorithm generated an
            # infinite execution (or we ran out of budget) — no coverage
            # obligation.
            return
        expected = yield_free_states(system)
        missing = expected - coverage.signatures()
        assert not missing, (
            f"yield-count-zero states missed by the fair search on "
            f"{system.name}: {missing}"
        )


class TestTheorem6:
    @SETTINGS
    @given(seed=st.integers(0, 2_000))
    def test_reachable_fair_cycle_forces_divergence(self, seed):
        system = random_system(seed, n_threads=2, n_pcs=2, domain=2,
                               yield_prob=0.4)
        graph = stateful_search(system).graph
        yield_free = yield_free_states(system)
        qualifying = [
            cycle
            for cycle in enumerate_cycles(graph, limit=500)
            if cycle[0][0] in yield_free
            and is_fair_cycle(graph, cycle)
            and cycle_yield_count(graph, cycle) <= 1
        ]
        if not qualifying:
            return  # precondition not met; nothing to check
        program = TransitionSystemProgram(system)
        result = explore_dfs(
            program, fair_policy(),
            ExecutorConfig(depth_bound=300),
            ExplorationLimits(max_executions=20_000,
                              stop_on_first_violation=False,
                              stop_on_first_divergence=True),
        )
        assert result.found_divergence or result.limit_hit, (
            f"{system.name} has a reachable fair cycle of yield count ≤ 1 "
            f"but the fair search terminated without divergence"
        )


class TestReplayDeterminism:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), walk=st.integers(0, 50))
    def test_random_walk_replays_identically(self, seed, walk):
        system = random_system(seed, n_threads=2, n_pcs=3)
        program = TransitionSystemProgram(system)
        config = ExecutorConfig(depth_bound=150, on_depth_exceeded="prune")
        original = run_execution(
            program, FairPolicy(),
            RandomChooser(random_module.Random(walk)), config,
        )
        replayed = run_execution(
            program, FairPolicy(), GuidedChooser(original.schedule), config,
        )
        assert replayed.outcome == original.outcome
        assert replayed.schedule == original.schedule
        assert [s.operation for s in replayed.trace] == \
            [s.operation for s in original.trace]
