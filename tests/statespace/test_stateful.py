"""Stateful ground-truth search tests."""

import threading
from collections import deque

from repro.core.policies import fair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.strategies import ExplorationLimits, explore_dfs
from repro.runtime.api import pause
from repro.runtime.program import VMProgram
from repro.statespace.adapter import TransitionSystemProgram
from repro.statespace.random_programs import random_system
from repro.statespace.stateful import stateful_search
from repro.statespace.transition_system import figure3_system, pc_program
from repro.sync.atomics import SharedVar
from repro.workloads.dining import dining_philosophers
from tests.runtime.test_native import counter_program


def explicit_graph(system):
    """The reachable graph of an explicit system by plain BFS:
    ``(enabled, edges)`` keyed by state."""
    enabled, edges = {}, {}
    frontier = deque([system.initial])
    while frontier:
        state = frontier.popleft()
        if state in enabled:
            continue
        enabled[state] = system.enabled_threads(state)
        edges[state] = {
            (tid, system.next_state(state, tid),
             system.is_yielding(state, tid))
            for tid in enabled[state]
        }
        frontier.extend(successor for _, successor, _ in edges[state])
    return enabled, edges


class TestReachableStates:
    def test_figure3(self):
        assert stateful_search(figure3_system()).count == 5

    def test_depth_bound_cut_marks_incomplete(self):
        # An infinite counter: every depth bound cuts the walk.
        system = pc_program(
            "infinite", 0,
            {"t": ((lambda s: True, lambda s: s + 1, 0, True),)},
        )
        truth = stateful_search(system, depth_bound=10)
        assert truth.complete is False
        assert truth.count == 11

    def test_depth_bound_cut_on_dining(self):
        """Regression: depth-pruned executions used to leave
        ``complete=True`` on a walk that missed most states."""
        shallow = stateful_search(dining_philosophers(3), depth_bound=5)
        full = stateful_search(dining_philosophers(3), depth_bound=400)
        assert shallow.complete is False
        assert full.complete is True
        assert shallow.count < full.count


class TestStatefulStateCount:
    def test_terminates_on_cyclic_program(self):
        """The dining retry loops put cycles in the state space; visited
        pruning must still terminate the replay search."""
        result = stateful_search(dining_philosophers(2), depth_bound=200)
        assert result.complete
        assert result.count == 20
        assert result.executions < 100

    def test_context_bound_reduces_or_keeps_states(self):
        total = stateful_search(dining_philosophers(3), depth_bound=200)
        cb1 = stateful_search(dining_philosophers(3),
                              preemption_bound=1, depth_bound=200)
        assert cb1.count <= total.count
        assert total.complete and cb1.complete

    def test_agrees_with_graph_search_on_explicit_system(self):
        """The walk's graph is the explicit system's reachable graph,
        whether it is handed the system or the adapted program."""
        system = figure3_system()
        for program in (system, TransitionSystemProgram(system)):
            truth = stateful_search(program, depth_bound=100)
            enabled, edges = explicit_graph(system)
            assert truth.states == frozenset(enabled)
            assert truth.graph.initial == system.initial
            assert truth.graph.enabled == enabled
            assert truth.graph.edges == edges
        for seed in range(40):
            system = random_system(seed, n_threads=3)
            graph = stateful_search(system).graph
            assert (graph.enabled, graph.edges) == explicit_graph(system)

    def test_max_executions_marks_incomplete(self):
        result = stateful_search(dining_philosophers(3), depth_bound=200,
                                 max_executions=3)
        assert not result.complete

    def test_fair_search_covers_ground_truth_on_dining(self):
        """The headline coverage claim of Table 2, in miniature."""
        truth = stateful_search(dining_philosophers(2), depth_bound=200)
        coverage = CoverageTracker()
        explore_dfs(
            dining_philosophers(2), fair_policy(),
            ExecutorConfig(depth_bound=200),
            ExplorationLimits(stop_on_first_violation=False,
                              stop_on_first_divergence=False),
            coverage=coverage,
        )
        assert truth.states <= coverage.signatures()


class TestNativeThreads:
    def test_instances_are_closed(self):
        """Regression: the search kept every instance alive, leaking one
        OS thread per unfinished native task (1 → 128 threads here)."""
        baseline = threading.active_count()
        truth = stateful_search(counter_program(racy=False), depth_bound=200)
        assert truth.complete
        assert truth.executions > 1
        assert threading.active_count() <= baseline


class TestPruningRegression:
    def test_signature_aliased_starts_do_not_self_prune(self):
        """Regression: implicit start transitions leave the user-level
        signature unchanged; pruning must use the precise signature or the
        whole search collapses after one step."""

        def setup(env):
            x = SharedVar(0, name="x")

            def body():
                yield from pause()
                yield from x.set(1)

            env.spawn(body, name="a")
            env.spawn(body, name="b")
            env.set_state_fn(lambda: x.peek())

        program = VMProgram(setup, name="aliased")
        result = stateful_search(program, depth_bound=50)
        assert result.complete
        # Two user-visible states: x == 0 and x == 1.
        assert result.count == 2
        # But the search had to run through more than two executions.
        assert result.executions >= 2
