"""The state graph of replayable programs (nodes are precise state
signatures) and static livelock analysis on it."""

from repro import VMProgram, sync
from repro.checker import Checker, check
from repro.runtime.api import choose
from repro.statespace.cycles import (
    cycle_yield_count,
    enumerate_cycles,
    fair_sccs,
    is_fair_cycle,
)
from repro.statespace.stateful import stateful_search
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.promise import promise_program
from repro.workloads.spinloop import spinloop


def graph_of(program, depth_bound=200):
    truth = stateful_search(program, depth_bound=depth_bound)
    assert truth.complete
    return truth.graph


def choose_loop():
    """One thread that loops until ``choose(2)`` picks 1."""

    def setup(env):
        def body():
            while True:
                v = yield from choose(2)
                if v == 1:
                    return
                yield from sync.yield_now()

        env.spawn(body, name="t")

    return VMProgram(setup, name="choose-loop")


class TestGraphConstruction:
    def test_spinloop_graph(self):
        graph = graph_of(spinloop(), depth_bound=100)
        assert graph.initial is not None
        assert graph.state_count > 0
        assert any(graph.edges.values())
        # Some edge is the spinner's yielding transition.
        assert any(tid == "u" and yielded
                   for edges in graph.edges.values()
                   for tid, _, yielded in edges)

    def test_all_cycles_of_spinloop_are_unfair(self):
        graph = graph_of(spinloop(), depth_bound=100)
        cycles = list(enumerate_cycles(graph))
        assert cycles  # the spin loop is there
        assert all(not is_fair_cycle(graph, c) for c in cycles)

    def test_max_executions_marks_incomplete(self):
        truth = stateful_search(dining_philosophers(3), depth_bound=200,
                                max_executions=3)
        assert not truth.complete

    def test_choose_keeps_every_successor(self):
        """Regression: a ``choose()`` step has one edge per value.  Keying
        edges by (state, thread) kept only the last successor — here the
        one that returns — and hid the loop the checker reports."""
        graph = graph_of(choose_loop(), depth_bound=100)
        choice = [edges for edges in graph.edges.values()
                  if len({successor for _, successor, _ in edges}) == 2]
        assert len(choice) == 1
        assert fair_sccs(graph)
        result = Checker(choose_loop(), depth_bound=100).run()
        assert result.livelock is not None


class TestLivelockCandidates:
    def test_fair_terminating_program_has_none(self):
        assert fair_sccs(graph_of(dining_philosophers(2))) == []

    def test_figure1_cycle_found_statically(self):
        graph = graph_of(dining_philosophers_livelock(2))
        assert fair_sccs(graph)
        fair = [c for c in enumerate_cycles(graph) if is_fair_cycle(graph, c)]
        shortest = min(fair, key=len)
        # The paper's livelock: both philosophers participate, six
        # transitions (Acquire, Acquire, TryAcquire, TryAcquire,
        # Release, Release).
        scheduled = [tid for _, tid in shortest]
        assert len(shortest) == 6
        assert set(scheduled) == {"Phil1", "Phil2"}

    def test_yield_counts_on_livelock_cycle(self):
        graph = graph_of(dining_philosophers_livelock(2))
        fair = [c for c in enumerate_cycles(graph) if is_fair_cycle(graph, c)]
        shortest = min(fair, key=len)
        # Each philosopher yields exactly once per lap (the failing
        # TryAcquire), so δ = 1 — within Theorem 6's guarantee.
        assert cycle_yield_count(graph, shortest) == 1

    def test_promise_stale_read_found_statically(self):
        assert fair_sccs(graph_of(promise_program(1, stale_read_bug=True)))

    def test_static_and_dynamic_agree(self):
        """The checker diverges exactly on the programs whose state
        graphs contain fair SCCs."""
        for program_factory, has_livelock in [
            (lambda: dining_philosophers(2), False),
            (lambda: dining_philosophers_livelock(2), True),
        ]:
            static = bool(fair_sccs(graph_of(program_factory())))
            dynamic = not check(program_factory(), depth_bound=300).ok
            assert static == dynamic == has_livelock
