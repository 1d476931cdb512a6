"""State-graph liveness tests: fair and good-samaritan SCCs, fair/unfair
elementary cycles, yield counts."""

from repro.checker import Checker
from repro.engine.results import DivergenceKind
from repro.statespace.adapter import TransitionSystemProgram
from repro.statespace.cycles import (
    cycle_yield_count,
    enumerate_cycles,
    fair_sccs,
    good_samaritan_sccs,
    is_fair_cycle,
)
from repro.statespace.stateful import stateful_search
from repro.statespace.transition_system import (
    ThreadSpec,
    TransitionSystem,
    figure3_system,
    pc_program,
)


def graph_of(system):
    truth = stateful_search(system)
    assert truth.complete
    return truth.graph


def two_thread_pingpong():
    """Both threads toggle the shared bit forever, yielding each time —
    every cycle through both threads is fair."""
    toggle = (lambda s: True, lambda s: 1 - s, 0, True)
    return pc_program("pingpong", 0, {"a": (toggle,), "b": (toggle,)})


def explicit_system(name, edges, yielding):
    """A system given by its labelled edges ``{(state, tid): successor}``
    (state ``"s0"`` is initial); the threads in ``yielding`` yield on
    every transition."""
    def spec(tid):
        return ThreadSpec(
            enabled=lambda s: (s, tid) in edges,
            step=lambda s: edges[(s, tid)],
            is_yield=lambda s: tid in yielding,
        )

    threads = {tid for _, tid in edges}
    return TransitionSystem(name, "s0", {tid: spec(tid) for tid in threads})


class TestFigure3Cycles:
    def test_single_unfair_cycle(self):
        graph = graph_of(figure3_system())
        cycles = list(enumerate_cycles(graph))
        assert len(cycles) == 1
        (cycle,) = cycles
        # The cycle is u's spin loop; t is enabled throughout but never
        # scheduled: unfair.
        assert all(tid == "u" for _, tid in cycle)
        assert not is_fair_cycle(graph, cycle)
        assert not fair_sccs(graph)

    def test_cycle_yield_count(self):
        graph = graph_of(figure3_system())
        (cycle,) = list(enumerate_cycles(graph))
        # One of the two transitions (the yield() instruction) yields.
        assert cycle_yield_count(graph, cycle) == 1


class TestFairCycles:
    def test_pingpong_cycles_through_both_are_fair(self):
        graph = graph_of(two_thread_pingpong())
        fair = [c for c in enumerate_cycles(graph) if is_fair_cycle(graph, c)]
        assert fair
        for cycle in fair:
            scheduled = {tid for _, tid in cycle}
            assert scheduled == {"a", "b"}
        assert fair_sccs(graph) == [frozenset(graph.enabled)]

    def test_pingpong_also_has_unfair_cycles(self):
        graph = graph_of(two_thread_pingpong())
        unfair = [c for c in enumerate_cycles(graph)
                  if not is_fair_cycle(graph, c)]
        # A single thread toggling alone starves the other: unfair.
        assert unfair

    def test_disabled_thread_does_not_make_cycle_unfair(self):
        # One runner loops; the other thread is never enabled: by the
        # paper's definition the cycle is fair.
        system = pc_program(
            "lonely", 0,
            {
                "runner": ((lambda s: True, lambda s: s, 0, True),),
                "sleeper": ((lambda s: False, lambda s: s, 1, False),),
            },
        )
        graph = graph_of(system)
        fair = [c for c in enumerate_cycles(graph) if is_fair_cycle(graph, c)]
        assert fair
        assert fair_sccs(graph) == [frozenset({system.initial})]


class TestFairSccs:
    def test_fair_run_that_is_no_elementary_cycle(self):
        """Regression: the only fair runs alternate the cycles s1-A->s2-A->s1
        and s2-D->s2.  No elementary cycle is fair on its own (A's lap
        starves D, D's self-loop starves A), so cycle enumeration called
        the program fair-terminating; the checker reports a livelock."""
        system = explicit_system(
            "two-laps",
            {("s0", "A"): "s1", ("s1", "A"): "s2", ("s2", "A"): "s1",
             ("s1", "D"): "s0", ("s2", "D"): "s2", ("s0", "B"): "end"},
            yielding={"A", "D"},
        )
        graph = graph_of(system)
        assert not [c for c in enumerate_cycles(graph)
                    if is_fair_cycle(graph, c)]
        # {s0, s1, s2} is one SCC, but B is enabled at s0 and scheduled
        # on no internal edge: the refinement drops s0.
        assert fair_sccs(graph) == [frozenset({"s1", "s2"})]
        result = Checker(TransitionSystemProgram(system),
                         depth_bound=100).run()
        assert result.livelock is not None

    def test_figure3_spin_is_good_samaritan(self):
        # u's spin loop yields on every lap: no thread runs forever
        # without yielding.
        assert good_samaritan_sccs(graph_of(figure3_system())) == {}

    def test_non_yielding_spin_is_a_gs_component(self):
        system = pc_program(
            "spin", 0,
            {
                "t": ((lambda s: True, lambda s: 1, 1, False),),
                "u": ((lambda s: True, lambda s: s,
                       lambda s: 1 if s == 1 else 0, False),),
            },
        )
        graph = graph_of(system)
        spin = good_samaritan_sccs(graph)
        assert set(spin) == {"u"}
        (component,) = spin["u"]
        assert component == frozenset({system.initial})
        # t is enabled at the spin state and never scheduled there.
        assert not fair_sccs(graph)
        result = Checker(TransitionSystemProgram(system),
                         depth_bound=100).run()
        assert result.divergence.divergence.kind is \
            DivergenceKind.GOOD_SAMARITAN_VIOLATION


class TestGraph:
    def test_graph_counts(self):
        system = figure3_system()
        graph = graph_of(system)
        assert graph.state_count == 5
        assert graph.initial == system.initial
        # Initial state has both threads enabled.
        assert len(graph.successors(system.initial)) == 2

    def test_enumerate_limit(self):
        graph = graph_of(two_thread_pingpong())
        cycles = list(enumerate_cycles(graph, limit=2))
        assert len(cycles) <= 2
