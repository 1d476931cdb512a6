"""State-graph construction and fair/unfair cycle analysis.

Implements the definitions behind Theorems 4–6: a cycle
``x0 -t0-> x1 ... xn -tn-> x0`` (distinct states) is **fair** iff every
thread enabled somewhere on the cycle is scheduled on the cycle; it is
**unfair** otherwise.  The **yield count** ``δ`` of a transition sequence
is the maximum, over threads, of the number of yielding transitions that
thread performs in it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterator, List, Sequence, Tuple

from repro.statespace.transition_system import TransitionSystem

State = Hashable
Tid = Hashable

#: One transition of a cycle: (source state, thread scheduled).
CycleStep = Tuple[State, Tid]


@dataclass
class StateGraph:
    """Explicit state graph of a transition system."""

    system: TransitionSystem
    states: FrozenSet[State]
    #: state -> tuple of (tid, successor, yielded)
    edges: Dict[State, Tuple[Tuple[Tid, State, bool], ...]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    def successors(self, state: State) -> Tuple[Tuple[Tid, State, bool], ...]:
        return self.edges.get(state, ())


def build_state_graph(system: TransitionSystem,
                      max_states: int = 100_000) -> StateGraph:
    """BFS the full reachable state graph."""
    edges: Dict[State, Tuple[Tuple[Tid, State, bool], ...]] = {}
    seen = {system.initial}
    frontier = deque([system.initial])
    while frontier:
        state = frontier.popleft()
        outgoing: List[Tuple[Tid, State, bool]] = []
        for tid in sorted(system.enabled_threads(state), key=repr):
            successor = system.next_state(state, tid)
            yielded = system.is_yielding(state, tid)
            outgoing.append((tid, successor, yielded))
            if successor not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError("state graph exceeds max_states")
                seen.add(successor)
                frontier.append(successor)
        edges[state] = tuple(outgoing)
    return StateGraph(system=system, states=frozenset(seen), edges=edges)


def enumerate_cycles(graph: StateGraph, *, limit: int = 10_000
                     ) -> Iterator[List[CycleStep]]:
    """Yield elementary cycles as ``[(state, tid), ...]`` sequences.

    Node cycles come from Johnson's algorithm (via networkx); each is
    expanded into every combination of thread labels realizing it.
    """
    import networkx as nx  # here, so that ``import repro`` does not need it

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.states)
    labels: Dict[Tuple[State, State], List[Tid]] = {}
    for state, outgoing in graph.edges.items():
        for tid, successor, _ in outgoing:
            digraph.add_edge(state, successor)
            labels.setdefault((state, successor), []).append(tid)

    produced = 0
    for node_cycle in nx.simple_cycles(digraph):
        expansions: List[List[CycleStep]] = [[]]
        n = len(node_cycle)
        for i, state in enumerate(node_cycle):
            successor = node_cycle[(i + 1) % n]
            tids = labels[(state, successor)]
            expansions = [
                steps + [(state, tid)] for steps in expansions for tid in tids
            ]
            if len(expansions) > limit:
                expansions = expansions[:limit]
        for steps in expansions:
            yield steps
            produced += 1
            if produced >= limit:
                return


def threads_enabled_on_cycle(system: TransitionSystem,
                             cycle: Sequence[CycleStep]) -> FrozenSet[Tid]:
    enabled = set()
    for state, _ in cycle:
        enabled.update(system.enabled_threads(state))
    return frozenset(enabled)


def is_fair_cycle(system: TransitionSystem,
                  cycle: Sequence[CycleStep]) -> bool:
    """The paper's definition: every thread enabled somewhere on the cycle
    is also scheduled somewhere on the cycle."""
    scheduled = {tid for _, tid in cycle}
    return threads_enabled_on_cycle(system, cycle) <= scheduled


def cycle_yield_count(system: TransitionSystem,
                      cycle: Sequence[CycleStep]) -> int:
    """``δ(cycle)``: max over threads of their yielding transitions."""
    per_thread: Dict[Tid, int] = {}
    for state, tid in cycle:
        if system.is_yielding(state, tid):
            per_thread[tid] = per_thread.get(tid, 0) + 1
    return max(per_thread.values(), default=0)


def find_fair_cycles(system: TransitionSystem, *, limit: int = 10_000
                     ) -> List[List[CycleStep]]:
    """All (bounded) fair cycles — livelock candidates."""
    graph = build_state_graph(system)
    return [
        cycle for cycle in enumerate_cycles(graph, limit=limit)
        if is_fair_cycle(system, cycle)
    ]


def has_fair_cycle(system: TransitionSystem, *, limit: int = 10_000) -> bool:
    graph = build_state_graph(system)
    for cycle in enumerate_cycles(graph, limit=limit):
        if is_fair_cycle(system, cycle):
            return True
    return False
