"""The state graph and its liveness queries.

:func:`~repro.statespace.stateful.stateful_search` records the
:class:`StateGraph` it walks.  Two queries decide the paper's liveness
outcomes on it with strongly connected components:

* :func:`fair_sccs` — **fair nontermination** (a livelock): the strongly
  connected subgraphs on which an infinite run is strongly fair, i.e.
  every thread enabled in it is scheduled in it.  Tarjan SCCs with
  Emerson–Lei refinement: a thread enabled in a component but scheduled
  on none of its internal edges cannot be enabled infinitely often in a
  fair run there, so the states that enable it are dropped and the rest
  is decomposed again — the explicit-state form of the fair ``EG`` of
  McMillan 1993 §6.4.
* :func:`good_samaritan_sccs` — **good-samaritan violations**: per
  thread, the components in which it runs forever without yielding.

By Theorem 2, fair DFS terminates without a divergence on a program whose
complete graph has neither.

Theorem 6's precondition is about elementary cycles: a cycle
``x0 -t0-> x1 ... xn -tn-> x0`` (distinct states) is **fair** iff every
thread enabled somewhere on the cycle is scheduled on the cycle; it is
**unfair** otherwise.  The **yield count** ``δ`` of a transition sequence
is the maximum, over threads, of the number of yielding transitions that
thread performs in it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Hashable, Iterator, List, Sequence, Set, Tuple)

State = Hashable
Tid = Hashable
#: One transition: (thread scheduled, successor, whether it yielded).
Edge = Tuple[Tid, State, bool]
#: One transition of a cycle: (source state, thread scheduled).
CycleStep = Tuple[State, Tid]


@dataclass
class StateGraph:
    """The state graph a stateful search walked.

    Nodes are precise state signatures (the states themselves for an
    explicit system).  Threads are labelled by name, or by thread id for
    an explicit system.
    """

    initial: State = None
    #: node -> threads enabled there (every node has an entry)
    enabled: Dict[State, FrozenSet[Tid]] = field(default_factory=dict)
    #: node -> its outgoing edges.  A set: a step that makes a
    #: ``choose()`` decision has one edge per successor.
    edges: Dict[State, Set[Edge]] = field(default_factory=dict)

    @property
    def state_count(self) -> int:
        return len(self.enabled)

    def successors(self, state: State) -> Set[Edge]:
        return self.edges.get(state, set())


def _sccs(graph: StateGraph, nodes: Set[State],
          skip: Tid = None) -> Iterator[FrozenSet[State]]:
    """Tarjan's SCCs of the subgraph on ``nodes`` without ``skip``'s
    yielding edges, iteratively.  Yields only components with an internal
    edge (a single state without a self-loop holds no infinite run)."""

    def successors(node: State) -> Iterator[State]:
        for tid, successor, yielded in graph.successors(node):
            if successor in nodes and not (yielded and tid == skip):
                yield successor

    index: Dict[State, int] = {}
    low: Dict[State, int] = {}
    stack: List[State] = []
    on_stack: Set[State] = set()
    work: List[Tuple[State, Iterator[State]]] = []

    def visit(node: State) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, successors(node)))

    for root in graph.enabled:
        if root not in nodes or root in index:
            continue
        visit(root)
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    visit(successor)
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != index[node]:
                    continue
                component = set()
                while node not in component:
                    component.add(stack.pop())
                on_stack -= component
                if len(component) > 1 or node in successors(node):
                    yield frozenset(component)


def _internal(graph: StateGraph, component: FrozenSet[State]
              ) -> Set[Tuple[Tid, bool]]:
    """``(thread, yielded)`` of the component's internal edges."""
    return {(tid, yielded) for node in component
            for tid, successor, yielded in graph.successors(node)
            if successor in component}


def fair_sccs(graph: StateGraph) -> List[FrozenSet[State]]:
    """The graph's fair components: strongly connected subgraphs on which
    every thread enabled somewhere is scheduled on an internal edge.

    An infinite run that visits every state and internal edge of one
    infinitely often is fair: a livelock.  With no such component, every
    infinite run starves some thread enabled infinitely often.
    """
    fair: List[FrozenSet[State]] = []
    pending = [set(graph.enabled)]
    while pending:
        for component in _sccs(graph, pending.pop()):
            starved = set().union(*(graph.enabled[node]
                                    for node in component))
            starved -= {tid for tid, _ in _internal(graph, component)}
            if starved:
                # Emerson–Lei: a fair run here never visits a state that
                # enables a starved thread.
                pending.append({node for node in component
                                if not graph.enabled[node] & starved})
            else:
                fair.append(component)
    return fair


def good_samaritan_sccs(graph: StateGraph
                        ) -> Dict[Tid, List[FrozenSet[State]]]:
    """Per thread, the components in which it runs without yielding.

    For each thread ``t``: drop ``t``'s yielding edges and keep the
    components that still contain an edge of ``t`` — a run that cycles
    there schedules ``t`` infinitely often while ``t`` never yields.
    Threads with no such component are left out.
    """
    threads = {tid for edges in graph.edges.values() for tid, _, _ in edges}
    nodes = set(graph.enabled)
    found: Dict[Tid, List[FrozenSet[State]]] = {}
    for thread in threads:
        components = [component for component in _sccs(graph, nodes, thread)
                      if (thread, False) in _internal(graph, component)]
        if components:
            found[thread] = components
    return found


def enumerate_cycles(graph: StateGraph, *, limit: int = 10_000
                     ) -> Iterator[List[CycleStep]]:
    """Yield elementary cycles as ``[(state, tid), ...]`` sequences.

    Node cycles come from Johnson's algorithm (via networkx); each is
    expanded into every combination of thread labels realizing it.
    """
    import networkx as nx  # here, so that ``import repro`` does not need it

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.enabled)
    labels: Dict[Tuple[State, State], Set[Tid]] = {}
    for state, outgoing in graph.edges.items():
        for tid, successor, _ in outgoing:
            digraph.add_edge(state, successor)
            labels.setdefault((state, successor), set()).add(tid)

    produced = 0
    for node_cycle in nx.simple_cycles(digraph):
        expansions: List[List[CycleStep]] = [[]]
        n = len(node_cycle)
        for i, state in enumerate(node_cycle):
            successor = node_cycle[(i + 1) % n]
            tids = sorted(labels[(state, successor)], key=repr)
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


def is_fair_cycle(graph: StateGraph, cycle: Sequence[CycleStep]) -> bool:
    """The paper's definition: every thread enabled somewhere on the cycle
    is also scheduled somewhere on the cycle."""
    scheduled = {tid for _, tid in cycle}
    enabled: Set[Tid] = set()
    for state, _ in cycle:
        enabled |= graph.enabled[state]
    return enabled <= scheduled


def cycle_yield_count(graph: StateGraph, cycle: Sequence[CycleStep]) -> int:
    """``δ(cycle)``: max over threads of their yielding transitions."""
    per_thread: Counter = Counter()
    for i, (state, tid) in enumerate(cycle):
        successor = cycle[(i + 1) % len(cycle)][0]
        if (tid, successor, True) in graph.successors(state):
            per_thread[tid] += 1
    return max(per_thread.values(), default=0)
