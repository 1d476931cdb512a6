"""Signature graphs: the explicit state graph of a replayable program.

The stateless checker never *needs* the state graph — that is the point
of the paper — but having it is invaluable for understanding and for
validating the dynamic results: this module extracts the graph of state
*signatures* by exhaustive (bounded) exploration with visited pruning,
annotating every node with its enabled and yielding thread sets.  On top
of it:

* :func:`find_livelock_candidates` — the **fair cycles** of the graph,
  i.e. the static counterparts of the livelocks the fair scheduler
  detects dynamically (Theorem 6's witnesses);
* cross-validation of coverage measurements (the node set equals the
  stateful ground truth).

Precision caveats are those of the stateful search: the program's
signature plus pending operations must determine behavior (see
docs/internals.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.model import Program
from repro.core.policies import NonfairPolicy
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.strategies.base import next_dfs_guide

Sig = Hashable
Tid = Hashable

#: One transition of a cycle: (source signature, thread scheduled).
CycleStep = Tuple[Sig, Tid]


@dataclass
class SignatureGraph:
    """Explicit graph over state signatures."""

    #: signature -> set of enabled thread names
    enabled: Dict[Sig, FrozenSet[str]] = field(default_factory=dict)
    #: signature -> set of thread names whose next transition yields
    yielding: Dict[Sig, FrozenSet[str]] = field(default_factory=dict)
    #: (signature, thread name) -> successor signature
    edges: Dict[Tuple[Sig, str], Sig] = field(default_factory=dict)
    initial: Optional[Sig] = None
    complete: bool = True

    @property
    def state_count(self) -> int:
        return len(self.enabled)

    def successors(self, sig: Sig) -> List[Tuple[str, Sig]]:
        return [(tid, to) for (frm, tid), to in self.edges.items()
                if frm == sig]

    # ------------------------------------------------------------------
    def is_fair_cycle(self, cycle: Sequence[CycleStep]) -> bool:
        """Paper definition: every thread enabled somewhere on the cycle
        is scheduled somewhere on the cycle."""
        scheduled = {tid for _, tid in cycle}
        enabled_somewhere: Set[str] = set()
        for sig, _ in cycle:
            enabled_somewhere.update(self.enabled.get(sig, ()))
        return enabled_somewhere <= scheduled

    def cycle_yield_count(self, cycle: Sequence[CycleStep]) -> int:
        """δ of the cycle: max per-thread yielding transitions."""
        per_thread: Dict[str, int] = {}
        for sig, tid in cycle:
            if tid in self.yielding.get(sig, ()):
                per_thread[tid] = per_thread.get(tid, 0) + 1
        return max(per_thread.values(), default=0)

    def cycles(self, *, limit: int = 10_000):
        """Elementary cycles as ``[(sig, thread), ...]`` sequences."""
        import networkx as nx  # here, so that ``import repro`` does not need it

        digraph = nx.DiGraph()
        labels: Dict[Tuple[Sig, Sig], List[str]] = {}
        digraph.add_nodes_from(self.enabled)
        for (frm, tid), to in self.edges.items():
            digraph.add_edge(frm, to)
            labels.setdefault((frm, to), []).append(tid)
        produced = 0
        for node_cycle in nx.simple_cycles(digraph):
            expansions: List[List[CycleStep]] = [[]]
            n = len(node_cycle)
            for i, sig in enumerate(node_cycle):
                succ = node_cycle[(i + 1) % n]
                expansions = [
                    steps + [(sig, tid)]
                    for steps in expansions
                    for tid in labels[(sig, succ)]
                ]
                if len(expansions) > limit:
                    expansions = expansions[:limit]
            for steps in expansions:
                yield steps
                produced += 1
                if produced >= limit:
                    return


def build_signature_graph(
    program: Program,
    *,
    depth_bound: int = 400,
    max_executions: Optional[int] = None,
) -> SignatureGraph:
    """Exhaustively explore (unfair, visited-pruned) and record the graph."""
    graph = SignatureGraph()
    visited_keys: Set[Hashable] = set()
    config = ExecutorConfig(depth_bound=depth_bound,
                            on_depth_exceeded="prune")
    executions = 0

    guide: Optional[list] = []
    while guide is not None:
        guide_len = len(guide)
        run_prev: List[Optional[Sig]] = [None]

        def pruner(instance, point) -> bool:
            # Nodes are *precise* signatures: the user abstraction can
            # alias states that differ in pending operations, which would
            # create artifact self-loops (misread as fair cycles).
            precise = getattr(instance, "precise_signature", None)
            sig = precise() if precise is not None \
                else instance.state_signature()
            if sig not in graph.enabled:
                enabled = instance.enabled_threads()
                names = {}
                getter = getattr(instance, "task", None)
                for tid in enabled:
                    names[tid] = (getter(tid).name if getter is not None
                                  else str(tid))
                graph.enabled[sig] = frozenset(names.values())
                graph.yielding[sig] = frozenset(
                    names[tid] for tid in enabled
                    if instance.is_yielding(tid)
                )
            if graph.initial is None:
                graph.initial = sig
            prev = run_prev[0]
            if prev is not None and point.last_tid is not None:
                getter = getattr(instance, "task", None)
                name = (getter(point.last_tid).name if getter is not None
                        else str(point.last_tid))
                graph.edges[(prev, name)] = sig
            run_prev[0] = sig

            if point.decisions < guide_len:
                visited_keys.add(sig)
                return False
            if sig in visited_keys:
                return True
            visited_keys.add(sig)
            return False

        record = run_execution(
            program, NonfairPolicy(), GuidedChooser(guide), config,
            pruner=pruner,
        )
        executions += 1
        if record.hit_depth_bound:
            graph.complete = False
        if max_executions is not None and executions >= max_executions:
            graph.complete = False
            break
        guide = next_dfs_guide(record.decisions)
    return graph


def find_livelock_candidates(
    program: Program,
    *,
    depth_bound: int = 400,
    cycle_limit: int = 2_000,
    max_executions: Optional[int] = 50_000,
) -> List[List[CycleStep]]:
    """Static livelock analysis: fair cycles of the signature graph.

    Every genuine livelock of a finite-state program shows up here as a
    fair cycle; conversely a fair cycle is an infinite fair execution
    once reached, i.e. fair nontermination.  (Subject to the signature
    precision caveat and the bounds.)
    """
    graph = build_signature_graph(program, depth_bound=depth_bound,
                                  max_executions=max_executions)
    return [cycle for cycle in graph.cycles(limit=cycle_limit)
            if graph.is_fair_cycle(cycle)]
