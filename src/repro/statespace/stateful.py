"""Stateful search: the ground truth and the state graph.

Table 2's "Total States" column comes from "a stateful search of the state
space [storing] the state signatures in a hash table".
:func:`stateful_search` is that search: a replay-based DFS with
visited-state pruning over any :class:`~repro.core.model.Program` or
explicit :class:`~repro.statespace.transition_system.TransitionSystem`,
optionally under a context bound.  It records the
:class:`~repro.statespace.cycles.StateGraph` it walks, on which
:mod:`repro.statespace.cycles` answers the liveness questions.  Pruning
only fires past the guided prefix of each replay, which keeps the
enumeration sound; with a preemption bound the visited key includes the
scheduling context (last thread, yield flag, remaining budget) because
reachability under a context bound is path-dependent.

Stateful pruning requires a *memoryless* policy (the nonfair scheduler):
with the fair policy the future depends on Algorithm 1's auxiliary state,
so pruning on the program state alone would be unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Optional, Set, Union

from repro.core.model import Program
from repro.core.policies import NonfairPolicy
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import Outcome
from repro.engine.strategies.base import next_dfs_guide
from repro.statespace.adapter import TransitionSystemProgram
from repro.statespace.cycles import StateGraph
from repro.statespace.transition_system import TransitionSystem


@dataclass
class GroundTruth:
    """Full verdict inventory of a stateful search — the oracle the
    stateless strategies are validated against (tests/helpers.py)."""

    #: Every reachable state signature.
    states: FrozenSet[Hashable]
    #: Signatures of states with no enabled thread (normal termination
    #: and deadlocks together — "where executions can end").
    terminal_states: FrozenSet[Hashable]
    #: The deadlocked subset of ``terminal_states``.
    deadlock_states: FrozenSet[Hashable]
    #: Distinct violation messages (property failures and crashes).
    violation_messages: FrozenSet[str]
    executions: int
    transitions: int
    #: False when a depth bound or ``max_executions`` cut the walk.
    complete: bool
    #: The graph over precise signatures that the walk traversed.
    graph: StateGraph

    @property
    def count(self) -> int:
        return len(self.states)


def _thread_label(instance, tid) -> Hashable:
    """A thread's name where the runtime names its tasks, else its id."""
    task = getattr(instance, "task", None)
    return task(tid).name if task is not None else tid


def stateful_search(
    program: Union[Program, TransitionSystem],
    *,
    preemption_bound: Optional[int] = None,
    depth_bound: Optional[int] = None,
    max_executions: Optional[int] = None,
) -> GroundTruth:
    """Enumerate the reachable states with full verdict bookkeeping.

    Collects the state signatures, the terminal and deadlock state
    signatures, the distinct violation messages — everything the coverage
    oracle compares a stateless search against — and the state graph.

    The program must expose a *precise* signature (two states with equal
    signatures must have identical future behavior), as the paper's
    manually instrumented examples do.
    """
    if isinstance(program, TransitionSystem):
        program = TransitionSystemProgram(program)
    graph = StateGraph()
    states: Set[Hashable] = set()
    terminal: Set[Hashable] = set()
    deadlocked: Set[Hashable] = set()
    violations: Set[str] = set()
    visited_keys: Set[Hashable] = set()
    executions = 0
    transitions = 0
    config = ExecutorConfig(
        depth_bound=depth_bound,
        on_depth_exceeded="prune",
        preemption_bound=preemption_bound,
    )

    guide: Optional[list] = []
    complete = True
    # The latest state's user signature and graph node in this execution.
    latest_signature: Hashable = None
    latest_node: Hashable = None
    while guide is not None:
        guide_len = len(guide)

        def pruner(instance, point) -> bool:
            nonlocal latest_signature, latest_node
            signature = instance.state_signature()
            states.add(signature)
            # Prune on the *precise* signature: the user abstraction may
            # identify states that differ in pending operations (e.g. a
            # task's implicit start transition), and pruning on it would
            # cut live branches.  It is the graph's node for the same
            # reason: aliased states would create artifact self-loops.
            precise = getattr(instance, "precise_signature", None)
            node = precise() if precise is not None else signature
            if node not in graph.enabled:
                graph.enabled[node] = frozenset(
                    _thread_label(instance, tid)
                    for tid in instance.enabled_threads())
                graph.edges[node] = set()
            if point.steps:
                graph.edges[latest_node].add((
                    _thread_label(instance, point.last_tid), node,
                    point.last_was_yield))
            else:
                graph.initial = node
            latest_signature, latest_node = signature, node
            if preemption_bound is not None:
                budget = preemption_bound - point.preemptions
                key = (node, point.last_tid, point.last_was_yield, budget)
            else:
                key = node
            if point.decisions < guide_len:
                # Strictly inside the guided prefix: record, never prune
                # (the replay must reach its frontier).  The state *after*
                # the final guided decision is new territory — that final
                # decision is the freshly bumped branch — so pruning is
                # allowed from there on.
                visited_keys.add(key)
                return False
            if key in visited_keys:
                return True
            visited_keys.add(key)
            return False

        record = run_execution(
            program,
            NonfairPolicy(),
            GuidedChooser(guide),
            config,
            pruner=pruner,
        )
        executions += 1
        transitions += record.steps
        if record.outcome in (Outcome.TERMINATED, Outcome.DEADLOCK):
            # The pruner saw the terminal state last.
            terminal.add(latest_signature)
            if record.outcome is Outcome.DEADLOCK:
                deadlocked.add(latest_signature)
        elif record.outcome is Outcome.VIOLATION:
            violations.add(str(record.violation))
        elif record.outcome is Outcome.DEPTH_PRUNED:
            complete = False
        if max_executions is not None and executions >= max_executions:
            complete = False
            break
        guide = next_dfs_guide(record.decisions)

    return GroundTruth(
        states=frozenset(states),
        terminal_states=frozenset(terminal),
        deadlock_states=frozenset(deadlocked),
        violation_messages=frozenset(violations),
        executions=executions,
        transitions=transitions,
        complete=complete,
        graph=graph,
    )
