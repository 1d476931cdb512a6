"""Scheduling policies: which threads may the demonic scheduler pick?

A *policy* narrows the enabled set ``ES`` of each state to the schedulable
set ``T`` the search branches over.  The engine creates one policy object
per execution (policies are stateful — the fair policy carries Algorithm 1's
``P``/``E``/``D``/``S``) and feeds it every executed transition.

Provided policies:

* :class:`FairPolicy` — the paper's contribution (Algorithm 1), optionally
  parameterized by ``k`` to process only every ``k``-th yield of a thread
  (the generalization at the end of Section 3).
* :class:`NonfairPolicy` — the standard fully nondeterministic scheduler of
  prior stateless model checkers (``T = ES``); the paper's baseline.
* :class:`RoundRobinPolicy` — a deterministic fair-ish scheduler kept as a
  cautionary baseline: the paper notes it "does not consider many
  interleavings" and is useless for coverage.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, FrozenSet, Hashable, Optional

from repro.core.fairness import FairSchedulerState
from repro.core.model import StepInfo

Tid = Hashable

PolicyFactory = Callable[[], "SchedulingPolicy"]


class SchedulingPolicy(abc.ABC):
    """Per-execution scheduling filter."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "policy"
    #: True when the policy guarantees Theorem 1 (fair divergences only).
    is_fair: bool = False

    @abc.abstractmethod
    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        """Compute ``T`` from ``ES`` for the current state."""

    def observe_step(self, info: StepInfo) -> None:
        """Called after each executed transition."""

    def register_thread(self, tid: Tid) -> None:
        """Called for every thread existing at the start of the execution."""

    def fairness_blocked(self, tid: Tid, enabled: FrozenSet[Tid]) -> bool:
        """True iff ``tid`` is enabled but excluded from ``T`` by priority.

        Context-bounded search must not count a context switch forced this
        way as a preemption (Section 4 of the paper).
        """
        return False

    # ------------------------------------------------------------------
    # Persistent-snapshot protocol.
    #
    # ``snapshot_state()`` returns an immutable-by-convention value that
    # ``restore_state()`` can later apply to *any* fresh instance of the
    # same policy configuration.  The prefix-snapshot cache
    # (engine/snapshots.py) relies on this pair: built-in policies return
    # structurally shared values (dicts of frozensets), making capture
    # and restore O(changed) rather than O(total state).
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def snapshot_state(self) -> object:
        """Capture the policy's mutable state as a persistent value."""

    @abc.abstractmethod
    def restore_state(self, state: object) -> None:
        """Reset this instance to a previously captured ``snapshot_state``."""


class NonfairPolicy(SchedulingPolicy):
    """The classical demonic scheduler: every enabled thread is schedulable."""

    name = "nonfair"
    is_fair = False

    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        return enabled

    def snapshot_state(self) -> object:  # stateless
        return None

    def restore_state(self, state: object) -> None:
        pass


class FairPolicy(SchedulingPolicy):
    """Algorithm 1 as a policy, with the optional ``k``-th-yield parameter.

    With ``k > 1`` only every ``k``-th yield of each thread is *processed*
    (window bookkeeping and edge insertion); intervening yields are treated
    as ordinary transitions.  This recovers soundness for programs whose
    states need executions with yield count up to ``k - 1`` (Theorems 5/6
    generalized).
    """

    is_fair = True

    def __init__(self, k: int = 1, *, check_acyclic: bool = False) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self._k = k
        self._state = FairSchedulerState(check_acyclic=check_acyclic)
        self._yield_counts: Dict[Tid, int] = {}
        self.name = "fair" if k == 1 else f"fair(k={k})"

    @property
    def algorithm_state(self) -> FairSchedulerState:
        """The underlying Algorithm 1 state (exposed for tests/Fig. 4)."""
        return self._state

    def register_thread(self, tid: Tid) -> None:
        self._state.register_thread(tid)

    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        return self._state.schedulable(enabled)

    def observe_step(self, info: StepInfo) -> None:
        if info.yielded and self._k > 1:
            count = self._yield_counts.get(info.tid, 0) + 1
            self._yield_counts[info.tid] = count
            if count % self._k != 0:
                info = info._replace(yielded=False)
        self._state.observe_step(info)

    def fairness_blocked(self, tid: Tid, enabled: FrozenSet[Tid]) -> bool:
        return tid in enabled and tid not in self._state.schedulable(enabled)

    def snapshot_state(self) -> object:
        return (self._state.snapshot_state(), dict(self._yield_counts))

    def restore_state(self, state: object) -> None:
        algo_state, yield_counts = state
        self._state.restore_state(algo_state)
        self._yield_counts = dict(yield_counts)


class RoundRobinPolicy(SchedulingPolicy):
    """Deterministic round-robin over a fixed thread order.

    Fair but not demonic: it yields exactly one schedule.  Used in tests
    and ablations to demonstrate why fairness alone is insufficient for
    coverage (Section 2).
    """

    name = "round-robin"
    is_fair = True

    def __init__(self) -> None:
        self._order: list = []
        self._last: Optional[Tid] = None

    def register_thread(self, tid: Tid) -> None:
        if tid not in self._order:
            self._order.append(tid)

    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        if not enabled:
            return frozenset()
        for tid in enabled:
            if tid not in self._order:
                self._order.append(tid)
        if self._last in self._order:
            start = self._order.index(self._last) + 1
        else:
            start = 0
        n = len(self._order)
        for offset in range(n):
            candidate = self._order[(start + offset) % n]
            if candidate in enabled:
                return frozenset({candidate})
        return frozenset()

    def observe_step(self, info: StepInfo) -> None:
        self._last = info.tid
        for spawned in info.spawned:
            self.register_thread(spawned)

    def snapshot_state(self) -> object:
        return (tuple(self._order), self._last)

    def restore_state(self, state: object) -> None:
        order, last = state
        self._order = list(order)
        self._last = last


def fair_policy(k: int = 1, *, check_acyclic: bool = False) -> PolicyFactory:
    """Factory of :class:`FairPolicy` instances for the exploration engine."""
    return lambda: FairPolicy(k, check_acyclic=check_acyclic)


def nonfair_policy() -> PolicyFactory:
    """Factory of :class:`NonfairPolicy` instances."""
    return NonfairPolicy


def round_robin_policy() -> PolicyFactory:
    """Factory of :class:`RoundRobinPolicy` instances."""
    return RoundRobinPolicy
