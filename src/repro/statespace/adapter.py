"""Run explicit transition systems under the stateless engine.

The adapter wraps a :class:`~repro.statespace.transition_system.TransitionSystem`
as a :class:`~repro.core.model.Program`, so every strategy and policy —
including Algorithm 1 — applies unchanged to explicit models.  The
instance's signature is the state value itself, which makes coverage
measurement exact.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple

from repro.core.model import Program, ProgramInstance, StepInfo
from repro.statespace.transition_system import TransitionSystem


class TransitionSystemInstance(ProgramInstance):
    """One execution of an explicit transition system."""

    def __init__(self, system: TransitionSystem) -> None:
        self._system = system
        self.state = system.initial

    def thread_ids(self) -> FrozenSet:
        return self._system.thread_ids()

    def enabled_threads(self) -> FrozenSet:
        return self._system.enabled_threads(self.state)

    def is_yielding(self, tid) -> bool:
        return self._system.is_yielding(self.state, tid)

    def has_live_threads(self) -> bool:
        # Explicit systems do not distinguish "finished" from "disabled";
        # a state with no enabled thread is simply terminal (the paper's
        # deadlock/termination distinction is a runtime-level notion).
        return False

    def step(self, tid) -> StepInfo:
        before = self.enabled_threads()
        yielded = self._system.is_yielding(self.state, tid)
        self.state = self._system.next_state(self.state, tid)
        return StepInfo(
            tid=tid,
            enabled_before=before,
            enabled_after=self.enabled_threads(),
            yielded=yielded,
            operation=f"{tid}@{self.state!r}",
            thread_name=str(tid),
        )

    def state_signature(self) -> Hashable:
        return self.state

    # -- partial-order reduction hooks ---------------------------------
    def pending_resources(self, tid) -> Optional[Tuple]:
        """Declared footprint of ``tid``'s next transition (None when the
        thread declares none — conservatively dependent with everything).
        Consulted by the DPOR strategy's race analysis."""
        return self._system.pending_resources(self.state, tid)

    def live_threads(self) -> FrozenSet:
        """Threads that may still take a step in some extension.

        Explicit systems report no-enabled as TERMINATED even when
        threads are merely blocked, so partial-order strategies must ask
        here — a blocked-but-live thread's pending transition still
        participates in race analysis.
        """
        return self._system.live_threads(self.state)


class TransitionSystemProgram(Program):
    """Program factory over a transition system (instances share the pure
    system object; only the current state is per-instance)."""

    def __init__(self, system: TransitionSystem) -> None:
        self._system = system
        self.name = system.name

    def instantiate(self) -> TransitionSystemInstance:
        return TransitionSystemInstance(self._system)

    @property
    def system(self) -> TransitionSystem:
        return self._system
