"""Abstract program model used by the exploration engine.

The paper formalizes a multithreaded program as a set of threads over a
shared state with two state predicates per thread: ``enabled(t)`` and
``yield(t)`` (true iff ``t`` is enabled and executing ``t`` results in a
yield), plus a function ``NextState(s, t)``.

Two concrete models implement this interface:

* :class:`repro.runtime.vm.VirtualMachine` — executions of real Python
  workloads written against the instrumented :mod:`repro.sync` primitives
  (the CHESS-style runtime); and
* :class:`repro.statespace.adapter.TransitionSystemInstance` — explicit
  finite-state transition systems used for theory validation and for the
  stateful ground-truth searches of Table 2.

The engine is *stateless*: it never snapshots a :class:`ProgramInstance`.
To revisit a prefix it asks the :class:`Program` factory for a fresh
instance and replays the recorded choices.
"""

from __future__ import annotations

import abc
import enum
from typing import FrozenSet, Hashable, NamedTuple, Optional, Tuple

Tid = Hashable


class RunStatus(enum.Enum):
    """Lifecycle of one program execution."""

    RUNNING = "running"
    TERMINATED = "terminated"  # every thread finished
    DEADLOCK = "deadlock"  # unfinished threads exist but none is enabled


class StepInfo(NamedTuple):
    """Observation of one transition, consumed by scheduling policies.

    Attributes mirror the quantities Algorithm 1 reads at each loop
    iteration: the enabled sets before/after the step and whether the
    executed transition was a yielding one (``curr.yield(t)``).  One is
    built per transition, hence an immutable ``NamedTuple``: it is about
    three times cheaper to construct than a frozen dataclass.
    """

    tid: Tid
    enabled_before: FrozenSet[Tid]
    enabled_after: FrozenSet[Tid]
    yielded: bool
    spawned: Tuple[Tid, ...] = ()
    operation: str = ""


class ProgramInstance(abc.ABC):
    """One live execution of a program."""

    @abc.abstractmethod
    def thread_ids(self) -> FrozenSet[Tid]:
        """Ids of all threads that exist so far (running or finished)."""

    @abc.abstractmethod
    def enabled_threads(self) -> FrozenSet[Tid]:
        """The set ``ES`` of the current state."""

    @abc.abstractmethod
    def is_yielding(self, tid: Tid) -> bool:
        """The predicate ``yield(t)``: ``t`` is enabled and executing it
        from the current state performs a yield."""

    @abc.abstractmethod
    def step(self, tid: Tid) -> StepInfo:
        """Execute one transition of ``tid`` (``NextState``).

        Raises :class:`repro.runtime.errors.PropertyViolation` (or a
        subclass) if the transition violates a safety property.
        """

    def status(self) -> RunStatus:
        if self.enabled_threads():
            return RunStatus.RUNNING
        if self.has_live_threads():
            return RunStatus.DEADLOCK
        return RunStatus.TERMINATED

    @abc.abstractmethod
    def has_live_threads(self) -> bool:
        """True iff some thread exists that has not finished."""

    def state_signature(self) -> Optional[Hashable]:
        """A hashable abstraction of the current state, or ``None``.

        The paper measures state coverage by *manually added* state
        extraction (Section 4.2.1); models that support it return a
        canonical, hashable signature here.
        """
        return None


class Program(abc.ABC):
    """Factory producing fresh, deterministic executions of one program."""

    name: str = "program"

    @abc.abstractmethod
    def instantiate(self) -> ProgramInstance:
        """Create a new instance at the initial state.

        Successive instances must be *identical*: the engine relies on
        deterministic replay (same choices ⇒ same execution).
        """
