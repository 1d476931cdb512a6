"""Exception hierarchy for the runtime and the checker.

Safety violations detected during an execution are raised as subclasses of
:class:`PropertyViolation`; the exploration engine catches them, attaches
the replayable schedule, and reports them as counterexamples.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ScheduleError(ReproError):
    """The engine asked the runtime to do something impossible (internal).

    E.g. scheduling a disabled thread — indicates a bug in the caller, not
    in the program under test.
    """


class UnsupportedConfiguration(ReproError, ValueError):
    """A search refuses an option or a checkpoint it cannot honour soundly.

    E.g. a preemption bound under sleep sets or DPOR, or a checkpoint
    another strategy wrote.  A refusal is a usage error: the executor
    re-raises it even with crash capture on, and the CLI exits 2.
    """


class PropertyViolation(ReproError):
    """A safety property of the program under test was violated."""

    kind = "safety"

    def __init__(self, message: str, *, tid: Optional[object] = None) -> None:
        super().__init__(message)
        self.message = message
        self.tid = tid


class AssertionViolation(PropertyViolation):
    """An assertion in the program under test failed."""

    kind = "assertion"


class SyncUsageError(PropertyViolation):
    """A synchronization primitive was misused.

    Examples: releasing a mutex the thread does not own, releasing a
    semaphore above its maximum count, re-setting a completed promise.
    """

    kind = "sync-usage"


class DeadlockViolation(PropertyViolation):
    """All live threads are disabled (the paper's terminating-state check
    when unfinished threads remain)."""

    kind = "deadlock"


class ExecutionHung(ReproError):
    """A controlled thread failed to reach its next scheduling point
    within the execution watchdog's budget.

    Raised by the native runtime when a cooperative handshake times out;
    the executor converts it into an aborted execution
    (:attr:`repro.engine.results.Outcome.ABORTED`) instead of a verdict —
    a hung execution means the *test* could not be completed, not that a
    property failed.
    """

    def __init__(self, message: str, *, tid: Optional[object] = None) -> None:
        super().__init__(message)
        self.message = message
        self.tid = tid


class TaskCrash(PropertyViolation):
    """The program under test raised an unexpected exception."""

    kind = "crash"

    def __init__(self, message: str, *, tid: Optional[object] = None,
                 original: Optional[BaseException] = None) -> None:
        super().__init__(message, tid=tid)
        self.original = original
