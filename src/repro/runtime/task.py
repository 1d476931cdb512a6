"""Tasks: the threads of a program under test.

A task wraps a Python generator.  The generator yields
:class:`~repro.runtime.ops.Operation` descriptors; between yields it runs
ordinary Python code, which the checker treats as atomic (a transition is
"execute the pending operation, then run to the next scheduling point").
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.runtime.errors import PropertyViolation, TaskCrash
from repro.runtime.ops import Operation, StartOp

_START = StartOp()


class TaskState(enum.Enum):
    READY = "ready"
    FINISHED = "finished"
    FAILED = "failed"


class Task:
    """One thread of the program under test."""

    __slots__ = ("tid", "name", "_gen", "pending", "state", "result",
                 "exception", "_started")

    def __init__(self, tid: int, name: str,
                 gen: Generator[Operation, Any, Any]) -> None:
        self.tid = tid
        self.name = name
        self._gen = gen
        #: Operation the task will perform when next scheduled.
        self.pending: Optional[Operation] = _START
        self.state = TaskState.READY
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the task finished, normally or by crashing."""
        return self.state is not TaskState.READY

    @property
    def failed(self) -> bool:
        return self.state is TaskState.FAILED

    # ------------------------------------------------------------------
    def advance(self, send_value: Any) -> None:
        """Resume the generator until its next yield (or completion).

        ``send_value`` is the result of the operation just executed.  A
        normal ``return`` finishes the task; any exception marks it failed
        and is re-raised wrapped in :class:`TaskCrash` unless it is already
        a :class:`~repro.runtime.errors.PropertyViolation`.
        """
        try:
            if self._started:
                self.pending = self._gen.send(send_value)
            else:
                self._started = True
                self.pending = next(self._gen)
        except StopIteration as stop:
            self.state = TaskState.FINISHED
            self.pending = None
            self.result = stop.value
        except PropertyViolation as violation:
            self.state = TaskState.FAILED
            self.pending = None
            self.exception = violation
            if violation.tid is None:
                violation.tid = self.tid
            raise
        except Exception as exc:  # noqa: BLE001 - program under test crashed
            self.state = TaskState.FAILED
            self.pending = None
            self.exception = exc
            raise TaskCrash(
                f"thread {self.name!r} crashed: {exc!r}",
                tid=self.tid,
                original=exc,
            ) from exc
        else:
            if not isinstance(self.pending, Operation):
                bad = self.pending
                self.state = TaskState.FAILED
                self.pending = None
                raise TaskCrash(
                    f"thread {self.name!r} yielded {bad!r}, which is not an "
                    f"Operation — did you forget 'yield from' on a sync call?",
                    tid=self.tid,
                )

    def __repr__(self) -> str:
        op = self.pending.describe() if self.pending else "-"
        return f"<Task {self.tid} {self.name!r} {self.state.value} pending={op}>"
