"""Replay recorded schedules — counterexample reproduction.

Because every execution is fully determined by its decision sequence, a
violation or livelock found by the search can be replayed exactly, with
full trace recording, for debugging.  The same policy (and configuration)
used during the search must be supplied: the fair policy shapes the
schedulable sets, and the preemption bound and a strategy's reducer hook
narrow them further, so decision indices are only meaningful relative to
all three.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import Decision, ExecutionResult


def replay_schedule(
    program: Program,
    schedule: Union[Sequence[int], Sequence[Decision]],
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
    *,
    trace_window: int = 100_000,
    reducer: Optional[type] = None,
    bound: Optional[int] = None,
) -> ExecutionResult:
    """Re-run an execution from its recorded schedule with a full trace.

    ``schedule`` is either a plain list of decision indices
    (``ExecutionResult.schedule``) or the decision list itself.  Its
    indices are relative to the recording strategy's ``reducer`` hook
    class (``SearchStrategy.reducer``: sleep-set POR indexes the awake
    options only) and to the preemption ``bound`` it ran under
    (``ExecutionResult.preemption_bound``; None keeps ``config``'s).
    """
    indices = [
        d.index if isinstance(d, Decision) else int(d) for d in schedule
    ]
    config = dataclasses.replace(
        config or ExecutorConfig(), trace_window=trace_window,
    )
    if bound is not None:
        config = dataclasses.replace(config, preemption_bound=bound)
    hook = None if reducer is None else reducer(indices)
    return run_execution(
        program,
        policy_factory(),
        hook or GuidedChooser(indices),
        config,
        reducer=hook,
    )


def explain_deadlock(
    program: Program,
    record: ExecutionResult,
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
    *,
    reducer: Optional[type] = None,
) -> str:
    """Replay a deadlocked execution and describe who waits on what.

    Returns one line per live thread with the operation it is blocked on
    — the wait-for information a user needs to see the cycle.
    """
    config = dataclasses.replace(
        config or ExecutorConfig(), keep_instance=True,
    )
    replayed = replay_schedule(program, record.decisions, policy_factory,
                               config, trace_window=4096, reducer=reducer,
                               bound=record.preemption_bound)
    instance = replayed.final_instance
    if instance is None:
        return "no final state available"
    lines = []
    task_getter = getattr(instance, "task", None)
    for tid in sorted(instance.thread_ids(), key=repr):
        task = task_getter(tid) if task_getter is not None else None
        if task is None or task.done:
            continue
        pending = task.pending.describe() if task.pending else "nothing"
        lines.append(f"  {task.name} blocked on {pending}")
    closer = getattr(instance, "close", None)
    if closer is not None:
        closer()
    if not lines:
        return "no blocked threads (the execution did not deadlock)"
    return "deadlock wait-for set:\n" + "\n".join(lines)
