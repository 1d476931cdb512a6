"""Classify divergent executions: livelock vs good-samaritan violation.

The fair scheduler's two liveness outcomes (Section 2 of the paper) both
manifest the same way in practice: an execution exceeds a depth bound set
orders of magnitude above the expected execution length.  The user then
"examines" the execution; this module automates that examination over the
recorded trace suffix:

* some thread is scheduled heavily in the suffix without ever yielding
  ⇒ **good-samaritan violation** (Figure 7's spinning worker);
* every thread that was enabled in the suffix was also scheduled and the
  scheduled threads keep yielding ⇒ a **fair** infinite execution, i.e. a
  **livelock** (Figure 1's philosophers, Figure 8's stale-read spin);
* some thread that is still enabled at the end of the suffix was never
  scheduled in it ⇒ **unfair divergence** — impossible under the fair
  policy by Theorem 1, and evidence of wasted work when it shows up in
  unfair baseline runs.  (A thread that was enabled early in the suffix
  but blocked or finished before its end was not starved — it left the
  race on its own.)
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence, Set

from repro.core.model import StepInfo
from repro.engine.results import DivergenceKind, DivergenceReport


def classify_divergence(
    trace: Sequence[StepInfo],
    *,
    window: int = 256,
    gs_schedule_threshold: int = 8,
    observer=None,
) -> DivergenceReport:
    """Analyze the suffix of a divergent execution.

    Parameters
    ----------
    trace:
        The recorded steps (possibly already truncated to a suffix).
    window:
        How many trailing steps to analyze.  Must be small relative to the
        divergence bound and large relative to the program's cycles.
    gs_schedule_threshold:
        Minimum number of times a thread must run yield-free inside the
        window to be blamed for a good-samaritan violation.
    observer:
        Optional :class:`repro.obs.observer.Observer`; the analysis is
        charged to its ``classify`` phase timer.
    """
    if observer is not None:
        with observer.timers.measure("classify"):
            return _classify(trace, window, gs_schedule_threshold)
    return _classify(trace, window, gs_schedule_threshold)


def _classify(
    trace: Sequence[StepInfo],
    window: int,
    gs_schedule_threshold: int,
) -> DivergenceReport:
    steps = list(trace)[-window:]
    if not steps:
        return DivergenceReport(
            kind=DivergenceKind.UNFAIR,
            culprits=(),
            window=0,
            detail="divergence with no recorded trace",
        )

    scheduled: Counter = Counter()
    yields: Counter = Counter()
    names = {}
    enabled_somewhere: Set = set()
    for step in steps:
        scheduled[step.tid] += 1
        names[step.tid] = step.thread_name
        if step.yielded:
            yields[step.tid] += 1
        enabled_somewhere.update(step.enabled_before)

    non_yielders = sorted(
        (
            names[tid]
            for tid, count in scheduled.items()
            if count >= gs_schedule_threshold and yields[tid] == 0
        ),
    )
    if non_yielders:
        return DivergenceReport(
            kind=DivergenceKind.GOOD_SAMARITAN_VIOLATION,
            culprits=tuple(non_yielders),
            window=len(steps),
            detail=(
                f"thread(s) {', '.join(non_yielders)} scheduled repeatedly "
                f"without yielding in the last {len(steps)} steps "
                f"(idle spinning burns the time slice)"
            ),
        )

    # Starvation requires the thread to *still* be enabled near the end of
    # the window: a thread that was enabled early on and then blocked (or
    # finished) was not starved by the scheduler — it left the race.  Only
    # threads enabled in the trailing quarter of the window and never
    # scheduled anywhere in it count as starved.
    tail_start = max(0, len(steps) - max(1, len(steps) // 4))
    enabled_in_tail: Set = set()
    for step in steps[tail_start:]:
        enabled_in_tail.update(step.enabled_before)
    starved = sorted(
        str(names.get(tid, tid))
        for tid in enabled_in_tail
        if scheduled[tid] == 0
    )
    if starved:
        return DivergenceReport(
            kind=DivergenceKind.UNFAIR,
            culprits=tuple(starved),
            window=len(steps),
            detail=(
                f"enabled thread(s) {', '.join(starved)} starved in the last "
                f"{len(steps)} steps: the divergence is an unfair schedule, "
                f"not a program error"
            ),
        )

    participants = sorted(names[tid] for tid in scheduled)
    return DivergenceReport(
        kind=DivergenceKind.LIVELOCK,
        culprits=tuple(participants),
        window=len(steps),
        detail=(
            f"fair nonterminating execution: thread(s) "
            f"{', '.join(participants)} all keep running and yielding but "
            f"the program makes no progress"
        ),
    )
