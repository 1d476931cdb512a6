"""Trace analysis helpers for debugging counterexamples.

When the checker hands you a failing schedule, the first question is
usually "how does it differ from a passing one?".  These helpers answer
it textually:

* :func:`first_divergence` — index of the first differing transition of
  two traces;
* :func:`diff_traces` — a side-by-side rendering around the divergence
  point;
* :func:`thread_summary` — per-thread transition/yield counts of a trace
  (the quantities the divergence classifier reasons about).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.model import StepInfo


def first_divergence(left: Sequence[StepInfo],
                     right: Sequence[StepInfo]) -> Optional[int]:
    """Index of the first differing step, or None if one is a prefix of
    the other (equal-length identical traces included)."""
    for index, (a, b) in enumerate(zip(left, right)):
        if (a.tid, a.operation) != (b.tid, b.operation):
            return index
    return None


def _label(step: Optional[StepInfo]) -> str:
    if step is None:
        return "-"
    marker = " [yield]" if step.yielded else ""
    return f"{step.thread_name}: {step.operation}{marker}"


def diff_traces(left: Sequence[StepInfo], right: Sequence[StepInfo], *,
                context: int = 3,
                names: Tuple[str, str] = ("left", "right")) -> str:
    """Render both traces around their first divergence."""
    split = first_divergence(left, right)
    if split is None:
        if len(left) == len(right):
            return "traces are identical"
        split = min(len(left), len(right))
        note = (f"traces agree for {split} steps; "
                f"{names[0] if len(left) > len(right) else names[1]} "
                f"continues")
    else:
        note = f"traces diverge at step {split}"

    start = max(0, split - context)
    end = max(len(left), len(right))
    stop = min(end, split + context + 1)
    width = max([len(_label(step)) for step in left[start:stop]] + [8])

    lines = [note, f"{'step':>6}  {names[0]:<{width}}  {names[1]}"]
    for index in range(start, stop):
        a = left[index] if index < len(left) else None
        b = right[index] if index < len(right) else None
        marker = ">>" if index == split else "  "
        lines.append(
            f"{marker}{index:>4}  {_label(a):<{width}}  {_label(b)}"
        )
    return "\n".join(lines)


def thread_summary(trace: Sequence[StepInfo]) -> List[Tuple[str, int, int]]:
    """Per-thread (name, transitions, yields), sorted by transitions."""
    scheduled: Counter = Counter()
    yields: Counter = Counter()
    for step in trace:
        scheduled[step.thread_name] += 1
        if step.yielded:
            yields[step.thread_name] += 1
    return sorted(
        ((name, count, yields[name]) for name, count in scheduled.items()),
        key=lambda row: -row[1],
    )


def format_thread_summary(trace: Sequence[StepInfo]) -> str:
    rows = thread_summary(trace)
    lines = [f"{'thread':<16} {'transitions':>11} {'yields':>7}"]
    for name, transitions, yield_count in rows:
        lines.append(f"{name:<16} {transitions:>11} {yield_count:>7}")
    return "\n".join(lines)
