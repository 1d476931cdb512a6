"""Phase timers: split exploration wall time into engine phases.

The executor inner loop has six distinguishable costs, and the search
around it a seventh:

* ``policy`` — computing the schedulable set ``T`` from ``ES``
  (Algorithm 1's bookkeeping lives here);
* ``schedule`` — resolving the nondeterministic choice (chooser);
* ``execute`` — running the chosen transition and its monitors;
* ``hash`` — state-signature computation for coverage tracking;
* ``classify`` — divergence classification at the depth bound;
* ``snapshot`` — prefix-snapshot capture and restore
  (docs/performance.md);
* ``analysis`` — a strategy's own work between executions: source-DPOR's
  race analysis and backtracking, one sample per execution.

Timers use :func:`time.perf_counter` pairs added manually at the call
sites (a context manager per transition would dominate the measurement);
:meth:`measure` exists for the coarse-grained sites.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

#: Canonical phase order for reports.
PHASES: Tuple[str, ...] = ("policy", "schedule", "execute", "hash",
                           "classify", "snapshot", "analysis")


class PhaseTimers:
    """Accumulated seconds and sample counts per phase."""

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - start)

    def seconds(self, phase: str) -> float:
        return self.totals.get(phase, 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.totals.values())

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            phase: {
                "seconds": self.totals[phase],
                "samples": self.counts.get(phase, 0),
            }
            for phase in sorted(self.totals)
        }

    def summary(self) -> str:
        """Phase table with share of the measured total."""
        if not self.totals:
            return "(no phases timed)"
        total = self.total_seconds or 1.0
        ordered = [p for p in PHASES if p in self.totals]
        ordered += [p for p in sorted(self.totals) if p not in PHASES]
        lines = [f"{'phase':<10} {'seconds':>10} {'share':>7} {'samples':>9}"]
        for phase in ordered:
            seconds = self.totals[phase]
            lines.append(
                f"{phase:<10} {seconds:>10.4f} "
                f"{100.0 * seconds / total:>6.1f}% "
                f"{self.counts.get(phase, 0):>9}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<PhaseTimers {self.totals!r}>"
