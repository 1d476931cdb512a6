"""Benchmark regression comparison: diff two BENCH_*.json documents.

``repro bench compare BASELINE.json CURRENT.json`` guards the BENCH
trajectory: nothing else stops a future change from silently regressing
the hotpath's 7× replayed-steps win or the parallel speedup.  The
comparator understands the shared BENCH schema (top-level ``bench`` /
``entries``; entries keyed by ``(program, strategy)``; runs keyed by
their identity field — ``snapshot_cache`` for hotpath, ``workers`` for
parallel) and applies per-metric direction rules:

* ``seconds`` — lower is better, compared with a relative noise
  tolerance (default ±20%);
* ``speedup``, ``replayed_reduction``, ``cache_speedup`` — higher is
  better, same tolerance.  ``cache_speedup`` (wall-off / wall-on) is
  the hotpath's gated wall-clock metric: a ratio measured on one host
  transfers to another, where absolute seconds do not;
* ``ok``, ``executions``, ``transitions`` — determinism contract:
  any mismatch is a regression regardless of tolerance;
* ``replayed_steps``, ``restored_steps``, ``snapshot_hits``,
  ``snapshot_misses`` — informational (the replayed-step cut is already
  gated through the ``replayed_reduction`` ratio);
* provenance/config fields (``host``, ``cpu_count``, ``scale``,
  ``depth_bound``, ...) — differences become warnings, never
  regressions, because a config drift makes the timing comparison
  suspect rather than wrong.

Wall-clock comparisons additionally ignore values below a small noise
floor (20ms) where scheduler jitter dominates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Default relative noise tolerance for timing-ish metrics.
DEFAULT_TOLERANCE = 0.2

#: Seconds below this are scheduler jitter, not signal.
NOISE_FLOOR_SECONDS = 0.02

#: metric -> "lower" | "higher" (which direction is better).
_DIRECTION = {
    "seconds": "lower",
    "speedup": "higher",
    "replayed_reduction": "higher",
    "cache_speedup": "higher",
}

#: Determinism contract: must match exactly between runs.
_EXACT = ("ok", "executions", "transitions")

#: Interesting but not gated.
_INFO = ("replayed_steps", "restored_steps", "snapshot_hits",
         "snapshot_misses", "capture_seconds", "restore_seconds")

#: Entry/document fields treated as provenance: drift warns.
_PROVENANCE = (
    "scale", "cpu_count", "host", "platform", "python", "worker_counts",
    "depth_bound", "preemption_bound", "snapshot_interval",
    "max_executions",
)

#: Run identity fields, in probe order.
_RUN_KEYS = ("snapshot_cache", "workers")


@dataclass
class ComparedValue:
    """One metric compared between baseline and current."""

    path: str  # e.g. "dining(3)/dfs workers=4"
    metric: str
    baseline: object
    current: object
    status: str  # "ok" | "regression" | "improvement" | "info" | "drift"
    change: Optional[float] = None  # relative change, when numeric

    def describe(self) -> str:
        delta = f" ({self.change:+.1%})" if self.change is not None else ""
        return (f"{self.status:<11} {self.path} {self.metric}: "
                f"{self.baseline!r} -> {self.current!r}{delta}")


@dataclass
class BenchComparison:
    """The full diff of two BENCH documents."""

    bench: str
    tolerance: float
    values: List[ComparedValue] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[ComparedValue]:
        return [v for v in self.values if v.status == "regression"]

    @property
    def improvements(self) -> List[ComparedValue]:
        return [v for v in self.values if v.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary(self) -> str:
        lines = [f"bench compare: {self.bench} "
                 f"(tolerance ±{self.tolerance:.0%})"]
        interesting = [v for v in self.values
                       if v.status in ("regression", "improvement", "drift")]
        for value in interesting:
            lines.append("  " + value.describe())
        if not interesting:
            lines.append("  no changes beyond tolerance")
        lines.extend(f"  warning: {w}" for w in self.warnings)
        checked = sum(1 for v in self.values if v.status != "info")
        lines.append(
            f"result: {'OK' if self.ok else 'REGRESSION'} "
            f"({checked} metrics checked, {len(self.regressions)} "
            f"regressions, {len(self.improvements)} improvements)"
        )
        return "\n".join(lines)


def load_bench(path: str) -> Dict[str, object]:
    """Read one BENCH_*.json document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "entries" not in document:
        raise ValueError(
            f"{path}: not a BENCH document (expected an object with "
            f"an 'entries' array)"
        )
    return document


def _entry_key(entry: Dict[str, object]) -> Tuple[str, str]:
    return (str(entry.get("program", "?")), str(entry.get("strategy", "?")))


def _run_identity(run: Dict[str, object]) -> str:
    for key in _RUN_KEYS:
        if key in run:
            return f"{key}={run[key]}"
    return "run"


def _relative_change(baseline: float, current: float) -> Optional[float]:
    if baseline == 0:
        return None if current == 0 else float("inf")
    return (current - baseline) / abs(baseline)


class _Differ:
    def __init__(self, comparison: BenchComparison) -> None:
        self.comparison = comparison

    def exact(self, path: str, metric: str, baseline, current) -> None:
        status = "ok" if baseline == current else "regression"
        self.comparison.values.append(ComparedValue(
            path=path, metric=metric, baseline=baseline, current=current,
            status=status,
        ))

    def info(self, path: str, metric: str, baseline, current) -> None:
        self.comparison.values.append(ComparedValue(
            path=path, metric=metric, baseline=baseline, current=current,
            status="info",
        ))

    def provenance(self, path: str, metric: str, baseline, current) -> None:
        status = "ok" if baseline == current else "drift"
        self.comparison.values.append(ComparedValue(
            path=path, metric=metric, baseline=baseline, current=current,
            status=status,
        ))

    def directional(self, path: str, metric: str, baseline, current,
                    direction: str) -> None:
        tolerance = self.comparison.tolerance
        try:
            base = float(baseline)
            cur = float(current)
        except (TypeError, ValueError):
            self.exact(path, metric, baseline, current)
            return
        change = _relative_change(base, cur)
        status = "ok"
        if metric == "seconds" and max(abs(base), abs(cur)) < NOISE_FLOOR_SECONDS:
            pass  # below the jitter floor: never gate
        elif change is None:
            pass
        elif direction == "lower":
            if change > tolerance:
                status = "regression"
            elif change < -tolerance:
                status = "improvement"
        else:  # higher is better
            if change < -tolerance:
                status = "regression"
            elif change > tolerance:
                status = "improvement"
        self.comparison.values.append(ComparedValue(
            path=path, metric=metric, baseline=baseline, current=current,
            status=status, change=change,
        ))

    def mapping(self, path: str, baseline: Dict[str, object],
                current: Dict[str, object], *, skip=()) -> None:
        """Diff the scalar fields of two mapping nodes by rule table."""
        for metric in baseline:
            if metric in skip:
                continue
            if metric not in current:
                self.comparison.warnings.append(
                    f"{path}: {metric} missing from current")
                continue
            base, cur = baseline[metric], current[metric]
            if metric in _DIRECTION:
                self.directional(path, metric, base, cur, _DIRECTION[metric])
            elif metric in _EXACT:
                self.exact(path, metric, base, cur)
            elif metric in _INFO:
                self.info(path, metric, base, cur)
            elif metric in _PROVENANCE:
                self.provenance(path, metric, base, cur)
        for metric in current:
            if metric not in baseline and metric not in skip:
                self.comparison.warnings.append(
                    f"{path}: {metric} new in current")


def compare_bench(
    baseline: Dict[str, object],
    current: Dict[str, object],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Diff two loaded BENCH documents; regressions gate CI."""
    comparison = BenchComparison(
        bench=str(baseline.get("bench", "?")), tolerance=tolerance)
    differ = _Differ(comparison)
    if baseline.get("bench") != current.get("bench"):
        comparison.warnings.append(
            f"comparing different benches: {baseline.get('bench')!r} vs "
            f"{current.get('bench')!r}"
        )
    differ.mapping("document", baseline, current, skip=("entries", "bench"))

    current_entries = {_entry_key(e): e
                       for e in current.get("entries", [])}
    for entry in baseline.get("entries", []):
        key = _entry_key(entry)
        path = f"{key[0]}/{key[1]}"
        other = current_entries.pop(key, None)
        if other is None:
            comparison.warnings.append(f"{path}: entry missing from current")
            continue
        differ.mapping(path, entry, other,
                       skip=("runs", "program", "strategy"))
        current_runs = {_run_identity(r): r for r in other.get("runs", [])}
        for run in entry.get("runs", []):
            identity = _run_identity(run)
            run_path = f"{path} {identity}"
            other_run = current_runs.pop(identity, None)
            if other_run is None:
                comparison.warnings.append(
                    f"{run_path}: run missing from current")
                continue
            differ.mapping(run_path, run, other_run,
                           skip=tuple(k for k in _RUN_KEYS if k in run))
        for identity in current_runs:
            comparison.warnings.append(
                f"{path} {identity}: run new in current")
    for key in current_entries:
        comparison.warnings.append(
            f"{key[0]}/{key[1]}: entry new in current")
    return comparison
