"""Snapshot-cache amortization: does the prefix cache pay for itself?

ROADMAP open item 1 in one measurement.  The prefix-snapshot cache
removes replayed prefix transitions (a 7× step reduction on the hotpath
workload) at the price of capture/restore work per execution — with the
persistent policy-snapshot protocol that work is O(changed) structural
sharing rather than a deepcopy of scheduler state, but on a small
enough program even cheap captures can cost more than the replay they
save.  This module runs the hotpath sweep twice — cache off, cache on —
with full cost accounting enabled and answers with numbers instead of a
guess:

* **accounting** — per-capture and per-restore seconds, recorded by
  the executor into the ``snapshot.capture.seconds`` /
  ``snapshot.restore.seconds`` histograms.  Every ``perf_counter`` pair
  that feeds the ``snapshot`` phase timer also feeds one of these, so
  ``capture + restore`` accounts for (within noise, equals) the phase
  total;
* **amortization model** — the cache saves
  ``saved_steps × per_step_replay_seconds`` (per-step cost estimated
  from the cache-off run) and costs ``capture + restore`` seconds.
  The *break-even* per-step cost is ``overhead / saved_steps``: if a
  replayed transition costs less than that, the cache cannot win on
  this workload no matter how many steps it removes;
* **verdict** — recommend ``on`` only when the model nets positive AND
  the measured wall clock did not regress; either failure recommends
  ``off``.  (The model makes the verdict robust to machine noise; the
  measured delta keeps the model honest.)

``repro profile snapshots`` prints :func:`format_snapshot_report`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Measured wall-clock regressions beyond this fraction veto an "on"
#: verdict even when the amortization model nets positive.
DEFAULT_REGRESSION_TOLERANCE = 0.05


def _histogram_stats(metrics, name: str) -> Dict[str, object]:
    histogram = metrics.histogram(name)
    return {
        "count": histogram.count,
        "seconds": histogram.total,
        "mean_seconds": histogram.mean,
    }


def snapshot_amortization(
    program_factory: Callable[[], object],
    *,
    strategy: str = "dfs",
    depth_bound: int = 200,
    preemption_bound: Optional[int] = 2,
    snapshot_interval: int = 4,
    max_executions: Optional[int] = 250,
    regression_tolerance: float = DEFAULT_REGRESSION_TOLERANCE,
) -> Dict[str, object]:
    """Run the sweep cache-off then cache-on and amortize the costs.

    Defaults mirror ``benchmarks/test_hotpath.py`` so the report speaks
    to the committed BENCH_hotpath.json numbers.  Both runs must agree
    on verdict/executions/transitions (the cache is a pure
    optimization); a mismatch raises.
    """
    from repro.checker import Checker
    from repro.obs import Observer

    runs: List[Dict[str, object]] = []
    observers: List[Observer] = []
    for cached in (False, True):
        observer = Observer()
        start = time.perf_counter()
        result = Checker(
            program_factory(),
            strategy=strategy,
            depth_bound=depth_bound,
            preemption_bound=preemption_bound,
            max_executions=max_executions,
            snapshot_cache=cached,
            snapshot_interval=snapshot_interval,
            stop_on_first_violation=False,
            stop_on_first_divergence=False,
            handle_signals=False,
            observer=observer,
        ).run()
        wall = time.perf_counter() - start
        counters = observer.metrics
        runs.append({
            "snapshot_cache": cached,
            "wall_seconds": wall,
            "ok": result.ok,
            "executions": result.exploration.executions,
            "transitions": result.exploration.transitions,
            "replayed_steps":
                counters.counter("executions.replayed_steps").value,
            "restored_steps":
                counters.counter("executions.restored_steps").value,
            "snapshot_hits": counters.counter("snapshot.hits").value,
            "snapshot_misses": counters.counter("snapshot.misses").value,
        })
        observers.append(observer)
    off, on = runs
    for key in ("ok", "executions", "transitions"):
        if off[key] != on[key]:
            raise AssertionError(
                f"snapshot cache changed the search on {key}: "
                f"{on[key]!r} != {off[key]!r}"
            )

    on_metrics = observers[1].metrics
    capture = _histogram_stats(on_metrics, "snapshot.capture.seconds")
    restore = _histogram_stats(on_metrics, "snapshot.restore.seconds")
    phase_seconds = observers[1].timers.totals.get("snapshot", 0.0)
    accounted = float(capture["seconds"]) + float(restore["seconds"])
    accounting = {
        "capture": capture,
        "restore": restore,
        "snapshot_phase_seconds": phase_seconds,
        "accounted_seconds": accounted,
        "accounted_fraction": (accounted / phase_seconds
                               if phase_seconds > 0 else None),
    }

    saved_steps = int(off["replayed_steps"]) - int(on["replayed_steps"])
    transitions = int(off["transitions"]) or 1
    per_step = float(off["wall_seconds"]) / transitions
    benefit = saved_steps * per_step
    overhead = accounted
    net = benefit - overhead
    measured_delta = float(on["wall_seconds"]) - float(off["wall_seconds"])
    model = {
        "saved_steps": saved_steps,
        "per_step_replay_seconds": per_step,
        "estimated_benefit_seconds": benefit,
        "overhead_seconds": overhead,
        "net_seconds": net,
        "break_even_per_step_seconds": (overhead / saved_steps
                                        if saved_steps > 0 else None),
        "measured_delta_seconds": measured_delta,
    }

    reasons: List[str] = []
    if net <= 0:
        reasons.append(
            f"model: capture+restore overhead ({overhead:.4f}s) exceeds the "
            f"estimated replay savings ({benefit:.4f}s)"
        )
    tolerance = regression_tolerance * float(off["wall_seconds"])
    if measured_delta > tolerance:
        reasons.append(
            f"measured: cache-on wall clock regressed by "
            f"{measured_delta:.4f}s "
            f"({measured_delta / float(off['wall_seconds']):+.1%})"
        )
    verdict = "off" if reasons else "on"
    if verdict == "on":
        reasons.append(
            f"model nets {net:+.4f}s and the measured wall clock did not "
            f"regress"
        )

    return {
        "program": program_factory().name,
        "strategy": strategy,
        "depth_bound": depth_bound,
        "preemption_bound": preemption_bound,
        "snapshot_interval": snapshot_interval,
        "max_executions": max_executions,
        "runs": runs,
        "accounting": accounting,
        "model": model,
        "verdict": verdict,
        "reasons": reasons,
    }


def format_snapshot_report(report: Dict[str, object]) -> str:
    """Human-readable text for ``repro profile snapshots``."""
    off, on = report["runs"]
    accounting = report["accounting"]
    capture = accounting["capture"]
    restore = accounting["restore"]
    model = report["model"]

    def seconds(value) -> str:
        return f"{float(value):.4f}s" if value is not None else "-"

    def mean_micros(value) -> str:
        return f"{float(value) * 1e6:.1f}us" if value is not None else "-"

    fraction = accounting["accounted_fraction"]
    lines = [
        f"snapshot amortization: {report['program']} "
        f"(strategy={report['strategy']}, depth_bound="
        f"{report['depth_bound']}, preemption_bound="
        f"{report['preemption_bound']}, interval="
        f"{report['snapshot_interval']}, max_executions="
        f"{report['max_executions']})",
        "",
        f"  cache off: wall={seconds(off['wall_seconds'])} "
        f"replayed_steps={off['replayed_steps']}",
        f"  cache on : wall={seconds(on['wall_seconds'])} "
        f"replayed_steps={on['replayed_steps']} "
        f"restored_steps={on['restored_steps']} "
        f"hits={on['snapshot_hits']} misses={on['snapshot_misses']}",
        "",
        "cost accounting (cache on):",
        f"  captures  {capture['count']:>6}  "
        f"total={seconds(capture['seconds'])}  "
        f"mean={mean_micros(capture['mean_seconds'])}",
        f"  restores  {restore['count']:>6}  "
        f"total={seconds(restore['seconds'])}  "
        f"mean={mean_micros(restore['mean_seconds'])}",
        f"  snapshot phase total={seconds(accounting['snapshot_phase_seconds'])}  "
        f"accounted={seconds(accounting['accounted_seconds'])}"
        + (f"  ({fraction:.1%})" if fraction is not None else ""),
        "",
        "amortization model:",
        f"  saved replayed steps      {model['saved_steps']}",
        f"  per-step replay cost      "
        f"{mean_micros(model['per_step_replay_seconds'])}",
        f"  estimated benefit         "
        f"{seconds(model['estimated_benefit_seconds'])}",
        f"  capture+restore overhead  {seconds(model['overhead_seconds'])}",
        f"  net                       {model['net_seconds']:+.4f}s",
        f"  break-even per-step cost  "
        f"{mean_micros(model['break_even_per_step_seconds'])}",
        f"  measured wall delta       "
        f"{model['measured_delta_seconds']:+.4f}s",
        "",
        f"verdict: snapshot cache {report['verdict'].upper()} "
        f"for this workload",
    ]
    lines.extend(f"  - {reason}" for reason in report["reasons"])
    return "\n".join(lines)
