"""Disabled-profiler overhead: the nil-guard must stay under 2%.

The decision profiler hangs off the executor inner loop, the hottest
code in the repo; docs/profiling.md promises that with no profiler
attached the only cost is ``profiler is not None`` checks.  This
benchmark measures that promise two ways:

* the gate — a micro-measurement of the guard itself against the
  measured per-transition cost of a counted ``observer=None`` search:
  the executor runs ~3 guards per transition, and even a 10-guard
  budget must stay under 2% of a transition.  The guard is timed in a
  loop and the same loop without it is timed alongside (best of
  ``ROUNDS`` each); the difference is the guard's own cost, so the
  loop's overhead is not charged to it;
* context — an A/B sweep against an observer *with* metrics but no
  profiler, reported (not gated: the observer's metrics recording
  legitimately costs more than the profiler guards).
"""

import time

from repro.bench.tables import format_table
from repro.checker import Checker
from repro.engine.strategies import ExplorationLimits  # noqa: F401  (doc link)
from repro.workloads.dining import dining_philosophers

ROUNDS = 5
#: Iterations per timed guard loop.
GUARD_LOOPS = 1_000_000


def run_counted(observer):
    checker = Checker(
        dining_philosophers(2),
        depth_bound=300,
        stop_on_first_violation=False,
        stop_on_first_divergence=False,
        handle_signals=False,
        observer=observer,
    )
    start = time.perf_counter()
    result = checker.run()
    seconds = time.perf_counter() - start
    return result.exploration.transitions, seconds


def best_per_transition(make_observer):
    """Best-of-ROUNDS per-transition seconds (min filters scheduler
    noise, the standard microbenchmark reduction)."""
    best = float("inf")
    transitions = 0
    for _ in range(ROUNDS):
        transitions, seconds = run_counted(make_observer())
        best = min(best, seconds / transitions)
    return transitions, best


def guard_loop_seconds(profiler):
    """Per-iteration seconds of a loop running the executor's guard."""
    start = time.perf_counter()
    for _ in range(GUARD_LOOPS):
        if profiler is not None:  # pragma: no cover - never taken
            raise AssertionError
    return (time.perf_counter() - start) / GUARD_LOOPS


def empty_loop_seconds():
    """Per-iteration seconds of the same loop without the guard."""
    start = time.perf_counter()
    for _ in range(GUARD_LOOPS):
        pass
    return (time.perf_counter() - start) / GUARD_LOOPS


def test_disabled_profiler_overhead(report):
    transitions, base = best_per_transition(lambda: None)

    def bare_observer():
        from repro.obs import Observer

        return Observer()  # no profiler attached: the disabled path

    _, guarded = best_per_transition(bare_observer)

    # The gate: the cost of the guard the executor actually runs, net
    # of the loop that repeats it.  Alternate the two loops so host
    # drift hits both sides alike.
    raw_guard = empty_loop = float("inf")
    for _ in range(ROUNDS):
        raw_guard = min(raw_guard, guard_loop_seconds(None))
        empty_loop = min(empty_loop, empty_loop_seconds())
    guard_seconds = max(raw_guard - empty_loop, 0.0)

    report("profiler_overhead", format_table(
        ["variant", "per-transition", "vs baseline"],
        [
            ["observer=None", f"{base * 1e6:.2f}us", "1.00x"],
            ["observer, no profiler", f"{guarded * 1e6:.2f}us",
             f"{guarded / base:.3f}x"],
            ["nil-guard + loop", f"{raw_guard * 1e9:.1f}ns",
             f"{raw_guard / base:.2e}x"],
            ["empty loop", f"{empty_loop * 1e9:.1f}ns",
             f"{empty_loop / base:.2e}x"],
            ["net nil-guard", f"{guard_seconds * 1e9:.1f}ns",
             f"{guard_seconds / base:.2e}x"],
        ],
        title=f"Disabled-profiler overhead — dining(2) counted DFS, "
              f"{transitions} transitions, best of {ROUNDS}",
    ))

    # The executor adds ~3 guards per transition; gate a 10-guard
    # budget so the bound survives future call sites.
    assert 10 * guard_seconds < 0.02 * base, (
        f"nil-guard cost {guard_seconds * 1e9:.0f}ns per check is not "
        f"negligible against {base * 1e6:.2f}us per transition"
    )
    # Context only (never gated): the observer path pays for metrics
    # recording, not for the profiler.
    assert guarded > 0


def test_enabled_profiler_smoke(report):
    """Profiling enabled must stay sane (not gated, reported)."""
    from repro.obs import Observer
    from repro.obs.profile import DecisionProfiler

    profiler = DecisionProfiler()
    transitions, seconds = run_counted(Observer(profiler=profiler))
    assert profiler.total_seconds > 0
    attributed = sum(node.steps for _, node in profiler.walk())
    assert attributed >= transitions
    report("profiler_enabled", format_table(
        ["metric", "value"],
        [
            ["wall seconds", f"{seconds:.3f}"],
            ["attributed seconds", f"{profiler.total_seconds:.3f}"],
            ["tree nodes", profiler.nodes],
            ["attributed steps", attributed],
        ],
        title="Enabled-profiler smoke — dining(2) counted DFS",
    ))
