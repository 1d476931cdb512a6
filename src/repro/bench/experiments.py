"""Experiment runners shared by the benchmark suite and EXPERIMENTS.md.

Each function reproduces the measurement behind one of the paper's tables
or figures, scaled by caps (executions / wall seconds) so the whole
harness runs on a laptop.  Cells that hit a cap are marked with ``*`` —
the same convention the paper uses for its 5000-second timeouts.

Timing goes through :class:`repro.obs.metrics.MetricsRegistry` timers
(histograms named ``<experiment>.seconds``) rather than ad-hoc
``perf_counter`` pairs, so benchmark output and checker telemetry share
one JSON schema; pass your own registry to accumulate measurements across
calls and export them with :meth:`MetricsRegistry.dump_json`.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.model import Program
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig, RandomChooser, run_execution
from repro.engine.results import ExplorationResult, Outcome
from repro.engine.strategies import ExplorationLimits, explore_dfs
from repro.obs.metrics import MetricsRegistry
from repro.statespace.stateful import stateful_search


def _registry(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    return metrics if metrics is not None else MetricsRegistry()


def bench_provenance() -> Dict[str, object]:
    """Machine identity stamped into benchmark JSON documents.

    ``repro bench compare`` reports differences in these fields as
    *drift* warnings: a baseline captured on another host or Python
    makes the timing comparison suspect rather than wrong.
    """
    import platform

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _record_search(registry: MetricsRegistry,
                   result: ExplorationResult) -> None:
    """Fold a search result into the shared checker-metrics schema."""
    registry.counter("executions").inc(result.executions)
    registry.counter("transitions").inc(result.transitions)
    if result.found_violation:
        registry.counter("violations").inc(len(result.violations))
        registry.counter("deadlocks").inc(len(result.deadlocks))
    if result.divergences:
        registry.counter("divergences").inc(len(result.divergences))

# ----------------------------------------------------------------------
# Figure 2: nonterminating executions vs depth bound
# ----------------------------------------------------------------------


def count_nonterminating_executions(
    program_factory: Callable[[], Program],
    depth_bound: int,
    *,
    max_executions: int = 200_000,
    max_seconds: float = 60.0,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[int, int, float]:
    """Unfair depth-bounded DFS; returns (nonterminating, executions, s)."""
    registry = _registry(metrics)
    with registry.timer("fig2.search") as timer:
        result = explore_dfs(
            program_factory(),
            nonfair_policy(),
            ExecutorConfig(depth_bound=depth_bound, on_depth_exceeded="prune"),
            ExplorationLimits(max_executions=max_executions,
                              max_seconds=max_seconds,
                              stop_on_first_violation=False,
                              stop_on_first_divergence=False),
        )
    _record_search(registry, result)
    return (result.nonterminating_executions, result.executions,
            timer.seconds)


# ----------------------------------------------------------------------
# Table 2 / Figures 5-6: state coverage and search time
# ----------------------------------------------------------------------

@dataclass
class CoverageCell:
    """One cell of Table 2."""

    strategy: str  # "cb=1".."cb=3" or "dfs"
    fair: bool
    depth_bound: Optional[int]  # None for fair runs
    total_states: int
    states: int
    executions: int
    seconds: float
    timed_out: bool

    @property
    def label(self) -> str:
        mark = "*" if self.timed_out else ""
        return f"{self.states}{mark}"

    @property
    def seconds_label(self) -> str:
        """The cell's time for Figs 5-6, ``*`` marking a budget hit."""
        mark = "*" if self.timed_out else ""
        return f"{self.seconds:.2f}{mark}"

    @property
    def full_coverage(self) -> bool:
        return self.states >= self.total_states


def _strategy_bound(strategy: str) -> Optional[int]:
    if strategy == "dfs":
        return None
    if strategy.startswith("cb="):
        return int(strategy.split("=", 1)[1])
    raise ValueError(f"unknown strategy {strategy!r}")


def measure_coverage(
    program_factory: Callable[[], Program],
    strategy: str,
    *,
    fair: bool,
    depth_bound: Optional[int] = None,
    divergence_bound: int = 400,
    total_states: Optional[int] = None,
    max_executions: int = 50_000,
    max_seconds: float = 20.0,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
) -> CoverageCell:
    """One Table 2 cell: run the search, count covered states.

    Fair runs use the divergence bound (they terminate by Theorem 2 on
    fair-terminating programs); unfair runs prune at ``depth_bound`` and
    finish each pruned execution with random search, as the paper does.
    """
    registry = _registry(metrics)
    preemption_bound = _strategy_bound(strategy)
    if total_states is None:
        truth = stateful_search(
            program_factory(), preemption_bound=preemption_bound,
            depth_bound=divergence_bound,
        )
        total_states = truth.count

    coverage = CoverageTracker()
    if fair:
        config = ExecutorConfig(depth_bound=divergence_bound,
                                on_depth_exceeded="divergence",
                                preemption_bound=preemption_bound, seed=seed)
    else:
        config = ExecutorConfig(depth_bound=depth_bound,
                                on_depth_exceeded="random-completion",
                                preemption_bound=preemption_bound, seed=seed)
    with registry.timer("coverage.search") as timer:
        result = explore_dfs(
            program_factory(),
            fair_policy() if fair else nonfair_policy(),
            config,
            ExplorationLimits(max_executions=max_executions,
                              max_seconds=max_seconds,
                              stop_on_first_violation=False,
                              stop_on_first_divergence=False),
            coverage=coverage,
        )
    _record_search(registry, result)
    registry.counter("states.new").inc(coverage.count)
    return CoverageCell(
        strategy=strategy,
        fair=fair,
        depth_bound=depth_bound,
        total_states=total_states,
        states=coverage.count,
        executions=result.executions,
        seconds=timer.seconds,
        timed_out=result.limit_hit,
    )


def table2_rows(
    program_factory: Callable[[], Program],
    *,
    strategies: Sequence[str] = ("cb=1", "cb=2", "cb=3", "dfs"),
    depth_bounds: Sequence[int] = (20, 30, 40),
    divergence_bound: int = 400,
    max_executions: int = 50_000,
    max_seconds: float = 15.0,
    metrics: Optional[MetricsRegistry] = None,
) -> List[List[object]]:
    """All cells for one program configuration of Table 2.

    Row format: [strategy, total, with-fairness, nf db=..., ...].
    """
    registry = _registry(metrics)
    rows: List[List[object]] = []
    for strategy in strategies:
        preemption_bound = _strategy_bound(strategy)
        truth = stateful_search(
            program_factory(), preemption_bound=preemption_bound,
            depth_bound=divergence_bound,
        )
        fair_cell = measure_coverage(
            program_factory, strategy, fair=True,
            divergence_bound=divergence_bound, total_states=truth.count,
            max_executions=max_executions, max_seconds=max_seconds,
            metrics=registry,
        )
        row: List[object] = [strategy, truth.count, fair_cell.label]
        cells = [fair_cell]
        for depth_bound in depth_bounds:
            cell = measure_coverage(
                program_factory, strategy, fair=False,
                depth_bound=depth_bound, divergence_bound=divergence_bound,
                total_states=truth.count,
                max_executions=max_executions, max_seconds=max_seconds,
                metrics=registry,
            )
            row.append(cell.label)
            cells.append(cell)
        row.append(cells)  # raw cells for assertions (stripped on print)
        rows.append(row)
    return rows


def search_times(
    program_factory: Callable[[], Program],
    *,
    strategies: Sequence[str] = ("cb=1", "cb=2", "cb=3"),
    depth_bounds: Sequence[int] = (20, 30, 40),
    divergence_bound: int = 400,
    max_executions: int = 50_000,
    max_seconds: float = 15.0,
    metrics: Optional[MetricsRegistry] = None,
) -> List[List[object]]:
    """Figures 5/6: time to complete the search, fair vs unfair-with-db."""
    registry = _registry(metrics)
    rows: List[List[object]] = []
    for strategy in strategies:
        fair_cell = measure_coverage(
            program_factory, strategy, fair=True,
            divergence_bound=divergence_bound,
            max_executions=max_executions, max_seconds=max_seconds,
            metrics=registry,
        )
        row: List[object] = [strategy, fair_cell.seconds_label]
        cells = [fair_cell]
        for depth_bound in depth_bounds:
            cell = measure_coverage(
                program_factory, strategy, fair=False,
                depth_bound=depth_bound,
                divergence_bound=divergence_bound,
                max_executions=max_executions, max_seconds=max_seconds,
                metrics=registry,
            )
            row.append(cell.seconds_label)
            cells.append(cell)
        row.append(cells)
        rows.append(row)
    return rows


def fair_wins(cells: Sequence[CoverageCell]) -> bool:
    """Whether one row of :func:`search_times` shows fair search winning.

    ``cells`` are the row's raw cells: the fair search first, the unfair
    searches by growing depth bound after it.  Fair wins when it finished
    within the budget and the unfair search at the largest bound hit the
    budget or took longer.  A row where both hit the budget shows nothing.
    """
    fair, unfair = cells[0], cells[-1]
    if fair.timed_out:
        return False
    return unfair.timed_out or unfair.seconds > fair.seconds


# ----------------------------------------------------------------------
# Hot path: prefix replay cost with and without the snapshot cache
# ----------------------------------------------------------------------

#: Runs per side of :func:`hotpath_replay`; each side reports its fastest.
HOTPATH_REPEATS = 5


def hotpath_replay(
    program_factory: Callable[[], Program],
    *,
    strategy: str = "dfs",
    depth_bound: int = 200,
    preemption_bound: Optional[int] = 2,
    snapshot_interval: int = 4,
    max_executions: int = 250,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """One program's counted sweep with the snapshot cache off, then on
    (docs/performance.md).

    Both runs must agree on verdict, executions and transitions — the
    cache is a pure optimization, so a mismatch raises instead of being
    reported as a (meaningless) timing.  Each side runs
    :data:`HOTPATH_REPEATS` times, alternating with the other and each
    run after a ``gc.collect()``, and reports its fastest run: one run per
    side spread the ratio wider than the tolerance ``repro bench
    compare`` gates it with.

    Two numbers matter: ``executions.replayed_steps`` (prefix transitions
    re-executed through the full scheduling loop; with the cache on,
    transitions carried by ``fast_forward`` land in
    ``executions.restored_steps`` instead) and the wall-clock
    ``cache_speedup`` ratio (seconds-off / seconds-on) — machine-relative,
    so it is comparable across hosts where absolute seconds are not.
    Returns a JSON-ready dict with both sides' counters, the
    replayed-steps reduction ratio and the speedup.
    """
    from repro.checker import Checker
    from repro.obs import Observer

    registry = _registry(metrics)
    fastest = {False: float("inf"), True: float("inf")}
    last = {}
    for _ in range(HOTPATH_REPEATS):
        # The sides alternate, so a burst of host load hits both.
        for cached in (False, True):
            label = "cache-on" if cached else "cache-off"
            observer = Observer()
            gc.collect()
            with registry.timer(f"hotpath.{label}") as timer:
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
            fastest[cached] = min(fastest[cached], timer.seconds)
            last[cached] = result, observer
            _record_search(registry, result.exploration)

    baseline: Optional[Dict[str, object]] = None
    runs: List[Dict[str, object]] = []
    for cached in (False, True):
        result, observer = last[cached]
        counters = observer.metrics
        run = {
            "snapshot_cache": cached,
            "seconds": round(fastest[cached], 3),
            "ok": result.ok,
            "executions": result.exploration.executions,
            "transitions": result.exploration.transitions,
            "replayed_steps":
                counters.counter("executions.replayed_steps").value,
            "restored_steps":
                counters.counter("executions.restored_steps").value,
            "snapshot_hits": counters.counter("snapshot.hits").value,
            "snapshot_misses": counters.counter("snapshot.misses").value,
            # Accounted snapshot-cache cost (docs/profiling.md): every
            # capture/restore perf_counter pair feeds these histograms.
            "capture_seconds": round(
                counters.histogram("snapshot.capture.seconds").total, 4),
            "restore_seconds": round(
                counters.histogram("snapshot.restore.seconds").total, 4),
        }
        if baseline is None:
            baseline = run
        else:
            for key in ("ok", "executions", "transitions"):
                if run[key] != baseline[key]:
                    raise AssertionError(
                        f"snapshot cache changed the search on {key}: "
                        f"{run[key]!r} != {baseline[key]!r}"
                    )
        runs.append(run)
    replayed_off = int(baseline["replayed_steps"])
    replayed_on = int(runs[-1]["replayed_steps"])
    reduction = (float(replayed_off) / replayed_on
                 if replayed_on else float(replayed_off or 1))
    seconds_off = float(baseline["seconds"])
    seconds_on = float(runs[-1]["seconds"])
    speedup = seconds_off / seconds_on if seconds_on else 0.0
    return {
        "program": program_factory().name,
        "strategy": strategy,
        "depth_bound": depth_bound,
        "preemption_bound": preemption_bound,
        "snapshot_interval": snapshot_interval,
        "runs": runs,
        "replayed_reduction": round(reduction, 2),
        # Wall-clock ratio off/on: > 1.0 means the cache wins in seconds
        # on this machine.  A ratio survives host-speed differences, so
        # it is the gated metric in ``repro bench compare``.
        "cache_speedup": round(speedup, 2),
    }


# ----------------------------------------------------------------------
# Table 3: executions and time to the first bug
# ----------------------------------------------------------------------

@dataclass
class BugSearchResult:
    found: bool
    executions: Optional[int]
    seconds: float
    timed_out: bool

    @property
    def executions_label(self) -> str:
        return str(self.executions) if self.found else "-"

    @property
    def seconds_label(self) -> str:
        if self.found:
            return f"{self.seconds:.1f}"
        return f">{self.seconds:.0f}"


def find_bug(
    program_factory: Callable[[], Program],
    *,
    fair: bool,
    preemption_bound: Optional[int] = 2,
    nonfair_depth_bound: int = 250,
    divergence_bound: int = 400,
    max_executions: int = 100_000,
    max_seconds: float = 30.0,
    metrics: Optional[MetricsRegistry] = None,
) -> BugSearchResult:
    """Table 3 cell: DFS until the first safety violation.

    The unfair baseline uses the paper's configuration: depth bound 250
    with random completion.
    """
    registry = _registry(metrics)
    if fair:
        config = ExecutorConfig(depth_bound=divergence_bound,
                                on_depth_exceeded="divergence",
                                preemption_bound=preemption_bound)
    else:
        config = ExecutorConfig(depth_bound=nonfair_depth_bound,
                                on_depth_exceeded="random-completion",
                                preemption_bound=preemption_bound)
    with registry.timer("bugsearch") as timer:
        result = explore_dfs(
            program_factory(),
            fair_policy() if fair else nonfair_policy(),
            config,
            ExplorationLimits(max_executions=max_executions,
                              max_seconds=max_seconds,
                              stop_on_first_violation=True,
                              stop_on_first_divergence=False),
        )
    _record_search(registry, result)
    return BugSearchResult(
        found=result.found_violation,
        executions=result.first_violation_execution,
        seconds=timer.seconds,
        timed_out=result.limit_hit,
    )


# ----------------------------------------------------------------------
# Table 1: program characteristics
# ----------------------------------------------------------------------

def program_characteristics(
    program: Program,
    module,
    *,
    depth_bound: int = 100_000,
    seed: int = 0,
) -> Tuple[str, int, int, int]:
    """(name, LOC, threads, sync ops) for one full random execution.

    Mirrors Table 1: threads created and synchronization operations
    performed per execution.  Random scheduling is fair w.p. 1, so the
    execution terminates.
    """
    import inspect

    source = inspect.getsource(module)
    loc = len([line for line in source.splitlines()
               if line.strip() and not line.strip().startswith("#")])

    rng = random.Random(seed)
    record = run_execution(
        program, fair_policy()(), RandomChooser(rng),
        ExecutorConfig(depth_bound=depth_bound,
                       on_depth_exceeded="prune",
                       trace_window=depth_bound),
        completion_rng=rng,
    )
    if record.outcome not in (Outcome.TERMINATED, Outcome.DEADLOCK):
        raise RuntimeError(
            f"{program.name} did not finish a random execution "
            f"({record.outcome})"
        )
    threads = len({step.tid for step in record.trace})
    sync_ops = sum(1 for step in record.trace if step.operation != "start")
    return (program.name, loc, threads, sync_ops)
