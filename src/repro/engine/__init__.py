"""Stateless exploration engine.

The engine never captures program states: it enumerates executions by
replaying decision prefixes (Verisoft-style), with the scheduling policy —
fair or not — deciding which threads are schedulable at every state.
"""

from repro.engine.classify import classify_divergence
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import (
    Chooser,
    ExecutorConfig,
    GuidedChooser,
    RandomChooser,
    run_execution,
)
from repro.engine.liveness import (
    EventuallyMonitor,
    ResponseMonitor,
    TemporalMonitor,
)
from repro.engine.monitors import invariant, never
from repro.engine.persistence import (
    load_and_replay,
    load_schedule,
    save_schedule,
)
from repro.engine.replay import explain_deadlock, replay_schedule
from repro.engine.reporting import (
    diff_traces,
    first_divergence,
    format_thread_summary,
    thread_summary,
)
from repro.engine.results import (
    Decision,
    DivergenceKind,
    DivergenceReport,
    ExecutionResult,
    ExplorationResult,
    Outcome,
    format_trace,
)
from repro.engine.strategies import (
    ExplorationLimits,
    explore_bfs,
    explore_context_bounded,
    explore_dfs,
    explore_dfs_sleepsets,
    explore_random,
    iterative_context_bounding,
)

__all__ = [
    "Chooser",
    "CoverageTracker",
    "Decision",
    "DivergenceKind",
    "DivergenceReport",
    "EventuallyMonitor",
    "ExecutionResult",
    "ExecutorConfig",
    "ExplorationLimits",
    "ExplorationResult",
    "GuidedChooser",
    "Outcome",
    "RandomChooser",
    "ResponseMonitor",
    "TemporalMonitor",
    "classify_divergence",
    "diff_traces",
    "explain_deadlock",
    "explore_bfs",
    "explore_context_bounded",
    "explore_dfs",
    "explore_dfs_sleepsets",
    "explore_random",
    "first_divergence",
    "format_thread_summary",
    "format_trace",
    "invariant",
    "iterative_context_bounding",
    "load_and_replay",
    "load_schedule",
    "never",
    "replay_schedule",
    "run_execution",
    "save_schedule",
    "thread_summary",
]
