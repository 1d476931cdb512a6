"""fairchess — Fair Stateless Model Checking (PLDI 2008) in Python.

A from-scratch reproduction of *Fair Stateless Model Checking* by
Madanlal Musuvathi and Shaz Qadeer: the CHESS stateless model checker with
the fair demonic scheduler (Algorithm 1), its search strategies, its
liveness detection (livelocks and good-samaritan violations) and the
workloads of the paper's evaluation.

Quickstart::

    from repro import Checker, VMProgram, sync

    def make_program():
        def setup(env):
            x = sync.SharedVar(0, name="x")

            def t():
                yield from x.set(1)

            def u():
                while (yield from x.get()) != 1:
                    yield from sync.yield_now()

            env.spawn(t, name="t")
            env.spawn(u, name="u")
        return VMProgram(setup, name="spinloop")

    result = Checker(make_program()).run()
    assert result.ok
"""

from repro import sync
from repro.checker import Checker, CheckResult, check
from repro.core import (
    FairPolicy,
    FairSchedulerState,
    NonfairPolicy,
    PriorityRelation,
    Program,
    ProgramInstance,
    RoundRobinPolicy,
    SchedulingPolicy,
    StepInfo,
    fair_policy,
    nonfair_policy,
    round_robin_policy,
)
from repro.engine import (
    CoverageTracker,
    DivergenceKind,
    ExecutionResult,
    ExecutorConfig,
    ExplorationLimits,
    ExplorationResult,
    Outcome,
    explore_dfs,
    format_trace,
    invariant,
    never,
    replay_schedule,
)
from repro.runtime import (
    AssertionViolation,
    PropertyViolation,
    SyncUsageError,
    TaskCrash,
    VMProgram,
    program,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # The telemetry layer loads on first use: a search without an
    # observer never needs it.
    if name in ("obs", "Observer", "MetricsRegistry"):
        import importlib

        obs = importlib.import_module("repro.obs")
        return obs if name == "obs" else getattr(obs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AssertionViolation",
    "CheckResult",
    "Checker",
    "CoverageTracker",
    "DivergenceKind",
    "ExecutionResult",
    "ExecutorConfig",
    "ExplorationLimits",
    "ExplorationResult",
    "FairPolicy",
    "FairSchedulerState",
    "MetricsRegistry",
    "NonfairPolicy",
    "Observer",
    "Outcome",
    "PriorityRelation",
    "Program",
    "ProgramInstance",
    "PropertyViolation",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "StepInfo",
    "SyncUsageError",
    "TaskCrash",
    "VMProgram",
    "check",
    "explore_dfs",
    "fair_policy",
    "format_trace",
    "invariant",
    "never",
    "nonfair_policy",
    "obs",
    "program",
    "replay_schedule",
    "round_robin_policy",
    "sync",
    "__version__",
]
