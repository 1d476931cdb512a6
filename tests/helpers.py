"""Shared test utilities, including the coverage oracle.

The oracle half of this module validates stateless partial-order
strategies against a *stateful* ground-truth search
(:func:`repro.statespace.stateful.stateful_search`): a reduction is only
correct if it still reaches every reachable terminal state and reports
every violation the unreduced search reports.  The comparison runs every
strategy under the memoryless nonfair policy — stateful pruning is only
sound there, and reduction claims are policy-relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.core.policies import PolicyFactory, fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import ExecutionResult, Outcome
from repro.engine.strategies import (
    DfsStrategy,
    DporStrategy,
    ExplorationLimits,
    SleepSetStrategy,
)
from repro.runtime.program import VMProgram
from repro.statespace.stateful import GroundTruth, stateful_search


def run_once(
    program: VMProgram,
    guide: Sequence[int] = (),
    *,
    policy_factory: Optional[PolicyFactory] = None,
    **config_kwargs,
) -> ExecutionResult:
    """Run a single (guided) execution of a program with the fair policy."""
    factory = policy_factory or fair_policy()
    config = ExecutorConfig(**config_kwargs)
    return run_execution(program, factory(), GuidedChooser(guide), config)


def make_program(setup, name: str = "test-program") -> VMProgram:
    return VMProgram(setup, name=name)


def thread_schedule(record: ExecutionResult) -> list:
    """The sequence of thread names scheduled, from the recorded trace."""
    return [step.thread_name for step in record.trace]


# ----------------------------------------------------------------------
# coverage oracle
# ----------------------------------------------------------------------
@dataclass
class CoverageReport:
    """What one stateless strategy actually covered, for oracle checks."""

    strategy: str
    executions: int
    transitions: int
    #: Every state signature touched along any explored execution.
    states: FrozenSet
    #: Signatures of final states of TERMINATED/DEADLOCK executions
    #: (None when the runner keeps no final instances — the sleep-set
    #: audit, which compares states only).
    terminal_states: Optional[FrozenSet]
    #: The deadlocked subset of ``terminal_states``.
    deadlock_states: Optional[FrozenSet]
    #: Distinct violation messages reported.
    violation_messages: FrozenSet
    complete: bool


def ground_truth(program, **kwargs) -> GroundTruth:
    """The stateful oracle: full verdict inventory of the state space."""
    return stateful_search(program, **kwargs)


_ORACLE_LIMITS = dict(stop_on_first_violation=False,
                      stop_on_first_divergence=False)


def dpor_coverage(
    program,
    *,
    policy_factory: Optional[PolicyFactory] = None,
    depth_bound: Optional[int] = 500,
    max_executions: Optional[int] = None,
) -> CoverageReport:
    """Run source-DPOR to exhaustion, collecting everything it covered."""
    factory = policy_factory or nonfair_policy()
    coverage = CoverageTracker()
    terminal = set()
    deadlocked = set()
    violations = set()

    def on_final_state(instance, outcome) -> None:
        signature = instance.state_signature()
        terminal.add(signature)
        if outcome is Outcome.DEADLOCK:
            deadlocked.add(signature)

    def listener(record: ExecutionResult) -> None:
        if record.outcome is Outcome.VIOLATION:
            violations.add(str(record.violation))

    result = DporStrategy(
        program, factory,
        depth_bound=depth_bound,
        limits=ExplorationLimits(max_executions=max_executions,
                                 **_ORACLE_LIMITS),
        coverage=coverage,
        listener=listener,
        on_final_state=on_final_state,
    ).explore()
    return CoverageReport(
        strategy="dpor",
        executions=result.executions,
        transitions=result.transitions,
        states=frozenset(coverage.signatures()),
        terminal_states=frozenset(terminal),
        deadlock_states=frozenset(deadlocked),
        violation_messages=frozenset(violations),
        complete=result.complete,
    )


def dfs_coverage(
    program,
    *,
    policy_factory: Optional[PolicyFactory] = None,
    depth_bound: Optional[int] = 500,
    max_executions: Optional[int] = None,
) -> CoverageReport:
    """Unreduced DFS with final-instance bookkeeping (oracle calibration:
    its terminal sets must equal the stateful search's)."""
    factory = policy_factory or nonfair_policy()
    coverage = CoverageTracker()
    terminal = set()
    deadlocked = set()
    violations = set()

    def listener(record: ExecutionResult) -> None:
        if record.outcome in (Outcome.TERMINATED, Outcome.DEADLOCK):
            signature = record.final_instance.state_signature()
            terminal.add(signature)
            if record.outcome is Outcome.DEADLOCK:
                deadlocked.add(signature)
        elif record.outcome is Outcome.VIOLATION:
            violations.add(str(record.violation))

    config = ExecutorConfig(depth_bound=depth_bound,
                            on_depth_exceeded="prune",
                            keep_instance=True)
    result = DfsStrategy(
        program, factory, config,
        ExplorationLimits(max_executions=max_executions, **_ORACLE_LIMITS),
        coverage=coverage,
        listener=listener,
    ).explore()
    return CoverageReport(
        strategy="dfs",
        executions=result.executions,
        transitions=result.transitions,
        states=frozenset(coverage.signatures()),
        terminal_states=frozenset(terminal),
        deadlock_states=frozenset(deadlocked),
        violation_messages=frozenset(violations),
        complete=result.complete,
    )


def sleepset_coverage(
    program,
    *,
    policy_factory: Optional[PolicyFactory] = None,
    depth_bound: Optional[int] = 500,
    max_executions: Optional[int] = None,
) -> CoverageReport:
    """Sleep-set POR coverage.  Sleep sets prune redundant *transitions*,
    never states, so its ``states`` must equal the ground truth's — the
    por audit.  Its runner keeps no final instances, so the terminal sets
    are None."""
    factory = policy_factory or nonfair_policy()
    coverage = CoverageTracker()
    violations = set()

    def listener(record: ExecutionResult) -> None:
        if record.outcome is Outcome.VIOLATION:
            violations.add(str(record.violation))

    result = SleepSetStrategy(
        program, factory,
        depth_bound=depth_bound,
        limits=ExplorationLimits(max_executions=max_executions,
                                 **_ORACLE_LIMITS),
        coverage=coverage,
        listener=listener,
    ).explore()
    return CoverageReport(
        strategy="por",
        executions=result.executions,
        transitions=result.transitions,
        states=frozenset(coverage.signatures()),
        terminal_states=None,
        deadlock_states=None,
        violation_messages=frozenset(violations),
        complete=result.complete,
    )


def assert_dpor_matches_ground_truth(
    program,
    *,
    depth_bound: Optional[int] = 500,
    check_sleepset: bool = True,
) -> Tuple[GroundTruth, CoverageReport, Optional[CoverageReport]]:
    """The oracle assertion: source-DPOR misses nothing the stateful
    search finds, and never does more work than sleep sets.

    Returns ``(truth, dpor, por)`` so callers can pile on
    workload-specific assertions (e.g. strictness of the reduction).
    """
    truth = ground_truth(program)
    assert truth.complete, "ground truth must exhaust the state space"
    dpor = dpor_coverage(program, depth_bound=depth_bound)
    assert dpor.complete, "dpor must exhaust its (reduced) tree"
    assert dpor.terminal_states == truth.terminal_states, (
        f"dpor missed terminal states: "
        f"{truth.terminal_states - dpor.terminal_states} "
        f"(and invented {dpor.terminal_states - truth.terminal_states})")
    assert dpor.deadlock_states == truth.deadlock_states
    assert dpor.violation_messages == truth.violation_messages, (
        f"dpor violations {dpor.violation_messages} != "
        f"ground truth {truth.violation_messages}")
    assert dpor.states <= truth.states, (
        "dpor visited states the stateful search considers unreachable")
    por = None
    if check_sleepset:
        por = sleepset_coverage(program, depth_bound=depth_bound)
        assert por.complete
        assert dpor.executions <= por.executions, (
            f"dpor ran {dpor.executions} executions, sleep sets only "
            f"{por.executions} — the reduction regressed")
        assert por.violation_messages == truth.violation_messages
    return truth, dpor, por
