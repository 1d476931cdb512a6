"""Result types produced by the exploration engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Counter as CounterType
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.model import StepInfo
from repro.runtime.errors import PropertyViolation


class Outcome(enum.Enum):
    """How one execution ended."""

    TERMINATED = "terminated"  # all threads finished
    DEADLOCK = "deadlock"  # live threads, none enabled
    VIOLATION = "violation"  # a safety property failed
    DIVERGENCE = "divergence"  # depth bound exceeded in fair mode (warning)
    DEPTH_PRUNED = "depth-pruned"  # depth bound exceeded, execution cut short
    VISITED_PRUNED = "visited-pruned"  # stateful pruning hit a known state
    CRASHED = "crashed"  # quarantined crash (capture_crashes mode)
    ABORTED = "aborted"  # watchdog cut a hung execution short


class Decision(NamedTuple):
    """One nondeterministic choice made during an execution.

    The sequence of decisions *is* the schedule: replaying it reproduces
    the execution exactly (stateless model checking).  Like
    :class:`~repro.core.model.StepInfo`, one is built per transition,
    hence a ``NamedTuple``; the executor builds it with
    ``tuple.__new__(Decision, fields)``, skipping the generated
    ``__new__``.
    """

    kind: str  # "thread" or "data"
    index: int  # which alternative was taken
    options: int  # how many alternatives existed
    chosen: object  # the thread id or data value picked (informational)


class DivergenceKind(enum.Enum):
    """Classification of an execution that exceeded the divergence bound
    (the two liveness outcomes of Section 2, plus the unfair case that can
    only arise without the fair scheduler)."""

    LIVELOCK = "livelock"  # fair nontermination
    GOOD_SAMARITAN_VIOLATION = "good-samaritan-violation"
    UNFAIR = "unfair-divergence"
    #: A user-supplied temporal liveness property failed on the divergent
    #: suffix (the Section 6 extension, :mod:`repro.engine.liveness`).
    TEMPORAL = "temporal-violation"


@dataclass(frozen=True)
class DivergenceReport:
    kind: DivergenceKind
    culprits: Tuple[str, ...]  # thread names this report blames
    window: int  # size of the analyzed trace suffix
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


@dataclass
class ExecutionResult:
    """Everything the engine learned from one execution."""

    outcome: Outcome
    decisions: List[Decision]
    steps: int
    preemptions: int = 0
    violation: Optional[PropertyViolation] = None
    divergence: Optional[DivergenceReport] = None
    #: The runtime's record of each transition, the last
    #: ``trace_window`` of them; a step that raised gets one built by the
    #: executor, whose operation says how it failed.
    trace: Sequence[StepInfo] = ()
    hit_depth_bound: bool = False
    completed_randomly: bool = False
    #: The exception behind an :attr:`Outcome.CRASHED` record (crash
    #: quarantine mode); None otherwise.
    crash: Optional[BaseException] = None
    #: Why an :attr:`Outcome.ABORTED` execution was cut short (watchdog).
    abort_reason: Optional[str] = None
    #: The live program instance at the end of the run; only populated
    #: when ``ExecutorConfig.keep_instance`` is set (post-mortem
    #: inspection, e.g. deadlock explanations).
    final_instance: object = None
    #: The preemption bound the execution ran under (an ICB sweep's own);
    #: the decision indices are relative to it, so replays apply it.
    preemption_bound: Optional[int] = None

    @property
    def schedule(self) -> List[int]:
        """The replayable guide: decision indices in order."""
        return [d.index for d in self.decisions]


@dataclass
class ExplorationResult:
    """Aggregate outcome of a systematic search."""

    program_name: str
    policy_name: str
    strategy_name: str
    executions: int = 0
    transitions: int = 0
    outcomes: CounterType = None  # Counter[Outcome]
    violations: List[ExecutionResult] = field(default_factory=list)
    divergences: List[ExecutionResult] = field(default_factory=list)
    deadlocks: List[ExecutionResult] = field(default_factory=list)
    #: Executions that crashed and were quarantined (crash-capture mode).
    crashes: List[ExecutionResult] = field(default_factory=list)
    #: Executions the watchdog aborted for exceeding their time budget.
    aborted_executions: int = 0
    #: Executions that hit the depth bound (the paper's "nonterminating
    #: executions" measure of Figure 2).
    nonterminating_executions: int = 0
    wall_seconds: float = 0.0
    #: True when the search exhausted the (bounded) execution tree.
    complete: bool = False
    #: True when a resource limit (executions/time) stopped the search.
    limit_hit: bool = False
    #: Why the search stopped early ("violation", "divergence",
    #: "max-executions", "max-seconds", "max-crashes", "interrupted"), or
    #: None when the bounded tree was exhausted.
    stop_reason: Optional[str] = None
    first_violation_execution: Optional[int] = None
    states_covered: Optional[int] = None

    def __post_init__(self) -> None:
        if self.outcomes is None:
            from collections import Counter

            self.outcomes = Counter()

    def add(self, record: ExecutionResult, keep: int) -> None:
        """Fold in one execution, keeping at most ``keep`` records of
        each kind."""
        self.executions += 1
        self.transitions += record.steps
        outcome = record.outcome
        self.outcomes[outcome] += 1
        if record.hit_depth_bound:
            self.nonterminating_executions += 1
        if outcome is Outcome.VIOLATION:
            if len(self.violations) < keep:
                self.violations.append(record)
            if self.first_violation_execution is None:
                self.first_violation_execution = self.executions
        elif outcome is Outcome.DEADLOCK:
            if len(self.deadlocks) < keep:
                self.deadlocks.append(record)
            if self.first_violation_execution is None:
                self.first_violation_execution = self.executions
        elif outcome is Outcome.DIVERGENCE:
            if len(self.divergences) < keep:
                self.divergences.append(record)
        elif outcome is Outcome.CRASHED:
            if len(self.crashes) < keep:
                self.crashes.append(record)
        elif outcome is Outcome.ABORTED:
            self.aborted_executions += 1

    def absorb(self, other: "ExplorationResult",
               keep: Optional[int] = None) -> None:
        """Fold in a search that ran after this one (the next ICB sweep
        or shard), keeping at most ``keep`` records of each kind (None:
        all).  Completeness, stop reason and coverage are the caller's."""
        executions_before = self.executions
        self.executions += other.executions
        self.transitions += other.transitions
        self.outcomes.update(other.outcomes)
        for mine, theirs in ((self.violations, other.violations),
                             (self.deadlocks, other.deadlocks),
                             (self.divergences, other.divergences),
                             (self.crashes, other.crashes)):
            mine.extend(theirs if keep is None
                        else theirs[:max(0, keep - len(mine))])
        self.aborted_executions += other.aborted_executions
        self.nonterminating_executions += other.nonterminating_executions
        self.wall_seconds += other.wall_seconds
        self.limit_hit = self.limit_hit or other.limit_hit
        if (other.first_violation_execution is not None
                and self.first_violation_execution is None):
            # Offset its local index by the executions before it.
            self.first_violation_execution = (
                executions_before + other.first_violation_execution)

    @property
    def found_violation(self) -> bool:
        return bool(self.violations) or bool(self.deadlocks)

    @property
    def found_divergence(self) -> bool:
        return bool(self.divergences)

    @property
    def interrupted(self) -> bool:
        """True when a signal / KeyboardInterrupt stopped the search."""
        return self.stop_reason == "interrupted"

    def livelocks(self) -> List[ExecutionResult]:
        return [r for r in self.divergences
                if r.divergence and r.divergence.kind is DivergenceKind.LIVELOCK]

    def gs_violations(self) -> List[ExecutionResult]:
        return [
            r for r in self.divergences
            if r.divergence
            and r.divergence.kind is DivergenceKind.GOOD_SAMARITAN_VIOLATION
        ]

    def summary(self) -> str:
        lines = [
            f"program={self.program_name} policy={self.policy_name} "
            f"strategy={self.strategy_name}",
            f"  executions={self.executions} transitions={self.transitions} "
            f"wall={self.wall_seconds:.2f}s complete={self.complete}",
            f"  outcomes={dict((k.value, v) for k, v in self.outcomes.items())}",
        ]
        if self.states_covered is not None:
            lines.append(f"  states covered={self.states_covered}")
        if self.stop_reason == "interrupted":
            lines.append("  search interrupted; partial results above")
        if self.violations:
            first = self.violations[0].violation
            lines.append(f"  VIOLATION: {first}")
        if self.deadlocks:
            lines.append(f"  DEADLOCK found ({len(self.deadlocks)} executions)")
        for record in self.divergences[:3]:
            lines.append(f"  DIVERGENCE: {record.divergence}")
        for record in self.crashes[:3]:
            lines.append(f"  CRASH quarantined: {record.crash}")
        if self.aborted_executions:
            lines.append(
                f"  {self.aborted_executions} execution(s) aborted by the "
                f"watchdog")
        return "\n".join(lines)


def format_trace(trace: Sequence[StepInfo], limit: Optional[int] = None) -> str:
    """Render a trace as the numbered transition listing used in reports."""
    steps = list(trace)
    if limit is not None and len(steps) > limit:
        shown = steps[-limit:]
        header = [f"... ({len(steps) - limit} earlier steps elided)"]
        offset = len(steps) - limit
    else:
        shown = steps
        header = []
        offset = 0
    lines = header
    for i, step in enumerate(shown):
        marker = " [yield]" if step.yielded else ""
        lines.append(f"{offset + i:4d}. {step.thread_name}: {step.operation}{marker}")
    return "\n".join(lines)
