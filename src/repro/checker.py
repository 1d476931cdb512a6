"""The top-level checker: fair stateless model checking as a tool.

This is the reproduction of CHESS-with-fairness as users would consume it:
point it at a :class:`~repro.core.model.Program` and it systematically
tests the program, reporting

* safety violations (assertions, sync misuse, crashes, deadlocks) with a
  replayable schedule;
* livelocks — fair nonterminating executions (Section 2, outcome 3);
* good-samaritan violations — threads that spin without yielding
  (Section 2, outcome 2);
* or a clean verdict when the bounded search space is exhausted.

Example::

    from repro import Checker
    from repro.workloads.dining import dining_philosophers

    result = Checker(dining_philosophers(2), depth_bound=400).run()
    print(result.report())
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.observer import Observer

from repro.core.model import Program
from repro.core.policies import PolicyFactory, fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.replay import explain_deadlock, replay_schedule
from repro.engine.results import (
    DivergenceKind,
    ExecutionResult,
    ExplorationResult,
    Outcome,
    format_trace,
)
from repro.engine.strategies import ExplorationLimits, strategy_class
from repro.resilience import (
    CheckpointStore,
    GracefulStop,
    ResilienceController,
    ResilienceOptions,
)

#: Divergence kinds that indicate program errors (as opposed to the
#: unfair divergences a baseline unfair search wastes time on).
_ERROR_DIVERGENCES = frozenset({
    DivergenceKind.LIVELOCK,
    DivergenceKind.GOOD_SAMARITAN_VIOLATION,
    DivergenceKind.TEMPORAL,
})


@dataclass
class CheckResult:
    """Verdict of one checker run."""

    program_name: str
    exploration: ExplorationResult
    warnings: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """No safety violation, no deadlock, no crash and no erroneous
        divergence."""
        if self.exploration.found_violation:
            return False
        if self.exploration.crashes:
            return False
        return not any(
            r.divergence and r.divergence.kind in _ERROR_DIVERGENCES
            for r in self.exploration.divergences
        )

    @property
    def interrupted(self) -> bool:
        """The search stopped early on SIGINT/SIGTERM; results are partial."""
        return self.exploration.interrupted

    @property
    def violation(self) -> Optional[ExecutionResult]:
        if self.exploration.violations:
            return self.exploration.violations[0]
        if self.exploration.deadlocks:
            return self.exploration.deadlocks[0]
        return None

    @property
    def crashed(self) -> Optional[ExecutionResult]:
        """First quarantined crash, when crash capture was enabled."""
        if self.exploration.crashes:
            return self.exploration.crashes[0]
        return None

    @property
    def livelock(self) -> Optional[ExecutionResult]:
        records = self.exploration.livelocks()
        return records[0] if records else None

    @property
    def gs_violation(self) -> Optional[ExecutionResult]:
        records = self.exploration.gs_violations()
        return records[0] if records else None

    @property
    def divergence(self) -> Optional[ExecutionResult]:
        records = self.exploration.divergences
        return records[0] if records else None

    # ------------------------------------------------------------------
    def report(self, *, trace_limit: int = 60) -> str:
        lines = [self.exploration.summary()]
        record = self.violation
        if record is not None:
            label = ("deadlock" if record.violation is None
                     else str(record.violation))
            lines.append(f"counterexample ({label}):")
            lines.append(format_trace(record.trace, limit=trace_limit))
            lines.append(f"replay schedule: {record.schedule}")
        for divergent in self.exploration.divergences[:1]:
            lines.append(f"divergent execution ({divergent.divergence}):")
            lines.append(format_trace(divergent.trace, limit=trace_limit))
        for crashed in self.exploration.crashes[:1]:
            lines.append(f"quarantined crash ({crashed.crash}):")
            lines.append(format_trace(crashed.trace, limit=trace_limit))
            lines.append(f"replay schedule: {crashed.schedule}")
        lines.extend(f"warning: {w}" for w in self.warnings)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


class Checker:
    """Configure and run fair stateless model checking on one program."""

    def __init__(
        self,
        program: Program,
        *,
        fairness: bool = True,
        k_yield: int = 1,
        strategy: str = "dfs",
        preemption_bound: Optional[int] = None,
        depth_bound: Optional[int] = 5000,
        nonfair_completion: str = "random-completion",
        max_executions: Optional[int] = None,
        max_seconds: Optional[float] = None,
        stop_on_first_violation: bool = True,
        stop_on_first_divergence: bool = True,
        random_executions: int = 200,
        collect_coverage: bool = False,
        seed: int = 0,
        policy_factory: Optional[PolicyFactory] = None,
        observer: Optional["Observer"] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: int = 200,
        execution_budget_seconds: Optional[float] = None,
        max_crashes: Optional[int] = None,
        quarantine_dir: Optional[str] = None,
        handle_signals: bool = True,
        workers: int = 1,
        shard_target: Optional[int] = None,
        snapshot_cache: bool = True,
        snapshot_interval: int = ExecutorConfig.snapshot_interval,
        heartbeat_interval: float = 0.5,
        wedge_timeout: Optional[float] = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if snapshot_interval < 1:
            raise ValueError("snapshot interval must be positive")
        self.program = program
        #: Worker processes for the sharded search (1 = serial, today's
        #: behavior; see docs/parallel.md).
        self.workers = workers
        self.shard_target = shard_target
        #: Seconds between worker liveness heartbeats and the silence
        #: threshold after which a worker counts as *wedged* (SIGSTOP,
        #: livelock) and is killed + its shard requeued.  ``None``
        #: disables wedge detection (docs/parallel.md).
        self.heartbeat_interval = heartbeat_interval
        self.wedge_timeout = wedge_timeout
        self.fairness = fairness
        #: Optional :class:`repro.obs.Observer`; None (the default) keeps
        #: the exploration hot path free of telemetry work.
        self.observer = observer
        if policy_factory is not None:
            self.policy_factory = policy_factory
        elif fairness:
            self.policy_factory = fair_policy(k_yield)
        else:
            self.policy_factory = nonfair_policy()
        self.strategy = strategy
        self.random_executions = random_executions
        self.seed = seed
        self.coverage = (CoverageTracker(observer=observer)
                         if collect_coverage else None)
        self.resilience_options = ResilienceOptions(
            checkpoint_path=checkpoint_path,
            checkpoint_interval=checkpoint_interval,
            execution_budget_seconds=execution_budget_seconds,
            max_crashes=max_crashes,
            quarantine_dir=quarantine_dir,
            handle_signals=handle_signals,
        )
        self.config = ExecutorConfig(
            depth_bound=depth_bound,
            on_depth_exceeded="divergence" if fairness else nonfair_completion,
            preemption_bound=preemption_bound,
            seed=seed,
            execution_budget_seconds=execution_budget_seconds,
            capture_crashes=self.resilience_options.capture_crashes,
            snapshot_cache=snapshot_cache,
            snapshot_interval=snapshot_interval,
        )
        self.limits = ExplorationLimits(
            max_executions=max_executions,
            max_seconds=max_seconds,
            stop_on_first_violation=stop_on_first_violation,
            stop_on_first_divergence=stop_on_first_divergence,
            max_crashes=max_crashes,
        )

    def _make_search(self, resilience):
        """The search for this checker's configuration: the strategy, or
        the parallel coordinator that shards it (which answers
        ``explore()`` and ``load_state_dict()`` the same way)."""
        common = dict(seed=self.seed, executions=self.random_executions,
                      coverage=self.coverage, observer=self.observer,
                      resilience=resilience)
        if self.workers > 1:
            from repro.parallel import ParallelCoordinator

            return ParallelCoordinator(
                self.program, self.policy_factory, self.config, self.limits,
                strategy=self.strategy, workers=self.workers,
                shard_target=self.shard_target,
                resilience_options=self.resilience_options,
                heartbeat_interval=self.heartbeat_interval,
                wedge_timeout=self.wedge_timeout, **common)
        return strategy_class(self.strategy).create(
            self.program, self.policy_factory, self.config, self.limits,
            **common)

    def run(self, *, resume_from: Optional[str] = None) -> CheckResult:
        """Run the search; ``resume_from`` continues a saved checkpoint.

        With any resilience option set (checkpointing, watchdog, crash
        quarantine) the search also converts the first SIGINT/SIGTERM
        into a graceful stop: a final checkpoint is flushed and the
        partial results come back with ``stop_reason="interrupted"``.

        With ``workers > 1`` the schedule space is sharded across a pool
        of worker processes (docs/parallel.md); counted sweeps merge to
        the same totals and verdicts as a serial run.
        """
        options = self.resilience_options
        controller = None
        if options.enabled or resume_from is not None:
            controller = ResilienceController(
                options,
                program=self.program,
                policy_name=self.policy_factory().name,
                config=self.config,
                observer=self.observer,
                strategy=self.strategy,
            )
        search = self._make_search(controller)
        resume_warnings: List[str] = []
        if resume_from is not None:
            payload, resume_warnings = self._load_resume(resume_from)
            search.load_state_dict(payload["state"])

        with self._search_span():
            if controller is not None and options.handle_signals:
                with GracefulStop() as stop:
                    controller.attach_stop(stop)
                    exploration = search.explore()
            else:
                exploration = search.explore()

        return CheckResult(
            program_name=self.program.name,
            exploration=exploration,
            warnings=self._build_warnings(
                exploration, extra=resume_warnings + list(search.warnings)),
        )

    def _load_resume(self, resume_from: str):
        """Load a resume checkpoint, surviving a corrupt primary.

        A truncated or corrupt checkpoint is quarantined and the
        previous rotation snapshot loaded instead (``checkpoint.
        recovered`` event + a result warning); only a checkpoint with
        *no* loadable snapshot at all raises.
        """
        store = CheckpointStore(resume_from)
        payload, recovered, quarantined = store.load_or_recover()
        warnings: List[str] = []
        if recovered:
            note = (f"checkpoint {resume_from} was corrupt; resumed from "
                    f"the previous snapshot")
            if quarantined is not None:
                note += f" (bad file quarantined at {quarantined})"
            warnings.append(note)
            if self.observer is not None:
                self.observer.checkpoint_recovered(
                    str(resume_from),
                    str(quarantined) if quarantined else None)
        recorded = payload.get("program")
        if recorded not in (None, self.program.name):
            raise ValueError(
                f"checkpoint was recorded for program {recorded!r}, "
                f"got {self.program.name!r}"
            )
        return payload, warnings

    def _search_span(self):
        """Wall-clock span around the whole search (Chrome-trace export
        root; a no-op context without an observer)."""
        if self.observer is None:
            return nullcontext()
        return self.observer.spans.measure(
            f"search {self.program.name}", "search",
            strategy=self.strategy, workers=self.workers)

    def _build_warnings(self, exploration: ExplorationResult,
                        extra: Optional[List[str]] = None) -> List[str]:
        options = self.resilience_options
        warnings: List[str] = list(extra or [])
        if exploration.interrupted:
            note = "search interrupted; results are partial"
            if options.checkpoint_path is not None:
                note += (f" (resume with the checkpoint at "
                         f"{options.checkpoint_path})")
            warnings.append(note)
        elif exploration.limit_hit:
            warnings.append(
                "search stopped by a resource limit before exhausting the "
                "bounded execution tree"
            )
        for record in exploration.divergences:
            if record.divergence and record.divergence.kind is DivergenceKind.UNFAIR:
                warnings.append(
                    f"unfair divergence observed ({record.divergence.detail}); "
                    f"enable fairness to prune such schedules"
                )
        return warnings

    # ------------------------------------------------------------------
    def replay(self, record: ExecutionResult) -> ExecutionResult:
        """Reproduce a counterexample found by :meth:`run` with a full trace."""
        return replay_schedule(
            self.program, record.decisions, self.policy_factory, self.config,
            reducer=strategy_class(self.strategy).reducer,
            bound=record.preemption_bound,
        )

    def explain_deadlock(self, record: ExecutionResult) -> str:
        """Describe the wait-for set of a deadlocked execution."""
        return explain_deadlock(
            self.program, record, self.policy_factory, self.config,
            reducer=strategy_class(self.strategy).reducer,
        )

    def confirm_divergence(self, record: ExecutionResult, *,
                           factor: int = 8,
                           max_period: int = 64) -> ExecutionResult:
        """Re-examine a divergent execution at a much larger bound.

        The paper's protocol: a divergence warning at bound *B* may be a
        false alarm when *B* is too small — "the user simply increases
        the bound and runs the model checker again".  A divergence is
        *demonic*: extending it needs the scheduler to keep making the
        cycle-preserving choices.  So this detects the period of the
        recorded schedule's suffix and **pumps** it — replays the
        schedule with the periodic tail repeated out to ``factor × B``
        transitions.  If some pumping keeps the program in its cycle the
        divergence is confirmed (and reclassified over the longer
        suffix); if every candidate period escapes (the program
        terminates or the schedule stops fitting), the warning was an
        artifact of the small bound and the terminating record is
        returned.
        """
        if self.config.depth_bound is None:
            raise ValueError("confirm_divergence needs a depth bound")
        target = self.config.depth_bound * factor
        extended = dataclasses.replace(
            self.config,
            depth_bound=target,
            trace_window=max(512, self.config.depth_bound),
            divergence_window=max(256, self.config.depth_bound // 2),
        )

        decisions = list(record.decisions)
        reducer = strategy_class(self.strategy).reducer
        best: Optional[ExecutionResult] = None
        for period in range(1, min(max_period, len(decisions) // 2) + 1):
            if decisions[-period:] != decisions[-2 * period:-period]:
                continue
            pattern = [d.index for d in decisions[-period:]]
            repeats = max(1, (target - len(decisions)) // period + 1)
            guide = [d.index for d in decisions] + pattern * repeats
            try:
                result = replay_schedule(
                    self.program, guide, self.policy_factory, extended,
                    trace_window=extended.trace_window,
                    reducer=reducer, bound=record.preemption_bound,
                )
            except ValueError:
                continue  # the pumped schedule stopped fitting
            if result.outcome is Outcome.DIVERGENCE:
                return result  # the cycle pumps: genuinely divergent
            best = best or result
        if best is not None:
            return best
        # No periodic suffix at all: fall back to default continuation.
        return replay_schedule(
            self.program, [d.index for d in decisions],
            self.policy_factory, extended,
            trace_window=extended.trace_window,
            reducer=reducer, bound=record.preemption_bound,
        )


def check(program: Program, **kwargs) -> CheckResult:
    """One-shot convenience wrapper around :class:`Checker`."""
    return Checker(program, **kwargs).run()
