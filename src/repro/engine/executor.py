"""Run one execution of a program under a scheduling policy.

This is the inner loop of the stateless model checker: instantiate the
program, and at every state compute the schedulable set ``T`` from the
policy, ask the *chooser* which alternative to take, execute the chosen
transition, and feed the observation back into the policy.  Data
nondeterminism (``choose(n)``) flows through the same chooser, so the
recorded decision sequence fully determines the execution — replaying it
reproduces the run bit-for-bit (stateless exploration).

Context-bounded search (Musuvathi & Qadeer, PLDI 2007) is implemented here
as preemption accounting with the fairness integration rule of Section 4:
a context switch forced by the priority relation (the current thread is
enabled but not schedulable) is *not* counted as a preemption, and neither
is a switch after a voluntary yield.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from repro.chaos.faults import InjectedFault, fault_at
from repro.core.model import Program, ProgramInstance, RunStatus, StepInfo
from repro.core.policies import SchedulingPolicy
from repro.engine.classify import classify_divergence
from repro.engine.coverage import CoverageTracker
from repro.engine.results import (
    Decision,
    DivergenceKind,
    DivergenceReport,
    ExecutionResult,
    Outcome,
)
from repro.engine.snapshots import PrefixSnapshot, PrefixSnapshotCache
from repro.runtime.errors import (
    ExecutionHung,
    PropertyViolation,
    TaskCrash,
    UnsupportedConfiguration,
)


def _temporal_verdict(instance: ProgramInstance) -> Optional[DivergenceReport]:
    """Consult the instance's temporal liveness monitors at divergence."""
    for monitor in getattr(instance, "temporal_monitors", ()):
        message = monitor.verdict()
        if message is not None:
            return DivergenceReport(
                kind=DivergenceKind.TEMPORAL,
                culprits=(monitor.name,),
                window=0,
                detail=message,
            )
    return None

@dataclass(frozen=True)
class PrunePoint:
    """Where in the execution a pruner is being consulted."""

    steps: int  # transitions executed so far
    decisions: int  # decisions recorded so far
    last_tid: object
    last_was_yield: bool
    preemptions: int


#: Called at every state; returning True prunes the execution.  Used by the
#: stateful ground-truth search (visited-state pruning).
Pruner = Callable[[ProgramInstance, PrunePoint], bool]

#: Called after every transition with the live instance; may raise
#: PropertyViolation to fail the execution.
Monitor = Callable[[ProgramInstance], None]


class Chooser:
    """Resolves nondeterministic choices; ``pick`` returns an index."""

    def pick(self, kind: str, options: int) -> int:  # pragma: no cover
        raise NotImplementedError


class GuidedChooser(Chooser):
    """Follow a recorded guide, defaulting to alternative 0 beyond it.

    This single chooser implements both replay (guide covers the whole
    execution) and DFS extension (guide covers a prefix; the suffix takes
    the first alternative everywhere and gets recorded for backtracking).
    """

    def __init__(self, guide: Sequence[int] = ()) -> None:
        self._guide = list(guide)
        self._cursor = 0

    @property
    def guide(self) -> List[int]:
        """The recorded guide, not a copy (read by the prefix-snapshot
        cache; callers must not mutate it)."""
        return self._guide

    def skip(self, count: int) -> None:
        """Advance past ``count`` decisions restored from a snapshot."""
        self._cursor += count

    def pick(self, kind: str, options: int) -> int:
        if self._cursor < len(self._guide):
            index = self._guide[self._cursor]
            self._cursor += 1
            if not 0 <= index < options:
                raise ValueError(
                    f"replay diverged: guide wants alternative {index} of "
                    f"{options} at decision {self._cursor - 1}"
                )
            return index
        self._cursor += 1
        return 0


class RandomChooser(Chooser):
    """Uniform random choices (the paper's random search, reference [17])."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def pick(self, kind: str, options: int) -> int:
        if options == 1:
            return 0
        return self._rng.randrange(options)


@dataclass
class ExecutorConfig:
    """Per-execution knobs shared by all strategies."""

    #: Maximum number of transitions before the depth-bound action fires.
    depth_bound: Optional[int] = None
    #: What to do at the bound: "divergence" (fair mode: classify and
    #: report), "prune" (cut the execution), or "random-completion"
    #: (continue with random scheduling until natural termination — the
    #: baseline configuration of Table 2).
    on_depth_exceeded: str = "divergence"
    #: Safety cap on random completion, in transitions past the bound.
    #: Random scheduling is fair with probability 1, so fair-terminating
    #: programs finish well within this; genuinely livelocked programs
    #: burn the whole cap on every pruned execution, so keep it modest.
    random_completion_cap: int = 2000
    #: Context bound: maximum preemptions per execution (None = unbounded).
    preemption_bound: Optional[int] = None
    #: Count fairness-forced switches as preemptions (the paper says not
    #: to; True only for the ablation benchmark).
    count_fairness_preemptions: bool = False
    #: Ring-buffer size for the recorded trace.
    trace_window: int = 512
    #: Suffix length analyzed by the divergence classifier.
    divergence_window: int = 256
    gs_schedule_threshold: int = 8
    monitors: Sequence[Monitor] = field(default_factory=tuple)
    #: Random seed for random completion (per-execution rng derives from
    #: the strategy's rng when provided there instead).
    seed: int = 0
    #: Keep the final program instance on the result (skips instance
    #: teardown; used by post-mortem inspection like deadlock reports).
    keep_instance: bool = False
    #: Wall-clock budget for one execution, in seconds (None = no
    #: watchdog).  An execution that exceeds it is aborted with
    #: :attr:`~repro.engine.results.Outcome.ABORTED` and the search moves
    #: on; native runtimes additionally get a per-step timeout so a thread
    #: hung inside a blocking operation cannot stall the checker.
    execution_budget_seconds: Optional[float] = None
    #: Capture crashes (``TaskCrash`` or any unexpected exception raised
    #: while stepping) as :attr:`~repro.engine.results.Outcome.CRASHED`
    #: records instead of letting them propagate.  Off by default: legacy
    #: behavior treats a task crash as a property violation.
    capture_crashes: bool = False
    #: Use the prefix-snapshot cache (docs/performance.md) in the
    #: guided strategies (dfs, bfs, por, each icb sweep).  Only effective
    #: for programs that declare ``supports_snapshot`` (the VM and
    #: native-thread runtimes); any other program fully replays.
    snapshot_cache: bool = True
    #: Minimum spacing, in transitions, between two snapshots on one
    #: path (counted from the restored point).  Snapshots are taken at
    #: branch points; 1 captures every one, so each DFS backtrack
    #: resumes where it branched.
    snapshot_interval: int = 1


#: ``capture_from`` of an execution that captures nothing.
_NEVER = sys.maxsize

#: Builds a :class:`Decision` from a tuple of its fields without the
#: Python frame of the ``NamedTuple``'s generated ``__new__`` (the loop
#: records one per transition).
_new_record = tuple.__new__

_EMPTY: frozenset = frozenset()


def sorted_options(values) -> list:
    """Thread ids in a stable order (by ``repr`` when unorderable).

    The engine loop inlines this for its per-step options."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


def _thread_name(instance: ProgramInstance, tid: object) -> str:
    """How reports name ``tid``: its task's name where the runtime has
    tasks, else the id itself (what the runtimes put in a StepInfo)."""
    getter = getattr(instance, "task", None)
    if getter is not None:
        try:
            return getter(tid).name
        except Exception:  # noqa: BLE001 - the name is cosmetic
            pass
    return str(tid)


def _setup_instance(program: Program, config: ExecutorConfig, observer):
    """Instantiate the program with the per-instance executor plumbing."""
    instance = program.instantiate()
    if config.execution_budget_seconds is not None and hasattr(
            instance, "step_timeout"):
        # Native runtimes also time out individual blocked steps, so a
        # thread hung in a blocking operation cannot stall the search
        # past roughly twice the budget.
        instance.step_timeout = config.execution_budget_seconds
    if observer is not None and hasattr(instance, "observer"):
        instance.observer = observer
    return instance


def _restore_prefix(
    cache: PrefixSnapshotCache,
    guide: List[int],
    program: Program,
    instance: ProgramInstance,
    config: ExecutorConfig,
    observer,
    timers,
):
    """Fast-forward ``instance`` through the deepest cached prefix of
    ``guide``.  Returns ``(instance, snapshot, decisions)``, where
    ``decisions`` is the new execution's copy of the snapshot's prefix;
    the last two are None on a miss, and any failure falls back to a
    fresh instance and full replay."""
    t0 = perf_counter() if timers is not None else 0.0
    entry = cache.lookup(guide)
    decisions = None
    if entry is not None:
        decisions = entry.decisions[:entry.count]
        monitors = config.monitors
        per_step = None
        if monitors:
            def per_step(live) -> None:
                for monitor in monitors:
                    monitor(live)

        try:
            rule = fault_at("snapshot.restore", steps=entry.steps)
            if rule is not None:
                raise InjectedFault(
                    f"injected snapshot.restore fault ({rule.kind})")
            instance.fast_forward(decisions, per_step=per_step)
        except Exception:  # noqa: BLE001 - determinism-contract guard
            # The prefix did not replay cleanly, so the program broke the
            # determinism contract; trust nothing cached and fall back to
            # a fresh instance and a full replay.
            cache.clear(failure=True)
            closer = getattr(instance, "close", None)
            if closer is not None:
                closer()
            instance = _setup_instance(program, config, observer)
            entry = decisions = None
    if timers is not None:
        elapsed = perf_counter() - t0
        timers.add("snapshot", elapsed)
        if observer is not None:
            observer.snapshot_restore_timed(elapsed)
    if observer is not None:
        observer.snapshot_lookup(entry is not None,
                                 entry.steps if entry is not None else 0)
    return instance, entry, decisions


def run_execution(
    program: Program,
    policy: SchedulingPolicy,
    chooser: Chooser,
    config: ExecutorConfig,
    *,
    coverage: Optional[CoverageTracker] = None,
    pruner: Optional[Pruner] = None,
    completion_rng: Optional[random.Random] = None,
    observer=None,
    snapshot_cache: Optional[PrefixSnapshotCache] = None,
    reducer=None,
) -> ExecutionResult:
    """Execute the program once under ``policy``, steering with ``chooser``.

    ``observer`` is an optional :class:`repro.obs.observer.Observer`; when
    None (the default) the loop takes only dead branches — no telemetry
    objects are touched on the hot path.

    ``snapshot_cache`` is an optional
    :class:`~repro.engine.snapshots.PrefixSnapshotCache` owned by the
    calling strategy: when the chooser carries a guide and the instance
    can ``fast_forward``, the execution starts from the deepest cached
    snapshot whose decision prefix matches it (instead of re-executing
    from step 0) and captures a new snapshot at each branch point, the
    states with more than one thread option, at least
    ``cache.interval`` transitions past the restored point and past the
    previous capture.  Cached and uncached runs produce identical
    results; a pruner disables the cache because prefix restoration
    would skip its per-state consultations.

    ``reducer`` is the per-execution hook of a partial-order reduction
    (sleep-set POR, source-DPOR).  It must also be the ``chooser``, which
    is how it sees the option every thread decision took, and it has:

    * ``filter(instance, options, enabled) -> list`` — the option filter,
      called at every scheduling point with the sorted schedulable
      threads.  It returns the options the chooser picks among; an empty
      list prunes the execution as ``VISITED_PRUNED``;
    * ``finish(instance, outcome)`` — called when the loop ends, before
      the instance is closed;
    * ``snapshot_state()`` / ``restore_state(state)`` — its state at a
      prefix snapshot, kept in the snapshot cache entry.

    Without a reducer the loop pays one ``is None`` test per step for it.
    """
    if pruner is not None:
        snapshot_cache = None
    timers = observer.timers if observer is not None else None
    profiler = observer.profiler if observer is not None else None
    # The profiler charges set-up and restore to the entry node below.
    pmark = perf_counter() if profiler is not None else 0.0
    instance = _setup_instance(program, config, observer)
    deadline: Optional[float] = None
    if config.execution_budget_seconds is not None:
        deadline = perf_counter() + config.execution_budget_seconds

    restored: Optional[PrefixSnapshot] = None
    #: Branch points from this step on are captured.
    capture_from = _NEVER
    if snapshot_cache is not None:
        guide = getattr(chooser, "guide", None)
        if guide is None or not hasattr(instance, "fast_forward"):
            # No prefix to match, or no way to restore one: run uncached
            # and capture nothing, so the cache stays on one path.
            snapshot_cache = None
        else:
            instance, restored, decisions = _restore_prefix(
                snapshot_cache, guide, program, instance, config, observer,
                timers)
            # The restored point is cached already, so the spacing
            # counts from it.
            capture_from = (0 if restored is None
                            else restored.steps + snapshot_cache.interval)

    track_signatures = snapshot_cache is not None and coverage is not None
    if restored is not None:
        # Resume the engine where the snapshot left off: the restored
        # policy state already saw every prefix step (register_thread
        # included), the chooser cursor jumps past the restored
        # decisions, and the coverage tracker replays the prefix's
        # recorded signatures so totals match a full replay exactly.
        policy.restore_state(restored.policy_state)
        chooser.skip(restored.count)
        if reducer is not None:
            reducer.restore_state(restored.reducer_state)
        steps = restored.steps
        trace: List[StepInfo] = restored.trace[:steps]
        preemptions = restored.preemptions
        preemption_steps = restored.preemption_steps[:preemptions]
        yields = restored.yields
        last_tid: object = restored.last_tid
        last_was_yield = restored.last_was_yield
        prefix_signatures: List = []
        if track_signatures:
            t0 = perf_counter() if timers is not None else 0.0
            prefix_signatures = restored.signatures[:steps]
            for signature in prefix_signatures:
                coverage.record(signature)
            if timers is not None:
                elapsed = perf_counter() - t0
                timers.add("snapshot", elapsed)
                if observer is not None:
                    observer.snapshot_restore_timed(elapsed)
    else:
        for tid in sorted_options(instance.thread_ids()):
            policy.register_thread(tid)
        decisions: List[Decision] = []
        trace = []
        steps = 0
        preemptions = 0
        preemption_steps: List[int] = []
        yields = 0
        last_tid = None
        last_was_yield = False
        prefix_signatures = []

    if profiler is not None:
        # Cursor into the decision-cost tree: enter at the prefix already
        # recorded (empty for a fresh execution, the restored decisions
        # after a snapshot fast-forward), charge it the set-up and the
        # restored steps, and time iterations from here.
        pnode = profiler.enter(d.index for d in decisions)
        now = perf_counter()
        profiler.add_step(pnode, now - pmark, steps)
        pmark = now
    else:
        pnode = None

    hit_depth_bound = False
    completing_randomly = False
    completion_end = 0  # random completion's step cap, set when it starts
    violation: Optional[PropertyViolation] = None
    crash: Optional[BaseException] = None
    abort_reason: Optional[str] = None
    outcome = Outcome.TERMINATED
    divergence = None
    algo_state = (getattr(policy, "algorithm_state", None)
                  if observer is not None else None)
    if observer is not None:
        observer.execution_started()
        if restored is not None:
            observer.prefix_restored(decisions, [
                (at, trace[at - 1].tid, trace[at].tid)
                for at in preemption_steps])

    # Per-execution constants, bound once because the loop below runs once
    # per transition.  ``pick`` is the active chooser's, switched to the
    # random completion chooser's at the depth bound.
    pick = chooser.pick
    step = instance.step
    enabled_threads = instance.enabled_threads
    schedulable_of = policy.schedulable
    observe_step = policy.observe_step
    config_monitors = config.monitors
    local_monitors = getattr(instance, "monitors", ())
    temporal_monitors = getattr(instance, "temporal_monitors", ())
    # Monitors are installed at set-up, so this one test spares every
    # step of an unmonitored program the walk of three empty lists.
    monitored = bool(config_monitors or local_monitors or temporal_monitors)
    depth_bound = config.depth_bound
    preemption_bound = config.preemption_bound
    record_decision = decisions.append
    record_step = trace.append

    def data_choice_handler(n: int) -> int:
        nonlocal pnode
        if timers is not None:
            t0 = perf_counter()
            index = pick("data", n)
            timers.add("schedule", perf_counter() - t0)
        else:
            index = pick("data", n)
        if not completing_randomly:
            record_decision(_new_record(Decision, ("data", index, n, index)))
            if profiler is not None:
                pnode = profiler.descend(pnode, index)
            if observer is not None:
                observer.decision(steps, "data", index, n, index)
        return index

    if hasattr(instance, "data_choice_handler"):
        instance.data_choice_handler = data_choice_handler

    #: How the step that ended the execution failed, if one did.
    fault: Optional[str] = None

    while True:
        if deadline is not None and perf_counter() > deadline:
            outcome = Outcome.ABORTED
            abort_reason = (
                f"execution exceeded its "
                f"{config.execution_budget_seconds:g}s wall-clock budget"
            )
            if observer is not None:
                observer.execution_aborted(steps, abort_reason)
            break
        if coverage is not None:
            if timers is not None:
                t0 = perf_counter()
                signature = instance.state_signature()
                coverage.record(signature)
                timers.add("hash", perf_counter() - t0)
            else:
                signature = instance.state_signature()
                coverage.record(signature)
            if track_signatures and not completing_randomly:
                prefix_signatures.append(signature)
        if pruner is not None and pruner(
            instance,
            PrunePoint(
                steps=steps,
                decisions=len(decisions),
                last_tid=last_tid,
                last_was_yield=last_was_yield,
                preemptions=preemptions,
            ),
        ):
            outcome = Outcome.VISITED_PRUNED
            break

        enabled = enabled_threads()
        if not enabled:
            status = instance.status()
            outcome = (Outcome.TERMINATED if status is RunStatus.TERMINATED
                       else Outcome.DEADLOCK)
            break

        # Depth-bound handling (before extending the execution).
        if (depth_bound is not None and steps >= depth_bound
                and not completing_randomly):
            hit_depth_bound = True
            if config.on_depth_exceeded == "divergence":
                # Analyze at most the last half of the execution: the
                # prefix is ordinary progress, only the tail exhibits the
                # divergence.
                window = max(16, min(config.divergence_window, steps // 2))
                divergence = _temporal_verdict(instance) or classify_divergence(
                    trace[-config.trace_window:],
                    window=window,
                    gs_schedule_threshold=config.gs_schedule_threshold,
                    observer=observer,
                )
                if observer is not None:
                    observer.divergence(divergence)
                outcome = Outcome.DIVERGENCE
                break
            if config.on_depth_exceeded == "prune":
                outcome = Outcome.DEPTH_PRUNED
                break
            if config.on_depth_exceeded == "random-completion":
                completing_randomly = True
                completion_end = depth_bound + config.random_completion_cap
                capture_from = _NEVER
                # Snapshots hold ``trace`` by reference: the random tail
                # goes to a fresh list, so none of them keeps it alive.
                trace = trace[-config.trace_window:]
                record_step = trace.append
                rng = completion_rng
                if rng is None:
                    # Derive the fallback from the recorded decision
                    # prefix: a bare Random(config.seed) here would hand
                    # every execution the *same* completion schedule,
                    # correlating the random tails across the search.
                    prefix = ",".join(str(d.index) for d in decisions)
                    rng = random.Random(f"{config.seed}|{prefix}")
                pick = RandomChooser(rng).pick
            else:
                raise ValueError(
                    f"unknown on_depth_exceeded mode "
                    f"{config.on_depth_exceeded!r}"
                )
        if completing_randomly and steps >= completion_end:
            outcome = Outcome.DEPTH_PRUNED
            break

        if timers is not None:
            t0 = perf_counter()
            schedulable = schedulable_of(enabled)
            timers.add("policy", perf_counter() - t0)
            if algo_state is not None:
                observer.priority_relation(algo_state.priority.edge_count())
        else:
            schedulable = schedulable_of(enabled)
        if not schedulable:
            raise AssertionError(
                "schedulable set empty while threads are enabled — "
                "Theorem 3 broken (or a non-conforming policy)"
            )

        # ---- context bounding -----------------------------------------
        # ``sorted_options``, inlined: this runs once per transition.
        if len(schedulable) == 1:
            options = [*schedulable]
        else:
            try:
                options = sorted(schedulable)
            except TypeError:
                options = sorted(schedulable, key=repr)
        switch_costs_preemption = False
        if preemption_bound is not None and not completing_randomly:
            if last_tid is not None and last_tid in enabled and not last_was_yield:
                if last_tid in schedulable:
                    switch_costs_preemption = True
                elif config.count_fairness_preemptions:
                    switch_costs_preemption = True  # ablation mode
                # else: fairness-forced switch — free, per Section 4.
            if switch_costs_preemption and preemptions >= preemption_bound:
                if last_tid in schedulable:
                    options = [last_tid]
                    switch_costs_preemption = False
                else:
                    # Ablation corner: every available choice would exceed
                    # the bound; the execution falls outside the search.
                    outcome = Outcome.DEPTH_PRUNED
                    hit_depth_bound = False
                    break
        if reducer is not None:
            options = reducer.filter(instance, options, enabled)
            if not options:
                # Every schedulable thread is asleep: this execution only
                # permutes independent transitions of an explored one.
                outcome = Outcome.VISITED_PRUNED
                break
        if steps >= capture_from and len(options) > 1:
            # A branch point: DFS comes back to this state once for each
            # other option, and each of those executions resumes here.
            # The sleep set is settled and the policy has seen every
            # step before this one; the signatures stored cover states
            # 0..steps-1, and the resumed loop records state ``steps``
            # itself, so totals match a full replay exactly.
            capture_from = steps + snapshot_cache.interval
            t0 = perf_counter() if timers is not None else 0.0
            snapshot_cache.capture(
                decisions, steps, policy, preemptions, yields, last_tid,
                last_was_yield, trace,
                prefix_signatures if track_signatures else None,
                reducer.snapshot_state() if reducer is not None else None,
                preemption_steps)
            if timers is not None:
                elapsed = perf_counter() - t0
                timers.add("snapshot", elapsed)
                if observer is not None:
                    observer.snapshot_capture_timed(elapsed)

        if timers is not None:
            t0 = perf_counter()
            index = pick("thread", len(options))
            timers.add("schedule", perf_counter() - t0)
        else:
            index = pick("thread", len(options))
        tid = options[index]
        if not completing_randomly:
            record_decision(
                _new_record(Decision, ("thread", index, len(options), tid)))
            if profiler is not None:
                pnode = profiler.descend(pnode, index)
            if observer is not None:
                observer.decision(steps, "thread", index, len(options),
                                  tid, len(schedulable), len(enabled))
        if switch_costs_preemption and tid != last_tid:
            preemptions += 1
            preemption_steps.append(steps)
            if observer is not None:
                observer.preemption(steps, last_tid, tid, preemptions)

        t0 = perf_counter() if timers is not None else 0.0
        try:
            info = step(tid)
            if monitored:
                for monitor in config_monitors:
                    monitor(instance)
                for local_monitor in local_monitors:
                    local_monitor()
                for temporal in temporal_monitors:
                    temporal.observe()
        except ExecutionHung as exc:
            outcome = Outcome.ABORTED
            abort_reason = str(exc)
            fault = f"⌛ {exc}"
            break
        except TaskCrash as exc:
            if config.capture_crashes:
                crash = exc
                outcome = Outcome.CRASHED
                fault = f"✗ crash: {exc}"
            else:
                # Legacy behavior: a crashing task is a property violation
                # (TaskCrash subclasses PropertyViolation).
                violation = exc
                outcome = Outcome.VIOLATION
                fault = f"† {exc}"
            break
        except PropertyViolation as exc:
            violation = exc
            outcome = Outcome.VIOLATION
            fault = f"† {exc}"
            break
        except Exception as exc:  # noqa: BLE001 - quarantine boundary
            if (not config.capture_crashes
                    or isinstance(exc, UnsupportedConfiguration)):
                raise
            crash = exc
            outcome = Outcome.CRASHED
            fault = f"✗ crash: {exc}"
            break

        if timers is not None:
            timers.add("execute", perf_counter() - t0)
        observe_step(info)
        # The runtime's record is the trace entry.
        record_step(info)
        last_was_yield = info.yielded
        steps += 1
        last_tid = tid
        if observer is not None and last_was_yield:
            yields += 1
        if profiler is not None:
            # Attribute the whole iteration (policy, chooser, step,
            # bookkeeping) to the node addressed by the decisions so far.
            now = perf_counter()
            profiler.add_step(pnode, now - pmark)
            pmark = now

    if fault is not None:
        # The step raised, so the runtime returned no record: build the
        # entry here, naming how the step failed.  The faulting
        # transition counts, in ``steps`` and in the profile, same as
        # every other: the thread was scheduled and (partially) executed.
        record_step(StepInfo(tid, enabled, _EMPTY, False, (), fault,
                             _thread_name(instance, tid)))
        steps += 1
        if timers is not None:
            timers.add("execute", perf_counter() - t0)
        if profiler is not None:
            now = perf_counter()
            profiler.add_step(pnode, now - pmark)
            pmark = now
        if observer is not None:
            if outcome is Outcome.ABORTED:
                observer.execution_aborted(steps, abort_reason)
            elif outcome is Outcome.VIOLATION:
                observer.violation(steps, str(violation))

    if reducer is not None:
        reducer.finish(instance, outcome)
    if not config.keep_instance:
        closer = getattr(instance, "close", None)
        if closer is not None:
            closer()
    if profiler is not None:
        # Terminal remainder: classification, the breaking iteration's
        # partial work and instance teardown land on the final node, so
        # the tree total tracks the execution's wall time.
        profiler.finish_execution(pnode, perf_counter() - pmark)
    completed_randomly = completing_randomly and outcome in (
        Outcome.TERMINATED, Outcome.DEADLOCK)
    result = ExecutionResult(
        outcome=outcome,
        decisions=decisions,
        steps=steps,
        preemptions=preemptions,
        violation=violation,
        divergence=divergence,
        trace=tuple(trace[-config.trace_window:]),
        hit_depth_bound=hit_depth_bound,
        completed_randomly=completed_randomly,
        crash=crash,
        abort_reason=abort_reason,
        preemption_bound=config.preemption_bound,
    )
    if config.keep_instance:
        result.final_instance = instance
    if observer is not None:
        guide = getattr(chooser, "guide", None)
        if guide:
            # Prefix transitions re-executed through the full engine loop
            # (the hot-path cost the snapshot cache attacks); tracked even
            # with the cache off so benchmarks can report the reduction.
            limit = min(len(guide), len(decisions))
            replayed = sum(
                1 for d in decisions[:limit] if d.kind == "thread")
            if restored is not None:
                replayed -= restored.steps
            observer.prefix_replayed(max(0, replayed))
        observer.execution_finished(result, yields=yields)
    return result
