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
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from repro.chaos.faults import InjectedFault, fault_at
from repro.core.model import Program, ProgramInstance, RunStatus
from repro.core.policies import SchedulingPolicy
from repro.engine.classify import classify_divergence
from repro.engine.coverage import CoverageTracker
from repro.engine.results import (
    Decision,
    DivergenceKind,
    DivergenceReport,
    ExecutionResult,
    Outcome,
    TraceStep,
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
    def guide(self) -> Sequence[int]:
        """The recorded guide (read by the prefix-snapshot cache)."""
        return tuple(self._guide)

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
    #: Enable the prefix-snapshot cache (docs/performance.md).  Only
    #: effective for programs that declare ``supports_snapshot`` (the VM
    #: runtime); the native runtime transparently falls back to full
    #: replay.  Off by default.
    snapshot_cache: bool = False
    #: Snapshot every N transitions along an execution.  Smaller = less
    #: prefix re-execution, more capture overhead and memory.
    snapshot_interval: int = 16
    #: Memory budget for the snapshot cache, in MiB (LRU eviction).
    snapshot_memory_mb: int = 64


def sorted_options(values) -> list:
    """Thread ids in a stable order (by ``repr`` when unorderable)."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


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
    chooser: Chooser,
    program: Program,
    instance: ProgramInstance,
    config: ExecutorConfig,
    coverage: Optional[CoverageTracker],
    observer,
    timers,
):
    """Fast-forward ``instance`` through the deepest cached prefix of the
    chooser's guide.  Returns ``(instance, snapshot-or-None)``; any
    failure falls back to a fresh instance and full replay."""
    guide = getattr(chooser, "guide", None)
    skip = getattr(chooser, "skip", None)
    forward = getattr(instance, "fast_forward", None)
    if guide is None or skip is None or forward is None:
        return instance, None
    t0 = perf_counter() if timers is not None else 0.0
    entry = cache.lookup(guide, need_signatures=coverage is not None)
    if entry is not None:
        def per_step(live) -> None:
            for monitor in config.monitors:
                monitor(live)

        try:
            rule = fault_at("snapshot.restore", steps=entry.steps)
            if rule is not None:
                raise InjectedFault(
                    f"injected snapshot.restore fault ({rule.kind})")
            forward(entry.decisions, per_step=per_step)
        except Exception:  # noqa: BLE001 - determinism-contract guard
            # The prefix did not replay cleanly, so the program broke the
            # determinism contract; trust nothing cached and fall back to
            # a fresh instance and a full replay.
            cache.clear(failure=True)
            closer = getattr(instance, "close", None)
            if closer is not None:
                closer()
            instance = _setup_instance(program, config, observer)
            entry = None
    if timers is not None:
        elapsed = perf_counter() - t0
        timers.add("snapshot", elapsed)
        if observer is not None:
            observer.snapshot_restore_timed(
                elapsed,
                entry.estimated_bytes() if entry is not None else 0)
    if observer is not None:
        observer.snapshot_lookup(entry is not None,
                                 entry.steps if entry is not None else 0)
    return instance, entry


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
    calling strategy: when the chooser carries a guide, the execution
    starts from the deepest cached snapshot whose decision prefix matches
    it (instead of re-executing from step 0) and stores new snapshots
    every ``cache.interval`` transitions.  Cached and uncached runs
    produce identical results; a pruner disables the cache because prefix
    restoration would skip its per-state consultations.

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
    instance = _setup_instance(program, config, observer)
    deadline: Optional[float] = None
    if config.execution_budget_seconds is not None:
        deadline = perf_counter() + config.execution_budget_seconds
    timers = observer.timers if observer is not None else None
    profiler = observer.profiler if observer is not None else None

    restored: Optional[PrefixSnapshot] = None
    if snapshot_cache is not None:
        instance, restored = _restore_prefix(
            snapshot_cache, chooser, program, instance, config, coverage,
            observer, timers)

    if restored is not None:
        # Resume the engine where the snapshot left off: the restored
        # policy state already saw every prefix step (register_thread
        # included), the chooser cursor jumps past the restored
        # decisions, and the coverage tracker replays the prefix's
        # recorded signatures so totals match a full replay exactly.
        policy = restored.restore_policy(policy)
        chooser.skip(len(restored.decisions))
        if reducer is not None:
            reducer.restore_state(restored.reducer_state)
        decisions: List[Decision] = list(restored.decisions)
        trace: deque = deque(restored.trace, maxlen=config.trace_window)
        steps = restored.steps
        preemptions = restored.preemptions
        yields = restored.yields
        last_tid: object = restored.last_tid
        last_was_yield = restored.last_was_yield
        if coverage is not None and restored.signatures:
            t0 = perf_counter() if timers is not None else 0.0
            for signature in restored.signatures:
                coverage.record(signature)
            if timers is not None:
                elapsed = perf_counter() - t0
                timers.add("snapshot", elapsed)
                if observer is not None:
                    observer.snapshot_restore_timed(elapsed, 0)
    else:
        for tid in sorted_options(instance.thread_ids()):
            policy.register_thread(tid)
        decisions = []
        trace = deque(maxlen=config.trace_window)
        steps = 0
        preemptions = 0
        yields = 0
        last_tid = None
        last_was_yield = False

    if profiler is not None:
        # Cursor into the decision-cost tree: enter at the prefix already
        # recorded (empty for a fresh execution, the restored decisions
        # after a snapshot fast-forward) and time iterations from here.
        pnode = profiler.enter(d.index for d in decisions)
        pmark = perf_counter()
    else:
        pnode = None
        pmark = 0.0

    track_signatures = snapshot_cache is not None and coverage is not None
    prefix_signatures: List = (list(restored.signatures or ())
                               if restored is not None else [])
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
            record_decision(Decision("data", index, n, index))
            if profiler is not None:
                pnode = profiler.descend(pnode, index)
            if observer is not None:
                observer.decision(steps, "data", index, n, index)
        return index

    if hasattr(instance, "data_choice_handler"):
        instance.data_choice_handler = data_choice_handler

    name_cache: dict = {}

    def thread_name(tid: object) -> str:
        name = name_cache.get(tid)
        if name is None:
            getter = getattr(instance, "task", None)
            if getter is not None:
                try:
                    name = getter(tid).name
                except Exception:  # noqa: BLE001 - lookup is cosmetic
                    name = str(tid)
            else:
                name = str(tid)
            name_cache[tid] = name
        return name

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
        if (snapshot_cache is not None and not completing_randomly
                and steps > 0 and steps % snapshot_cache.interval == 0):
            # Capture BEFORE recording this state's coverage signature:
            # the stored signatures then cover states 0..steps-1, and the
            # resumed loop records state ``steps`` itself — totals match a
            # full replay exactly.
            t0 = perf_counter() if timers is not None else 0.0
            snapshot_cache.capture(
                decisions=decisions,
                steps=steps,
                policy=policy,
                preemptions=preemptions,
                yields=yields,
                last_tid=last_tid,
                last_was_yield=last_was_yield,
                trace=trace,
                signatures=(prefix_signatures if track_signatures else None),
                reducer_state=(reducer.snapshot_state()
                               if reducer is not None else None),
            )
            if timers is not None:
                elapsed = perf_counter() - t0
                timers.add("snapshot", elapsed)
                if observer is not None:
                    observer.snapshot_capture_timed(
                        elapsed, snapshot_cache.last_capture_bytes,
                        outcome=snapshot_cache.last_capture_outcome)
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
                    trace,
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
        options = sorted_options(schedulable)
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

        if timers is not None:
            t0 = perf_counter()
            index = pick("thread", len(options))
            timers.add("schedule", perf_counter() - t0)
        else:
            index = pick("thread", len(options))
        tid = options[index]
        if not completing_randomly:
            record_decision(Decision("thread", index, len(options), tid))
            if profiler is not None:
                pnode = profiler.descend(pnode, index)
            if observer is not None:
                observer.decision(steps, "thread", index, len(options),
                                  tid, len(schedulable), len(enabled))
        if switch_costs_preemption and tid != last_tid:
            preemptions += 1
            if observer is not None:
                observer.preemption(steps, last_tid, tid, preemptions)

        t0 = perf_counter() if timers is not None else 0.0
        try:
            info = step(tid)
            for monitor in config_monitors:
                monitor(instance)
            for local_monitor in local_monitors:
                local_monitor()
            for temporal in temporal_monitors:
                temporal.observe()
        except ExecutionHung as exc:
            outcome = Outcome.ABORTED
            abort_reason = str(exc)
            record_step(TraceStep(tid, thread_name(tid), f"⌛ {exc}", False,
                                  enabled))
            # The faulting transition counts, same as every other terminal
            # path: the thread was scheduled and (partially) executed.
            steps += 1
            if timers is not None:
                timers.add("execute", perf_counter() - t0)
            if observer is not None:
                observer.execution_aborted(steps, abort_reason)
            break
        except TaskCrash as exc:
            if not config.capture_crashes:
                # Legacy behavior: a crashing task is a property violation
                # (TaskCrash subclasses PropertyViolation).
                violation = exc
                outcome = Outcome.VIOLATION
                record_step(TraceStep(tid, thread_name(tid), f"† {exc}",
                                      False, enabled))
                steps += 1
                if timers is not None:
                    timers.add("execute", perf_counter() - t0)
                if observer is not None:
                    observer.violation(steps, str(exc))
                break
            crash = exc
            outcome = Outcome.CRASHED
            record_step(TraceStep(tid, thread_name(tid), f"✗ crash: {exc}",
                                  False, enabled))
            steps += 1
            if timers is not None:
                timers.add("execute", perf_counter() - t0)
            break
        except PropertyViolation as exc:
            violation = exc
            outcome = Outcome.VIOLATION
            record_step(TraceStep(tid, thread_name(tid), f"† {exc}", False,
                                  enabled))
            steps += 1
            if timers is not None:
                timers.add("execute", perf_counter() - t0)
            if observer is not None:
                observer.violation(steps, str(exc))
            break
        except Exception as exc:  # noqa: BLE001 - quarantine boundary
            if (not config.capture_crashes
                    or isinstance(exc, UnsupportedConfiguration)):
                raise
            crash = exc
            outcome = Outcome.CRASHED
            record_step(TraceStep(tid, thread_name(tid), f"✗ crash: {exc}",
                                  False, enabled))
            steps += 1
            if timers is not None:
                timers.add("execute", perf_counter() - t0)
            break

        if timers is not None:
            timers.add("execute", perf_counter() - t0)
        observe_step(info)
        name = name_cache.get(tid)
        if name is None:
            name = thread_name(tid)
        last_was_yield = info.yielded
        record_step(TraceStep(tid, name, info.operation, last_was_yield,
                              enabled))
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
        trace=tuple(trace),
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
