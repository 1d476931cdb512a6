"""The Observer: one object the engine reports everything to.

An :class:`Observer` bundles the three telemetry backends — event sink,
metrics registry, phase timers — plus an optional progress reporter, and
exposes the narrow hook surface the engine calls.  The engine takes
``observer=None`` everywhere and guards every hook with
``if observer is not None``, so a disabled checker pays a single branch
per call site and allocates nothing.

Metric names (see ``docs/observability.md`` for the full schema):

* counters — ``executions``, ``transitions``, ``yields``,
  ``preemptions``, ``backtracks``, ``violations``, ``deadlocks``,
  ``divergences``, ``divergence.<kind>``, ``decisions.thread``,
  ``decisions.data``, ``states.new``, ``states.revisited``,
  ``icb.sweeps``, ``dpor.races_detected``, ``dpor.sleep_blocked``,
  ``dpor.wakeup_pruned``, ``dpor.wakeup_abandoned``,
  ``dpor.fairness_skipped``, ``crashes``, ``crashes.quarantined``,
  ``executions.aborted``, ``checkpoints``, ``threads.leaked``,
  ``executions.replayed_steps``, ``executions.restored_steps``,
  ``snapshot.hits``, ``snapshot.misses``;
* gauges — ``wall.seconds``, ``rate.executions_per_second``,
  ``rate.transitions_per_second``;
* histograms — ``schedulable_set_size``, ``enabled_set_size``,
  ``steps_per_execution``, ``yields_per_execution``,
  ``priority_relation_size``, ``snapshot.capture.seconds``,
  ``snapshot.restore.seconds``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    Backtrack,
    CheckpointRecovered,
    CheckpointWriteFailed,
    CheckpointWritten,
    CrashQuarantined,
    FaultInjected,
    DivergenceClassified,
    EventSink,
    ExecutionAborted,
    ExecutionFinished,
    ExecutionStarted,
    ExplorationFinished,
    ExplorationStarted,
    IcbSweep,
    Preemption,
    PrefixRestored,
    SchedulingDecision,
    SearchInterrupted,
    ThreadLeaked,
    ViolationFound,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.timers import PhaseTimers


class Observer:
    """Aggregates engine telemetry; every hook is cheap and total."""

    def __init__(
        self,
        *,
        sink: Optional[EventSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        timers: Optional[PhaseTimers] = None,
        progress: Optional[ProgressReporter] = None,
        profiler=None,
    ) -> None:
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timers = timers if timers is not None else PhaseTimers()
        self.progress = progress
        #: Optional :class:`repro.obs.profile.DecisionProfiler`; when set,
        #: the executor attributes per-transition time to decision-tree
        #: prefixes (docs/profiling.md).  None keeps the inner loop on a
        #: single ``is not None`` branch per touch point.
        self.profiler = profiler
        self._execution = -1  # index of the execution in flight

        # Pre-bound hot-path instruments (no dict lookup per transition).
        m = self.metrics
        self._executions = m.counter("executions")
        self._transitions = m.counter("transitions")
        self._yields = m.counter("yields")
        self._preemptions = m.counter("preemptions")
        self._decisions_thread = m.counter("decisions.thread")
        self._decisions_data = m.counter("decisions.data")
        self._schedulable_size = m.histogram("schedulable_set_size")
        self._enabled_size = m.histogram("enabled_set_size")
        self._steps_per_execution = m.histogram("steps_per_execution")
        self._yields_per_execution = m.histogram("yields_per_execution")
        self._priority_size = m.histogram("priority_relation_size")

    # ------------------------------------------------------------------
    # exploration lifecycle
    # ------------------------------------------------------------------
    def exploration_started(self, program: str, policy: str,
                            strategy: str) -> None:
        if self.sink is not None:
            self.sink.emit(ExplorationStarted(program=program, policy=policy,
                                              strategy=strategy))

    def exploration_finished(self, result) -> None:
        """Called with the final :class:`ExplorationResult`."""
        m = self.metrics
        wall = m.gauge("wall.seconds")
        wall.set(wall.value + result.wall_seconds)
        total_wall = wall.value or 1e-9
        m.gauge("rate.executions_per_second").set(
            self._executions.value / total_wall)
        m.gauge("rate.transitions_per_second").set(
            self._transitions.value / total_wall)
        if self.sink is not None:
            self.sink.emit(ExplorationFinished(
                executions=result.executions,
                transitions=result.transitions,
                wall_seconds=result.wall_seconds,
                complete=result.complete,
                stop_reason=(getattr(result, "stop_reason", None)
                             or ("limit" if result.limit_hit else None)),
            ))
        if self.progress is not None:
            self.progress.report(
                self._executions.value, self._transitions.value,
                violations=m.counter("violations").value,
                divergences=m.counter("divergences").value,
            )

    # ------------------------------------------------------------------
    # execution lifecycle (called from the executor)
    # ------------------------------------------------------------------
    def execution_started(self) -> int:
        self._execution += 1
        if self.sink is not None:
            self.sink.emit(ExecutionStarted(execution=self._execution))
        return self._execution

    def execution_finished(self, record, *, yields: int = 0) -> None:
        m = self.metrics
        self._executions.inc()
        self._transitions.inc(record.steps)
        self._yields.inc(yields)
        self._steps_per_execution.record(record.steps)
        self._yields_per_execution.record(yields)
        outcome = record.outcome.value
        if outcome == "violation":
            m.counter("violations").inc()
        elif outcome == "deadlock":
            m.counter("deadlocks").inc()
        elif outcome == "crashed":
            m.counter("crashes").inc()
        if self.sink is not None:
            self.sink.emit(ExecutionFinished(
                execution=self._execution,
                outcome=outcome,
                steps=record.steps,
                preemptions=record.preemptions,
                hit_depth_bound=record.hit_depth_bound,
            ))
        if self.progress is not None:
            self.progress.maybe_report(
                self._executions.value, self._transitions.value,
                violations=m.counter("violations").value,
                divergences=m.counter("divergences").value,
            )

    # ------------------------------------------------------------------
    # per-transition hooks (called from the executor inner loop)
    # ------------------------------------------------------------------
    def decision(self, step: int, kind: str, index: int, options: int,
                 chosen: object, schedulable: int = 0,
                 enabled: int = 0) -> None:
        if kind == "thread":
            self._decisions_thread.inc()
            self._schedulable_size.record(schedulable)
            self._enabled_size.record(enabled)
        else:
            self._decisions_data.inc()
        if self.sink is not None:
            self.sink.emit(SchedulingDecision(
                execution=self._execution, step=step, kind=kind,
                index=index, options=options, chosen=repr(chosen),
                schedulable=schedulable, enabled=enabled,
            ))

    def priority_relation(self, size: int) -> None:
        """Size of the fair policy's priority relation ``P`` at one state."""
        self._priority_size.record(size)

    def preemption(self, step: int, preempted: object, scheduled: object,
                   count: int) -> None:
        self._preemptions.inc()
        if self.sink is not None:
            self.sink.emit(Preemption(
                execution=self._execution, step=step,
                preempted=repr(preempted), scheduled=repr(scheduled),
                count=count,
            ))

    def violation(self, step: int, message: str) -> None:
        if self.sink is not None:
            self.sink.emit(ViolationFound(execution=self._execution,
                                          step=step, message=message))

    def divergence(self, report) -> None:
        """Called with the :class:`DivergenceReport` of one execution."""
        self.metrics.counter("divergences").inc()
        self.metrics.counter(f"divergence.{report.kind.value}").inc()
        if self.sink is not None:
            self.sink.emit(DivergenceClassified(
                execution=self._execution,
                kind=report.kind.value,
                culprits=tuple(report.culprits),
                window=report.window,
                detail=report.detail,
            ))

    # ------------------------------------------------------------------
    # strategy hooks
    # ------------------------------------------------------------------
    def backtrack(self, depth: int) -> None:
        self.metrics.counter("backtracks").inc()
        if self.sink is not None:
            self.sink.emit(Backtrack(execution=self._execution, depth=depth))

    def icb_sweep(self, bound: int, result) -> None:
        self.metrics.counter("icb.sweeps").inc()
        self.metrics.gauge("icb.last_bound").set(bound)
        if self.sink is not None:
            self.sink.emit(IcbSweep(
                bound=bound,
                executions=result.executions,
                transitions=result.transitions,
                found_violation=result.found_violation,
                wall_seconds=result.wall_seconds,
            ))

    def dpor_race_detected(self) -> None:
        """Source-DPOR found a reversible race in the last execution.

        Each race counts once, in the execution where its later step
        first runs: a race inside the prefix an execution replays was
        counted when it was new.
        """
        self.metrics.counter("dpor.races_detected").inc()

    def dpor_sleep_blocked(self) -> None:
        """An execution stopped with every schedulable thread asleep."""
        self.metrics.counter("dpor.sleep_blocked").inc()

    def dpor_wakeup_pruned(self) -> None:
        """A wakeup sequence was redundant (initials asleep/explored)."""
        self.metrics.counter("dpor.wakeup_pruned").inc()

    def dpor_wakeup_abandoned(self) -> None:
        """A forced wakeup suffix became policy-unschedulable mid-run."""
        self.metrics.counter("dpor.wakeup_abandoned").inc()

    def dpor_fairness_skipped(self) -> None:
        """A backtrack insertion was deferred: no initial schedulable."""
        self.metrics.counter("dpor.fairness_skipped").inc()

    def dpor_handover(self) -> None:
        """A race with a disabled partner re-inserted at the enabling
        step (lock handover)."""
        self.metrics.counter("dpor.lock_handovers").inc()

    # ------------------------------------------------------------------
    # resilience hooks
    # ------------------------------------------------------------------
    def checkpoint_saved(self, path: str, executions: int) -> None:
        self.metrics.counter("checkpoints").inc()
        if self.sink is not None:
            self.sink.emit(CheckpointWritten(path=path,
                                             executions=executions))

    def checkpoint_recovered(self, path: str,
                             quarantined: Optional[str]) -> None:
        """A corrupt checkpoint fell back to its ``.prev`` snapshot."""
        self.metrics.counter("checkpoints.recovered").inc()
        if self.sink is not None:
            self.sink.emit(CheckpointRecovered(path=path,
                                               quarantined=quarantined))

    def checkpoint_write_failed(self, path: str, error: str) -> None:
        """A checkpoint write hit a disk error and was degraded."""
        self.metrics.counter("checkpoints.write_failed").inc()
        if self.sink is not None:
            self.sink.emit(CheckpointWriteFailed(path=path, error=error))

    def fault_injected(self, point: str, kind: str, hit: int) -> None:
        """The chaos plane fired one injected fault."""
        self.metrics.counter("faults.injected").inc()
        self.metrics.counter(f"faults.injected.{kind}").inc()
        if self.sink is not None:
            self.sink.emit(FaultInjected(point=point, kind=kind, hit=hit))

    def execution_aborted(self, step: int, reason: str) -> None:
        self.metrics.counter("executions.aborted").inc()
        if self.sink is not None:
            self.sink.emit(ExecutionAborted(execution=self._execution,
                                            step=step, reason=reason))

    def crash_quarantined(self, message: str,
                          path: Optional[str] = None) -> None:
        self.metrics.counter("crashes.quarantined").inc()
        if self.sink is not None:
            self.sink.emit(CrashQuarantined(execution=self._execution,
                                            message=message, path=path))

    def thread_leaked(self, threads) -> None:
        self.metrics.counter("threads.leaked").inc(len(threads))
        if self.sink is not None:
            self.sink.emit(ThreadLeaked(execution=self._execution,
                                        threads=tuple(threads)))

    def search_interrupted(self, signal: str) -> None:
        if self.sink is not None:
            self.sink.emit(SearchInterrupted(signal=signal))

    # ------------------------------------------------------------------
    # coverage hooks
    # ------------------------------------------------------------------
    def state_hashed(self, fresh: bool) -> None:
        name = "states.new" if fresh else "states.revisited"
        self.metrics.counter(name).inc()

    # ------------------------------------------------------------------
    # prefix-snapshot cache hooks (called once per execution / capture,
    # not per transition, so dynamic counter lookups are fine here)
    # ------------------------------------------------------------------
    def snapshot_lookup(self, hit: bool, restored_steps: int) -> None:
        """One cache lookup at the start of a guided execution."""
        self.metrics.counter("snapshot.hits" if hit
                             else "snapshot.misses").inc()
        if restored_steps:
            self.metrics.counter("executions.restored_steps").inc(
                restored_steps)

    def prefix_restored(self, decisions, preemptions) -> None:
        """The execution in flight began with ``decisions``, restored
        from a snapshot, and ``preemptions`` holds the ``(step,
        preempted, scheduled)`` of each preemption among them.  Both
        are counted as a replay would count them, and each preemption
        gets its event; the trace records the decisions as one event,
        so it still replays the whole execution."""
        threads = sum(1 for d in decisions if d.kind == "thread")
        self._decisions_thread.inc(threads)
        self._decisions_data.inc(len(decisions) - threads)
        if self.sink is not None:
            self.sink.emit(PrefixRestored(
                execution=self._execution,
                indices=tuple([d.index for d in decisions])))
        for count, (step, preempted, scheduled) in enumerate(preemptions, 1):
            self.preemption(step, preempted, scheduled, count)

    def prefix_replayed(self, steps: int) -> None:
        """Prefix transitions re-executed through the full engine loop
        (the cost the snapshot cache removes; counted even with the cache
        off so benchmarks can report the reduction)."""
        self.metrics.counter("executions.replayed_steps").inc(steps)

    def snapshot_capture_timed(self, seconds: float) -> None:
        """Measured cost of one snapshot capture (docs/profiling.md).

        Fed by the same ``perf_counter`` pair that feeds the ``snapshot``
        phase timer, so the capture and restore histogram sums account
        for the phase total.
        """
        self.metrics.histogram("snapshot.capture.seconds").record(seconds)

    def snapshot_restore_timed(self, seconds: float) -> None:
        """Measured cost of one cache lookup/fast-forward (also covers
        signature replay into the coverage tracker)."""
        self.metrics.histogram("snapshot.restore.seconds").record(seconds)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """The ``--stats`` text: phase table plus metrics listing."""
        return "\n".join([
            "phase timings:",
            self.timers.summary(),
            "",
            self.metrics.summary(),
        ])

    def dump_json(self, path: str) -> str:
        """Write metrics + phase timers as one JSON document."""
        return self.metrics.dump_json(
            path, extra={"phases": self.timers.to_dict()})

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
