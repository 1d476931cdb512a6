"""The coordinator: plans shards, drives the worker pool, merges results.

One :class:`ParallelCoordinator` runs one parallel search of any of the
six strategies; it answers ``explore()`` and ``load_state_dict()`` like
the strategy it shards.  What it does is read off the strategy's class
(:data:`~repro.engine.strategies.STRATEGIES`):

* each of ``phases(config)`` is one *phase*: plan the shards, feed them
  to the pool, merge in shard order.  Every strategy has one phase
  except icb, which has one per preemption bound ``0..ceiling`` (the
  sweeps are inherently sequential: bound *b+1* only runs when bound
  *b* found no violation), its per-bound results folded with
  :func:`~repro.engine.strategies.merge_sweeps`;
* ``split`` picks the plan: decision-prefix subtrees (dfs, bfs, por,
  each icb sweep), walk-index ranges (random), or one shard (dpor);
* ``create(..., shard=, bound=)`` builds what a worker runs for one
  shard, and ``reducer`` steers the planner's probes and the replays
  that rebuild counterexample traces.

Determinism: the shard plan never depends on the worker count, shards
are merged in shard-index order, and the BFS preamble (the planner's
interior probe records) is folded first — so the merged totals of a
counted sweep (no early-stop limits) are byte-identical no matter how
many workers pulled from the queue.  With ``stop_on_first_violation``
the *verdict* is deterministic but the totals are not (workers race to
the stop event), exactly as a serial early stop depends on where the
violation sits in visit order.

Failure semantics (docs/parallel.md): a worker that dies mid-shard is
replaced (with exponential backoff under repeated deaths) and its shard
requeued; a worker that stops *heartbeating* — SIGSTOPped, livelocked —
is detected by the wedge timeout, SIGKILLed, and treated exactly like a
crash; a shard that kills its worker ``max_shard_attempts`` times is
quarantined (surfaced as a warning and an incomplete merged result).  First violation wins: the winning
worker's shard stops via its own limits, everyone else drains on the
shared stop event.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Set

from repro.engine.coverage import CoverageTracker
from repro.engine.replay import replay_schedule
from repro.engine.results import ExecutionResult, ExplorationResult, Outcome
from repro.engine.strategies import (
    ExplorationLimits,
    merge_sweeps,
    strategy_class,
)
from repro.parallel.shard import (
    DEFAULT_SHARD_TARGET,
    Shard,
    ShardPlan,
    plan_prefix_shards,
    plan_range_shards,
)
from repro.parallel.worker import run_shard, worker_main
from repro.resilience.checkpoint import (
    exploration_from_state,
    exploration_to_state,
)

#: Attempts before a worker-killing shard is quarantined.
DEFAULT_MAX_SHARD_ATTEMPTS = 2

#: Seconds the coordinator waits for in-flight shards after a stop.
_DRAIN_SECONDS = 30.0

#: Default seconds between worker heartbeats / of heartbeat silence
#: before a worker counts as wedged.
DEFAULT_HEARTBEAT_INTERVAL = 0.5
DEFAULT_WEDGE_TIMEOUT = 30.0

#: Exponential-backoff schedule for worker respawns: first replacement
#: is immediate (a lone crash shouldn't stall the pool), repeated deaths
#: back off up to the cap so a crash-looping workload can't fork-bomb.
_RESPAWN_BACKOFF_START = 0.1
_RESPAWN_BACKOFF_CAP = 5.0


def _fork_context():
    """The fork multiprocessing context, or None when unavailable.

    Programs hold closures (not picklable), so workers must inherit them
    by forking; platforms without fork fall back to inline execution of
    the same shard plan (identical totals, no parallelism).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class ParallelCoordinator:
    """Shards one search across a pool of forked worker processes."""

    #: Recorded in checkpoints, like a strategy's name.
    name = "parallel"

    def __init__(
        self,
        program,
        policy_factory,
        config,
        limits: ExplorationLimits,
        *,
        strategy: str = "dfs",
        workers: int = 2,
        shard_target: Optional[int] = None,
        seed: int = 0,
        executions: int = 200,
        coverage: Optional[CoverageTracker] = None,
        observer=None,
        resilience=None,
        resilience_options=None,
        max_shard_attempts: int = DEFAULT_MAX_SHARD_ATTEMPTS,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        wedge_timeout: Optional[float] = DEFAULT_WEDGE_TIMEOUT,
    ) -> None:
        self.cls = strategy_class(strategy)
        if workers < 1:
            raise ValueError("workers must be positive")
        config = self.cls.configure(config)
        self.program = program
        self.policy_factory = policy_factory
        self.config = config
        self.limits = limits
        self.strategy = strategy
        self.workers = workers
        self.shard_target = shard_target or DEFAULT_SHARD_TARGET
        self.seed = seed
        #: The random-search budget (walks over all shards).
        self.executions = executions
        #: Preemption bound of each phase (None: the config's own).
        self.bounds = self.cls.phases(config)
        self.coverage = coverage
        self.observer = observer
        self.resilience = resilience
        self.resilience_options = resilience_options
        self.max_shard_attempts = max_shard_attempts
        #: Workers put ``("heartbeat", id)`` on the result queue every
        #: ``heartbeat_interval`` seconds; a worker silent for longer
        #: than ``wedge_timeout`` is *wedged* (SIGSTOP, livelock — alive
        #: to ``is_alive()`` but making no progress), SIGKILLed, and its
        #: shard requeued like a crashed worker's.  ``wedge_timeout=None``
        #: disables the detector.
        self.heartbeat_interval = heartbeat_interval
        self.wedge_timeout = wedge_timeout
        self.warnings: List[str] = []

        self.policy_name = getattr(policy_factory(), "name", "")
        #: Per-shard limits: global caps are enforced here, not in the
        #: workers (a per-shard max_executions would multiply the cap).
        self.shard_limits = dataclasses.replace(
            limits, max_executions=None, max_seconds=None)

        # Run state -------------------------------------------------------
        self._stop_reason: Optional[str] = None
        self._streamed_executions = 0
        self._crashes = 0
        self._signatures: Set[object] = set()
        self._start_time = 0.0

        # Checkpoint state ------------------------------------------------
        self._completed_phases: List[dict] = []
        self._phase_index = 0
        self._plan_state: Optional[dict] = None
        self._shard_states: Dict[int, dict] = {}
        # Shards cut short by a coordinated stop: folded into the merge
        # of the stopped run, but never checkpointed — a resume must
        # re-run them from scratch.
        self._partial_states: Dict[int, dict] = {}

        # Pool state ------------------------------------------------------
        self._ctx = _fork_context()
        self._procs: List[SimpleNamespace] = []
        self._result_queue = None
        self._stop_event = None
        self._next_worker_id = 0
        #: Monotonic deadlines of replacement workers not yet forked
        #: (exponential backoff after repeated deaths).
        self._pending_respawns: List[float] = []
        self._respawn_backoff = 0.0

    # ------------------------------------------------------------------
    # labels and replays
    # ------------------------------------------------------------------
    def _label(self, bound: Optional[int] = None) -> str:
        """The label a serial search of one phase (or, for None, of the
        whole search) reports."""
        return self.cls.create(
            self.program, self.policy_factory, self.config, self.limits,
            bound=bound, seed=self.seed,
            executions=self.executions).strategy_label()

    def _replay(self, guide: List[int], bound: Optional[int],
                trace_window: int) -> ExecutionResult:
        """One execution along ``guide``, steered the way the strategy
        steers it, under preemption bound ``bound``."""
        return replay_schedule(
            self.program, guide, self.policy_factory, self.config,
            trace_window=trace_window, reducer=self.cls.reducer,
            bound=bound)

    def _plan_phase(self, bound: Optional[int]) -> ShardPlan:
        if self.observer is None:
            return self._plan_shards(bound)
        with self.observer.spans.measure(
                f"plan {self._label(bound)}", "planned") as span:
            plan = self._plan_shards(bound)
        span.args["shards"] = len(plan.shards)
        span.args["probes"] = plan.probes
        return plan

    def _plan_shards(self, bound: Optional[int]) -> ShardPlan:
        split = self.cls.split
        if split == "range":
            return plan_range_shards(self.executions,
                                     target=self.shard_target)
        if split == "prefix":
            # A probe is the execution the strategy itself would run for
            # the prefix, so branching factors match exactly.
            return plan_prefix_shards(
                lambda prefix: self._replay(prefix, bound,
                                            self.config.trace_window),
                target=self.shard_target,
            )
        return ShardPlan(kind="prefix",
                         shards=[Shard(index=0, kind="prefix", prefix=())])

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            "strategy": "parallel",
            "inner": self.strategy,
            "phase": self._phase_index,
            "completed_phases": list(self._completed_phases),
            "completed_shards": {str(i): s
                                 for i, s in self._shard_states.items()},
            "shard_target": self.shard_target,
            "aggregator": {"executions": self._merged_executions()},
        }
        if self._plan_state is not None:
            state["plan"] = self._plan_state
        return state

    def _merged_executions(self) -> int:
        total = sum(s.get("executions", 0)
                    for s in self._completed_phases)
        total += sum(s.get("executions", 0)
                     for s in self._shard_states.values())
        return total

    def load_state_dict(self, state: dict) -> None:
        recorded = state.get("strategy")
        if recorded != "parallel":
            raise ValueError(
                f"checkpoint was written by strategy {recorded!r}, "
                f"cannot resume it with a parallel search"
            )
        inner = state.get("inner")
        if inner != self.strategy:
            raise ValueError(
                f"parallel checkpoint was written for strategy {inner!r}, "
                f"cannot resume it with {self.strategy!r}"
            )
        self._phase_index = state.get("phase", 0)
        self._completed_phases = list(state.get("completed_phases", []))
        self._shard_states = {
            int(i): s
            for i, s in (state.get("completed_shards") or {}).items()
        }
        self.shard_target = state.get("shard_target", self.shard_target)
        self._plan_state = state.get("plan")

    def _checkpoint(self, *, force: bool = False) -> None:
        if self.resilience is None:
            return
        if force:
            self.resilience.flush_checkpoint(self)
        else:
            self.resilience.maybe_checkpoint(self)

    # ------------------------------------------------------------------
    # the pool
    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        return self._ctx is None

    def _pool_start(self) -> None:
        if self.inline:
            return
        self._result_queue = self._ctx.Queue()
        self._stop_event = self._ctx.Event()
        for _ in range(self.workers):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        """Fork a worker with a private task queue.

        Each worker gets its own queue so the coordinator — not a shared
        queue — is the source of truth for which shard a worker holds
        (``entry.shard``).  A crashed worker therefore gives its shard
        back even when it died before its queue feeder thread flushed a
        single message.
        """
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.program, self.policy_factory, self.config,
                  self.shard_limits, self.cls, self.seed,
                  self.resilience_options, self.coverage is not None,
                  self.observer is not None,
                  task_queue, self._result_queue, self._stop_event,
                  self.heartbeat_interval),
            daemon=True,
        )
        proc.start()
        self._procs.append(SimpleNamespace(id=worker_id, proc=proc,
                                           queue=task_queue, shard=None,
                                           exited=False,
                                           last_seen=time.monotonic()))

    def _entry(self, worker_id: int):
        for entry in self._procs:
            if entry.id == worker_id:
                return entry
        return None

    def _retire_entry(self, entry) -> None:
        """Drop a dead/wedged worker from the pool and release its task
        queue (close + join the feeder thread — entries removed outside
        ``_pool_stop`` would otherwise leak one thread each)."""
        entry.exited = True
        if entry in self._procs:
            self._procs.remove(entry)
        try:
            entry.queue.close()
            entry.queue.join_thread()
        except Exception:  # pragma: no cover - queue already torn down
            pass

    def _schedule_respawn(self) -> None:
        """Queue a replacement worker with exponential backoff.

        The first death respawns immediately; each further death before
        the backoff resets doubles the delay up to the cap, so a workload
        that kills every worker it touches cannot fork-bomb the host.
        The backoff resets once any worker completes a shard.
        """
        self._pending_respawns.append(
            time.monotonic() + self._respawn_backoff)
        self._respawn_backoff = min(
            _RESPAWN_BACKOFF_CAP,
            self._respawn_backoff * 2 or _RESPAWN_BACKOFF_START)

    def _maybe_respawn(self) -> None:
        now = time.monotonic()
        due = [d for d in self._pending_respawns if d <= now]
        if not due:
            return
        self._pending_respawns = [d for d in self._pending_respawns
                                  if d > now]
        for _ in due:
            self._spawn_worker()

    def _pool_stop(self) -> None:
        if self.inline or self._result_queue is None:
            return
        for entry in self._procs:
            self._drain_queue(entry.queue)
            entry.queue.put(None)
        deadline = time.monotonic() + 10.0
        while (any(p.proc.is_alive() for p in self._procs)
               and time.monotonic() < deadline):
            self._consume_messages(timeout=0.1)
        for p in self._procs:
            if p.proc.is_alive():  # pragma: no cover - stuck worker
                p.proc.terminate()
                p.proc.join(timeout=1.0)
            if p.proc.is_alive():  # pragma: no cover - wedged worker
                # SIGTERM never reaches a SIGSTOPped process; SIGKILL
                # (Process.kill) takes down even a stopped one.
                p.proc.kill()
                p.proc.join(timeout=1.0)
        # Shut the queues down for real: close() lets each feeder thread
        # flush and exit, join_thread() waits for it — otherwise every
        # run leaks one QueueFeederThread per worker.
        for p in self._procs:
            p.queue.close()
            p.queue.join_thread()
        self._result_queue.close()
        self._result_queue.join_thread()

    @staticmethod
    def _drain_queue(q) -> None:
        while True:
            try:
                q.get_nowait()
            except queue_module.Empty:
                return

    # ------------------------------------------------------------------
    # global stop conditions
    # ------------------------------------------------------------------
    def _check_global_limits(self) -> None:
        if self._stop_reason is not None:
            return
        if self.resilience is not None:
            reason = self.resilience.stop_requested()
            if reason is not None:
                self._stop_reason = reason
                return
        limits = self.limits
        if (limits.max_executions is not None
                and self._streamed_executions >= limits.max_executions):
            self._stop_reason = "max-executions"
        elif (limits.max_seconds is not None
              and time.perf_counter() - self._start_time
              >= limits.max_seconds):
            self._stop_reason = "max-seconds"
        elif (limits.max_crashes is not None
              and self._crashes >= limits.max_crashes):
            self._stop_reason = "max-crashes"

    def _check_shard_result(self, result: ExplorationResult) -> None:
        """Early-stop rules a serial search applies per execution, applied
        here at shard granularity."""
        if self._stop_reason is not None:
            return
        if (self.limits.stop_on_first_violation
                and result.found_violation):
            self._stop_reason = "violation"
        elif (self.limits.stop_on_first_divergence
              and result.divergences):
            self._stop_reason = "divergence"

    # ------------------------------------------------------------------
    # streaming telemetry
    # ------------------------------------------------------------------
    def _on_streamed_execution(self, outcome_value: str, steps: int,
                               preemptions: int,
                               hit_depth_bound: bool) -> None:
        self._streamed_executions += 1
        if self.observer is not None:
            self.observer.execution_started()
            self.observer.execution_finished(SimpleNamespace(
                outcome=Outcome(outcome_value), steps=steps,
                preemptions=preemptions, hit_depth_bound=hit_depth_bound,
            ))
        self._checkpoint()
        self._check_global_limits()

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def explore(self) -> ExplorationResult:
        """Run (or resume) the sharded search; returns the merged result."""
        self._start_time = time.perf_counter()
        if self.observer is not None:
            self.observer.exploration_started(
                self.program.name, self.policy_name, self._label())
        bounds = self.bounds
        phase_results: List[ExplorationResult] = [
            exploration_from_state(s) for s in self._completed_phases]
        resume_phase = self._phase_index
        resume_plan, resume_shards = self._plan_state, self._shard_states
        self._pool_start()
        try:
            for index in range(len(phase_results), len(bounds)):
                bound = bounds[index]
                self._phase_index = index
                if index == resume_phase and resume_plan is not None:
                    plan = ShardPlan.from_state(resume_plan)
                    done = dict(resume_shards)
                    resume_plan, resume_shards = None, {}
                else:
                    plan = self._plan_phase(bound)
                    done = {}
                self._plan_state = plan.to_state()
                self._shard_states = done
                result = self._run_phase(index, bound, plan)
                phase_results.append(result)
                if self._stop_reason is None:
                    # Only a phase that ran to its natural end counts as
                    # completed; a stopped phase keeps its plan and shard
                    # states in the checkpoint so a resume re-enters it.
                    self._completed_phases.append(
                        exploration_to_state(result))
                    self._plan_state = None
                    self._shard_states = {}
                self._partial_states = {}
                if self.observer is not None and bound is not None:
                    self.observer.icb_sweep(bound, result)
                self._checkpoint(force=True)
                if self._stop_reason is not None:
                    break
        finally:
            self._pool_stop()

        merged = self._merge_run(phase_results)
        if self.observer is not None:
            if merged.interrupted and self.resilience is not None:
                self.observer.search_interrupted(
                    self.resilience.stop_signal or "request")
            self._reconcile_metrics(merged)
            self.observer.exploration_finished(merged)
        return merged

    # ------------------------------------------------------------------
    def _run_phase(self, phase: int, bound: Optional[int],
                   plan: ShardPlan) -> ExplorationResult:
        pending = [s for s in plan.shards
                   if s.index not in self._shard_states]
        # Counted probes can already decide the search (a probe found a
        # violation): honor the early-stop rules before dispatching.
        if self.cls.counts_probes:
            for record in plan.preamble:
                self._streamed_executions += 1
                if self._stop_reason is None:
                    if (self.limits.stop_on_first_violation and
                            record.outcome in (Outcome.VIOLATION,
                                               Outcome.DEADLOCK)):
                        self._stop_reason = "violation"
                    elif (self.limits.stop_on_first_divergence
                          and record.outcome is Outcome.DIVERGENCE):
                        self._stop_reason = "divergence"
        self._check_global_limits()
        quarantined: List[Shard] = []
        if self._stop_reason is None and pending:
            if self.inline:
                self._run_phase_inline(phase, bound, pending)
            else:
                quarantined = self._run_phase_pool(phase, bound, pending)
        return self._merge_phase(bound, plan, quarantined)

    def _run_phase_inline(self, phase: int, bound: Optional[int],
                          pending: List[Shard]) -> None:
        """Fallback without fork: same plan, same merge, one process."""
        for shard in pending:
            if self._stop_reason is not None:
                break
            if self.observer is not None:
                self.observer.shard_started(shard.index, 0,
                                            shard.describe())
                self.observer.spans.instant(
                    f"shard {shard.index} assigned", "assigned",
                    shard=shard.index, worker=0)
            state, signatures, extras = run_shard(
                self.program, self.policy_factory, self.config,
                self.shard_limits, self.cls, shard,
                seed=self.seed, bound=bound,
                collect_coverage=self.coverage is not None,
                on_execution=lambda r: self._on_streamed_execution(
                    r.outcome.value, r.steps, r.preemptions,
                    r.hit_depth_bound),
                stop_check=lambda: self._stop_reason,
                telemetry=self.observer is not None,
            )
            self._finish_shard(shard.index, 0, state, signatures,
                               extras=extras)

    def _run_phase_pool(self, phase: int, bound: Optional[int],
                        pending: List[Shard]) -> List[Shard]:
        by_index = {s.index: s for s in pending}
        todo = list(pending)  # dispatch order = shard order
        outstanding = {s.index for s in pending}
        attempts: Dict[int, int] = {}
        quarantined: List[Shard] = []

        def handle_crash(worker_id: int, shard_index: Optional[int], *,
                         wedged: bool = False,
                         silent: float = 0.0) -> None:
            self._crashes += 1
            index = -1 if shard_index is None else shard_index
            attempts[index] = attempts.get(index, 0) + 1
            requeued = False
            if shard_index is not None and shard_index in outstanding:
                if attempts[index] <= self.max_shard_attempts:
                    requeued = True
                    todo.append(by_index[shard_index])
                else:
                    outstanding.discard(shard_index)
                    quarantined.append(by_index[shard_index])
                    self.warnings.append(
                        f"shard {shard_index} "
                        f"({by_index[shard_index].describe()}) "
                        f"quarantined after {attempts[index]} "
                        f"worker crashes; merged results exclude it"
                    )
            if self.observer is not None:
                if wedged:
                    self.observer.worker_wedged(worker_id, index, silent,
                                                requeued)
                else:
                    self.observer.worker_crashed(worker_id, index,
                                                 requeued)
                if requeued:
                    self.observer.spans.instant(
                        f"shard {shard_index} requeued", "requeued",
                        shard=shard_index, worker=worker_id)
            self._check_global_limits()

        def dispatch() -> None:
            for entry in self._procs:
                if not todo:
                    return
                if entry.exited or entry.shard is not None:
                    continue
                shard = todo.pop(0)
                entry.shard = shard.index
                entry.queue.put((phase, bound, shard.to_state()))
                if self.observer is not None:
                    self.observer.spans.instant(
                        f"shard {shard.index} assigned", "assigned",
                        shard=shard.index, worker=entry.id)

        while outstanding and self._stop_reason is None:
            self._maybe_respawn()
            dispatch()
            self._consume_messages(
                timeout=0.1, outstanding=outstanding,
                on_error=handle_crash)
            self._check_global_limits()
            if self._stop_reason is not None:
                break
            # Look for silently dead workers every pass (heartbeat
            # traffic keeps the queue busy, so queue idleness is no
            # longer a crash signal).  Assignment is tracked at dispatch
            # time, so even a worker that died before its feeder thread
            # flushed a single message gives its shard back for requeue.
            for entry in list(self._procs):
                if entry.exited or entry.proc.is_alive():
                    continue
                self._retire_entry(entry)
                handle_crash(entry.id, entry.shard)
                if outstanding and self._stop_reason is None:
                    self._schedule_respawn()
            # Wedge detection: a SIGSTOPped or livelocked worker is
            # alive to ``is_alive()`` but heartbeat-silent.  SIGKILL is
            # deliberate — SIGTERM stays pending on a stopped process.
            if self.wedge_timeout is not None:
                now = time.monotonic()
                for entry in list(self._procs):
                    if entry.exited or not entry.proc.is_alive():
                        continue
                    silent = now - entry.last_seen
                    if silent < self.wedge_timeout:
                        continue
                    entry.proc.kill()
                    entry.proc.join(timeout=5.0)
                    self._retire_entry(entry)
                    self.warnings.append(
                        f"worker {entry.id} made no progress for "
                        f"{silent:.1f}s (wedged); killed"
                    )
                    handle_crash(entry.id, entry.shard, wedged=True,
                                 silent=silent)
                    if outstanding and self._stop_reason is None:
                        self._schedule_respawn()
            if (not any(p.proc.is_alive() for p in self._procs)
                    and not self._pending_respawns):
                if outstanding and self._stop_reason is None:
                    # The whole pool died faster than it could be
                    # replaced; surface rather than spin forever.
                    self._stop_reason = "max-crashes"

        if self._stop_reason is not None and outstanding:
            # Coordinated stop: tell the workers, then collect whatever
            # partial shard results are still in flight.  Crashes during
            # the drain are counted but nothing is requeued or
            # quarantined — the merged verdict is already decided.
            if self._stop_event is not None:
                self._stop_event.set()
            for entry in self._procs:
                self._drain_queue(entry.queue)

            def drain_crash(worker_id: int,
                            shard_index: Optional[int]) -> None:
                self._crashes += 1
                if self.observer is not None:
                    self.observer.worker_crashed(
                        worker_id,
                        -1 if shard_index is None else shard_index,
                        False)

            deadline = time.monotonic() + _DRAIN_SECONDS
            while (any(e.shard is not None and not e.exited
                       for e in self._procs)
                   and time.monotonic() < deadline):
                self._consume_messages(timeout=0.1, outstanding=outstanding,
                                       on_error=drain_crash)
                for entry in self._procs:
                    if not entry.exited and not entry.proc.is_alive():
                        entry.exited = True
                        drain_crash(entry.id, entry.shard)
                        entry.shard = None
                    elif (not entry.exited
                          and self.wedge_timeout is not None
                          and (time.monotonic() - entry.last_seen
                               > self.wedge_timeout)):
                        # A wedged worker would hold the drain open for
                        # the full deadline; kill it now.
                        entry.proc.kill()
                        entry.proc.join(timeout=5.0)
                        entry.exited = True
                        drain_crash(entry.id, entry.shard)
                        entry.shard = None
        return quarantined

    def _consume_messages(self, *, timeout: float, outstanding=None,
                          on_error=None) -> bool:
        """Handle every queued worker message; True if any arrived."""
        if self._result_queue is None:
            return False
        progressed = False
        block = timeout
        while True:
            try:
                message = self._result_queue.get(timeout=block)
            except queue_module.Empty:
                return progressed
            progressed = True
            block = 0.0  # drain without further blocking
            kind = message[0]
            # Any message proves its worker is making progress (every
            # message kind carries the worker id in slot 1).
            if len(message) > 1:
                entry = self._entry(message[1])
                if entry is not None:
                    entry.last_seen = time.monotonic()
            if kind == "heartbeat":
                continue
            if kind == "start":
                _, worker_id, _, shard_index = message
                if self.observer is not None:
                    self.observer.shard_started(
                        shard_index, worker_id, "")
            elif kind == "execution":
                (_, _, _, _, outcome_value, steps, preemptions,
                 hit_depth_bound) = message
                self._on_streamed_execution(outcome_value, steps,
                                            preemptions, hit_depth_bound)
            elif kind == "done":
                (_, worker_id, _, shard_index, state, signatures,
                 extras) = message
                entry = self._entry(worker_id)
                if entry is not None and entry.shard == shard_index:
                    entry.shard = None
                # A completed shard proves the pool is healthy again:
                # reset the respawn backoff.
                self._respawn_backoff = 0.0
                if outstanding is not None:
                    outstanding.discard(shard_index)
                self._finish_shard(worker_id=worker_id,
                                   shard_index=shard_index, state=state,
                                   signatures=signatures, extras=extras)
            elif kind == "error":
                _, worker_id, _, shard_index, text = message
                entry = self._entry(worker_id)
                if entry is not None and entry.shard == shard_index:
                    entry.shard = None
                self.warnings.append(
                    f"worker {worker_id} failed on shard {shard_index}: "
                    f"{text.strip().splitlines()[-1]}"
                )
                if on_error is not None:
                    on_error(worker_id, shard_index)
            elif kind == "exit":
                _, worker_id = message
                entry = self._entry(worker_id)
                if entry is not None:
                    entry.exited = True

    def _finish_shard(self, shard_index: int, worker_id: int, state: dict,
                      signatures, extras: Optional[dict] = None) -> None:
        self._signatures.update(signatures)
        if extras and self.observer is not None:
            # Fold the worker-local telemetry into the merged view: phase
            # timings aggregate (satellite of docs/parallel.md: --stats
            # under --workers N reports the pool's full engine time) and
            # spans land on the worker's own timeline lane.
            timers_state = extras.get("phase_timers")
            if timers_state:
                self.observer.timers.merge_state(timers_state)
            span_states = extras.get("spans")
            if span_states:
                lane = "inline" if self.inline else f"worker-{worker_id}"
                self.observer.spans.extend_from_state(
                    span_states, pid=worker_id + 1, lane_name=lane)
        if self.observer is not None:
            self.observer.spans.instant(
                f"shard {shard_index} merged", "merged",
                shard=shard_index, worker=worker_id)
        result = exploration_from_state(state)
        # Coordinated stops are not operator interrupts: the shard's
        # local "interrupted" must not leak into the merged verdict.
        # Such a shard was cut short, so it counts toward *this* run's
        # totals only — a resume re-runs it in full.
        if state.get("stop_reason") == "interrupted":
            state["stop_reason"] = None
            self._partial_states[shard_index] = state
        else:
            self._shard_states[shard_index] = state
        if self.observer is not None:
            self.observer.shard_finished(
                shard_index, worker_id, result.executions,
                result.transitions, result.found_violation)
        self._check_shard_result(result)
        self._checkpoint(force=True)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def _merge_phase(self, bound: Optional[int], plan: ShardPlan,
                     quarantined: List[Shard]) -> ExplorationResult:
        merged = ExplorationResult(
            program_name=self.program.name,
            policy_name=self.policy_name,
            strategy_name=self._label(bound),
        )
        keep = self.limits.keep_records
        if self.cls.counts_probes:
            # Stateless BFS counts one execution per tree node; the
            # planner's interior probes are exactly the nodes above the
            # shard cut, so they belong in the totals.
            for record in plan.preamble:
                merged.add(record, keep)
        all_complete = True
        for shard in plan.shards:
            state = self._shard_states.get(shard.index)
            if state is None:
                state = self._partial_states.get(shard.index)
            if state is None:
                all_complete = False
                continue
            result = exploration_from_state(state)
            merged.absorb(result, keep)
            all_complete = all_complete and result.complete
        merged.complete = (all_complete and not quarantined
                           and self._stop_reason is None
                           and self.cls.exhaustive)
        self._stamp_stop(merged, bool(quarantined))
        merged.wall_seconds = time.perf_counter() - self._start_time
        if self.coverage is not None:
            for signature in self._signatures:
                self.coverage.record(signature)
            merged.states_covered = self.coverage.count
        self._regenerate_traces(merged)
        return merged

    def _merge_run(self,
                   phase_results: List[ExplorationResult]
                   ) -> ExplorationResult:
        if self.bounds == [None]:
            return phase_results[0]
        merged = merge_sweeps(self.program.name, self.policy_name,
                              phase_results)
        merged.wall_seconds = time.perf_counter() - self._start_time
        self._stamp_stop(merged, any(result.stop_reason == "max-crashes"
                                     for result in phase_results))
        return merged

    def _stamp_stop(self, merged: ExplorationResult,
                    quarantined: bool) -> None:
        """The run's own stop, else a crash stop when a quarantined
        shard's subtree went unsearched: never a PASS, though the
        healthy shards finished."""
        merged.stop_reason = self._stop_reason or (
            "max-crashes" if quarantined else None)
        merged.limit_hit = merged.stop_reason in (
            "max-executions", "max-seconds", "max-crashes")

    def _regenerate_traces(self, merged: ExplorationResult) -> None:
        """Shard results travel trace-less (schedules replay
        deterministically); rebuild the traces of the records
        ``CheckResult.report`` prints."""
        for records in (merged.violations, merged.deadlocks,
                        merged.divergences, merged.crashes):
            if not records or records[0].trace:
                continue
            record = records[0]
            try:
                replayed = self._replay(record.schedule,
                                        record.preemption_bound, 100_000)
            except Exception:  # pragma: no cover - replay divergence
                continue
            if replayed.outcome is record.outcome:
                records[0] = replayed

    # ------------------------------------------------------------------
    def _reconcile_metrics(self, merged: ExplorationResult) -> None:
        """Pin the streamed counters to the merged totals (crash-retry
        re-streams and drained messages would otherwise drift them)."""
        m = self.observer.metrics
        targets = {
            "executions": merged.executions,
            "transitions": merged.transitions,
            "violations": merged.outcomes.get(Outcome.VIOLATION, 0),
            "deadlocks": merged.outcomes.get(Outcome.DEADLOCK, 0),
            "crashes": merged.outcomes.get(Outcome.CRASHED, 0),
            "divergences": merged.outcomes.get(Outcome.DIVERGENCE, 0),
        }
        for name, value in targets.items():
            if value == 0 and not m.has_counter(name):
                # A serial run only creates counters it touches; keep
                # the exported metrics namespace identical.
                continue
            counter = m.counter(name)
            counter.inc(value - counter.value)
