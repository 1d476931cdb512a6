"""The worker side of parallel exploration.

A worker owns one shard at a time: it rebuilds the strategy confined to
the shard (prefix subtree or walk-index range), explores it with the full
resilience armor (watchdog budgets, crash capture, quarantine), and
streams compact per-execution telemetry plus one final serialized
:class:`~repro.engine.results.ExplorationResult` back to the coordinator.

Everything here is usable in two modes:

* :func:`run_shard` — in-process, used by the coordinator's inline
  fallback (platforms without ``fork``) and by unit tests;
* :func:`worker_main` — the target of a forked worker process, pulling
  shard descriptions off the task queue until it sees the ``None``
  sentinel or the coordinator's stop event.

Workers ignore SIGINT/SIGTERM: operator signals are the *coordinator's*
to handle (it converts them into the shared stop event so every worker
winds down gracefully and a final merged checkpoint can be flushed).
"""

from __future__ import annotations

import dataclasses
import queue as queue_module
import signal
import threading
import traceback
from typing import Callable, List, Optional, Tuple, Type

from repro.chaos.faults import fault_at
from repro.engine.coverage import CoverageTracker
from repro.engine.strategies import ExplorationLimits, SearchStrategy
from repro.parallel.shard import Shard
from repro.resilience import ResilienceController, ResilienceOptions
from repro.resilience.checkpoint import exploration_to_state
from repro.resilience.quarantine import CrashQuarantine


def run_shard(
    program,
    policy_factory,
    config,
    limits: ExplorationLimits,
    strategy: Type[SearchStrategy],
    shard: Shard,
    *,
    seed: int = 0,
    bound: Optional[int] = None,
    collect_coverage: bool = False,
    on_execution: Optional[Callable] = None,
    stop_check: Optional[Callable[[], Optional[str]]] = None,
    controller: Optional[ResilienceController] = None,
    telemetry: bool = False,
) -> Tuple[dict, List[object], Optional[dict]]:
    """Explore one shard of a ``strategy`` search (an entry of
    :data:`~repro.engine.strategies.STRATEGIES`); returns
    ``(exploration_state, signatures, extras)``.

    ``bound`` is the preemption bound of the current phase (an ICB
    sweep; None for the other strategies); the shard itself carries the
    prefix or range.

    ``on_execution(record)`` streams per-execution telemetry;
    ``stop_check()`` returning a reason requests a graceful stop at the
    next iteration boundary (the coordinator's stop event, or the inline
    mode's global limit bookkeeping).

    ``telemetry`` enables a shard-local :class:`repro.obs.Observer`:
    ``extras`` then carries the shard's phase-timer totals and wall-clock
    spans (serialized) for the coordinator to merge; otherwise ``extras``
    is None and the exploration hot path stays telemetry-free.
    """
    coverage = CoverageTracker() if collect_coverage else None
    if controller is None and stop_check is not None:
        controller = ResilienceController(
            ResilienceOptions(handle_signals=False), program=program)

    def listener(record):
        if on_execution is not None:
            on_execution(record)
        if stop_check is not None:
            reason = stop_check()
            if reason is not None:
                controller.request_stop(reason)

    observer = None
    if telemetry:
        from repro.obs import Observer

        observer = Observer()

    search = strategy.create(
        program, policy_factory, config, limits, shard=shard, bound=bound,
        seed=seed, coverage=coverage, listener=listener,
        resilience=controller, observer=observer,
    )
    extras: Optional[dict] = None
    if observer is not None:
        with observer.spans.measure(
                f"shard {shard.index} executing", "executing",
                shard=shard.index, detail=shard.describe(),
                strategy=strategy.name):
            result = search.explore()
        extras = {
            "phase_timers": observer.timers.to_dict(),
            "spans": observer.spans.to_state(),
        }
    else:
        result = search.explore()
    signatures = sorted(coverage.signatures(), key=repr) if coverage else []
    return exploration_to_state(result), signatures, extras


def _start_heartbeat(worker_id: int, result_queue,
                     interval: float) -> threading.Event:
    """Liveness beacon: a daemon thread that puts ``("heartbeat", id)``
    on the result queue every ``interval`` seconds.

    The coordinator treats prolonged silence as a *wedged* worker
    (SIGSTOP, livelocked user code) — ``proc.is_alive()`` cannot tell a
    stopped process from a busy one, the heartbeat can.  The chaos
    ``clock-stall`` fault kills just this thread, simulating a worker
    whose work continues but whose liveness signal died.
    """
    cancel = threading.Event()

    def beat() -> None:
        while not cancel.wait(interval):
            rule = fault_at("worker.heartbeat", worker=worker_id)
            if rule is not None and rule.kind == "clock-stall":
                return
            try:
                result_queue.put(("heartbeat", worker_id))
            except Exception:  # queue torn down: the worker is exiting
                return

    thread = threading.Thread(target=beat, daemon=True,
                              name=f"repro-heartbeat-{worker_id}")
    thread.start()
    return cancel


def worker_main(
    worker_id: int,
    program,
    policy_factory,
    config,
    limits: ExplorationLimits,
    strategy: Type[SearchStrategy],
    seed: int,
    resilience_options: Optional[ResilienceOptions],
    collect_coverage: bool,
    telemetry: bool,
    task_queue,
    result_queue,
    stop_event,
    heartbeat_interval: float = 0.5,
) -> None:
    """Entry point of one forked worker process."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    heartbeat_cancel = None
    if heartbeat_interval and heartbeat_interval > 0:
        heartbeat_cancel = _start_heartbeat(worker_id, result_queue,
                                            heartbeat_interval)
    options = resilience_options or ResilienceOptions()
    options = dataclasses.replace(options, checkpoint_path=None,
                                  handle_signals=False)
    controller = ResilienceController(
        options, program=program,
        policy_name=getattr(policy_factory(), "name", ""), config=config,
        strategy=strategy.name)
    # Per-worker quarantine filenames so two workers crashing at once
    # never race for the same crash-NNNN.json slot.
    controller.quarantine = CrashQuarantine(
        options.quarantine_dir, prefix=f"crash-w{worker_id}")
    try:
        while True:
            if stop_event.is_set():
                break
            try:
                item = task_queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            if item is None:
                break
            phase, bound, shard_state = item
            shard = Shard.from_state(shard_state)
            result_queue.put(("start", worker_id, phase, shard.index))

            def on_execution(record, phase=phase, index=shard.index):
                # Chaos fault point: a worker-kill rule SIGKILLs, a
                # worker-stall rule SIGSTOPs this process right here,
                # mid-shard — the coordinator must recover either way.
                fault_at("worker.execution", worker=worker_id,
                         shard=index)
                result_queue.put((
                    "execution", worker_id, phase, index,
                    record.outcome.value, record.steps, record.preemptions,
                    record.hit_depth_bound,
                ))

            try:
                state, signatures, extras = run_shard(
                    program, policy_factory, config, limits, strategy,
                    shard, seed=seed, bound=bound,
                    collect_coverage=collect_coverage,
                    on_execution=on_execution,
                    stop_check=(lambda: "coordinator"
                                if stop_event.is_set() else None),
                    controller=controller,
                    telemetry=telemetry,
                )
                result_queue.put(("done", worker_id, phase, shard.index,
                                  state, signatures, extras))
            except Exception:
                result_queue.put(("error", worker_id, phase, shard.index,
                                  traceback.format_exc()))
    finally:
        if heartbeat_cancel is not None:
            heartbeat_cancel.set()
        result_queue.put(("exit", worker_id))
