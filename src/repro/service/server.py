"""The checking service: a worker fleet multiplexed fairly across jobs.

One :class:`CheckServer` owns a data directory (durable job state), a
:class:`~repro.service.scheduler.JobScheduler` (inter-job DWRR
fairness), and a fleet of worker threads.  A job runs as a sequence of
*quanta*: each quantum resumes the job's search from its strategy
checkpoint, runs at most ``quantum_executions`` more executions through
the ordinary :class:`~repro.checker.Checker` (which may itself fan out
over the parallel pool when the job config asks for ``workers``), and
flushes a fresh checkpoint.  Because checkpoint/resume reproduces the
uninterrupted search exactly (docs/resilience.md), the final quantum's
result is bit-identical to a direct ``Checker.run()`` with the same
config and seed — slicing buys fairness without changing verdicts.

Durability: every state transition is written to ``job.json`` before it
becomes observable, and the checkpoint is flushed by the strategy loop
before the quantum returns.  Killing the server at any point therefore
loses at most the in-flight quantum, which the next server replays
deterministically from the durable frontier.

Crashing jobs quarantine through the existing
:class:`~repro.resilience.CrashQuarantine`; their replayable crash
schedules land in the job's ``quarantine/`` directory and the first
counterexample of any kind is also saved as ``repro.json`` next to the
verdict.
"""

from __future__ import annotations

import ast
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.checker import Checker
from repro.core.model import Program
from repro.engine.persistence import save_schedule
from repro.obs import JsonlTraceWriter, MetricsRegistry, Observer
from repro.obs.events import (
    CheckpointWritten,
    CrashQuarantined,
    DivergenceClassified,
    Event,
    EventSink,
    ExecutionAborted,
    ExecutionFinished,
    ExecutionStarted,
    ExplorationFinished,
    ExplorationStarted,
    IcbSweep,
    JobQuantumFinished,
    JobStateChanged,
    JobSubmitted,
    SearchInterrupted,
    ShardFinished,
    ShardStarted,
    ThreadLeaked,
    ViolationFound,
)
from repro.resilience.signals import GracefulStop
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobState,
    new_job_id,
)
from repro.service.scheduler import JobScheduler
from repro.service.store import JobStore

#: Default executions per scheduler quantum.
DEFAULT_QUANTUM = 50

#: Engine events forwarded into a job's ``events.jsonl`` per stream mode.
_LIFECYCLE_EVENTS = (
    ExplorationStarted, ExplorationFinished, ViolationFound,
    DivergenceClassified, CrashQuarantined, CheckpointWritten,
    ExecutionAborted, SearchInterrupted, IcbSweep, ShardStarted,
    ShardFinished, ThreadLeaked,
)
_EXECUTION_EVENTS = _LIFECYCLE_EVENTS + (ExecutionStarted,
                                         ExecutionFinished)


class RateLimitedError(Exception):
    """The client exceeded its submission rate; retry later."""


class JobSetupError(Exception):
    """The job spec cannot be turned into a runnable checker."""


def build_program(spec: str, factory_args) -> Program:
    """Resolve ``package.module:factory`` and build the program.

    The service-side twin of the CLI's program resolution, raising
    :class:`JobSetupError` (a FAILED job) instead of ``SystemExit``.
    """
    if ":" not in spec:
        raise JobSetupError(
            f"program spec must look like 'package.module:factory', "
            f"got {spec!r}"
        )
    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise JobSetupError(f"cannot import {module_name!r}: {exc}") from exc
    factory = getattr(module, attr, None)
    if factory is None:
        raise JobSetupError(f"{module_name!r} has no attribute {attr!r}")
    if not callable(factory):
        raise JobSetupError(f"{spec} is not callable")
    args = []
    for raw in factory_args:
        if isinstance(raw, str):
            try:
                args.append(ast.literal_eval(raw))
                continue
            except (ValueError, SyntaxError):
                pass
        args.append(raw)
    try:
        result = factory(*args)
    except Exception as exc:
        raise JobSetupError(f"factory {spec} raised: {exc!r}") from exc
    if not isinstance(result, Program):
        raise JobSetupError(
            f"{spec} returned {type(result).__name__}, expected a Program"
        )
    return result


class _FilteredJobSink(EventSink):
    """Forwards an allowlist of engine events to the job's JSONL tail."""

    def __init__(self, writer: JsonlTraceWriter, allowed) -> None:
        self._writer = writer
        self._allowed = allowed

    def emit(self, event: Event) -> None:
        if self._allowed is None or isinstance(event, self._allowed):
            self._writer.emit(event)

    def close(self) -> None:
        self._writer.close()


class CheckServer:
    """Checking-as-a-service over one durable data directory."""

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        fleet: int = 2,
        quantum_executions: int = DEFAULT_QUANTUM,
        weights: Optional[Dict[str, int]] = None,
        max_active_per_client: Optional[int] = None,
        submit_rate: Optional[float] = None,
        submit_burst: Optional[float] = None,
        retention_seconds: Optional[float] = None,
        poll_interval: float = 0.1,
        observer: Optional[Observer] = None,
    ) -> None:
        if fleet < 1:
            raise ValueError("fleet must be positive")
        if quantum_executions < 1:
            raise ValueError("quantum_executions must be positive")
        self.store = JobStore(data_dir)
        # Fail at boot, not at first save: a server on an unwritable
        # jobs directory would otherwise idle forever while silently
        # losing every submission.  Raises OSError for the CLI to turn
        # into a nonzero exit (docs/service.md).
        self.store.verify_writable()
        self.fleet = fleet
        self.quantum_executions = quantum_executions
        self.retention_seconds = retention_seconds
        self.poll_interval = poll_interval
        self.observer = observer
        self.metrics: MetricsRegistry = (
            observer.metrics if observer is not None else MetricsRegistry())
        self.scheduler = JobScheduler(
            weights=weights,
            max_active_per_client=max_active_per_client,
            submit_rate=submit_rate,
            submit_burst=submit_burst,
            metrics=self.metrics,
        )
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        #: In-memory authority for active records (durably mirrored).
        self._records: Dict[str, JobRecord] = {}
        #: job id -> GracefulStop of the quantum in flight.
        self._running: Dict[str, GracefulStop] = {}
        self._threads: List[threading.Thread] = []
        self._shutdown = threading.Event()
        self._started = False
        self._recover()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Re-queue every non-terminal job left by a previous server."""
        for record in self.store.recover():
            self._records[record.id] = record
            if record.cancel_requested:
                # The old server died between the cancel request and its
                # finalization; complete the cancel instead of resuming.
                with self._lock:
                    self.scheduler.submit(record.id, record.spec.priority,
                                          record.spec.client)
                    self._finalize_locked(record, JobState.CANCELLED,
                                          error="cancelled by client")
                continue
            self.scheduler.submit(record.id, record.spec.priority,
                                  record.spec.client)
            self.metrics.counter("jobs.recovered").inc()

    # ------------------------------------------------------------------
    # client surface (also used by the transports)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec,
               job_id: Optional[str] = None) -> JobRecord:
        """Validate, persist, and enqueue one job; returns its record."""
        spec.validate()
        if not self.scheduler.try_admit_rate(spec.client):
            self.metrics.counter("jobs.rate_limited").inc()
            raise RateLimitedError(
                f"client {spec.client!r} exceeded the submission rate")
        record = JobRecord(id=job_id or new_job_id(), spec=spec)
        with self._lock:
            self.store.create(record)
            self._records[record.id] = record
            self.scheduler.submit(record.id, spec.priority, spec.client)
            self.metrics.counter("jobs.submitted").inc()
            self.metrics.counter(f"jobs.submitted.{spec.priority}").inc()
        self._emit_job_event(record.id, JobSubmitted(
            job=record.id, program=spec.program, priority=spec.priority,
            client=spec.client))
        return record

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
            if record is not None:
                return record
        return self.store.load(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            active = dict(self._records)
        listed = []
        for record in self.store.jobs():
            listed.append(active.get(record.id, record))
        return listed

    def result(self, job_id: str) -> Optional[dict]:
        return self.store.load_result(job_id)

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; takes effect at the next execution
        boundary of the running quantum (immediately for queued jobs)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                record = self.store.load(job_id)
            if record.state.terminal:
                return record
            record.cancel_requested = True
            stop = self._running.get(job_id)
            if stop is not None:
                stop.request("cancelled")
                self.store.save(record)
            else:
                # Queued (or between quanta): cancel without a worker.
                self._finalize_locked(record, JobState.CANCELLED,
                                      error="cancelled by client")
        return record

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker fleet and the transport poll thread."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for index in range(self.fleet):
            thread = threading.Thread(
                target=self._worker_loop, name=f"check-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)
        poll = threading.Thread(target=self._poll_loop,
                                name="check-poll", daemon=True)
        poll.start()
        self._threads.append(poll)

    def stop(self, *, timeout: float = 30.0) -> None:
        """Graceful shutdown: running quanta checkpoint and requeue."""
        self._shutdown.set()
        with self._lock:
            for stop in self._running.values():
                stop.request("shutdown")
        self.scheduler.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._dump_metrics()

    def active_jobs(self) -> int:
        with self._lock:
            return sum(1 for r in self._records.values()
                       if not r.state.terminal)

    def run_until_idle(self, *, timeout: Optional[float] = None) -> None:
        """Start (if needed) and block until every job is terminal."""
        self.start()
        with self._idle:
            if not self._idle.wait_for(
                    lambda: all(r.state.terminal
                                for r in self._records.values()),
                    timeout=timeout):
                raise TimeoutError(
                    f"jobs still active after {timeout}s: "
                    f"{[r.id for r in self._records.values() if not r.state.terminal]}")

    def wait(self, job_id: str, *,
             timeout: Optional[float] = None) -> JobRecord:
        """Block until one job is terminal; returns its final record."""
        with self._idle:
            if not self._idle.wait_for(
                    lambda: self._records.get(job_id) is None
                    or self._records[job_id].state.terminal,
                    timeout=timeout):
                raise TimeoutError(f"job {job_id} still active")
        return self.job(job_id)

    def serve_forever(self, *,
                      idle_exit_seconds: Optional[float] = None) -> None:
        """Run until :meth:`stop`, SIGINT/SIGTERM, or a long idle."""
        self.start()
        last_active = time.monotonic()
        with GracefulStop() as stop:
            while not (stop.requested or self._shutdown.is_set()):
                if self.active_jobs() > 0:
                    last_active = time.monotonic()
                elif (idle_exit_seconds is not None
                        and time.monotonic() - last_active
                        >= idle_exit_seconds):
                    break
                time.sleep(self.poll_interval)
        if not self._shutdown.is_set():
            self.stop()

    # ------------------------------------------------------------------
    # background loops
    # ------------------------------------------------------------------
    def _poll_loop(self) -> None:
        """Inbox/cancel transport polling plus periodic housekeeping."""
        last_dump = 0.0
        while not self._shutdown.is_set():
            try:
                for payload in self.store.take_submissions():
                    self._admit_inbox(payload)
                for job_id in self.store.take_cancels():
                    try:
                        self.cancel(job_id)
                    except KeyError:
                        pass  # cancel for a job we never saw
                if self.retention_seconds is not None:
                    self.store.sweep_terminal_jobs(self.retention_seconds)
                now = time.monotonic()
                if now - last_dump >= 2.0:
                    self._dump_metrics()
                    last_dump = now
            except Exception:  # pragma: no cover - housekeeping armor
                pass
            self._shutdown.wait(self.poll_interval)

    def _admit_inbox(self, payload: dict) -> None:
        spec = JobSpec.from_dict(payload.get("spec", {}))
        job_id = payload.get("id") or new_job_id()
        try:
            self.submit(spec, job_id=job_id)
        except RateLimitedError as exc:
            self._record_rejection(job_id, spec, str(exc))
        except (ValueError, KeyError) as exc:
            self._record_rejection(job_id, spec, f"invalid job: {exc}")

    def _record_rejection(self, job_id: str, spec: JobSpec,
                          error: str) -> None:
        """A filesystem submission the server refused still needs a
        durable FAILED record — the client polls for it."""
        try:
            record = JobRecord(id=job_id, spec=spec)
        except ValueError:
            return  # unusable id; nothing to persist under
        record.transition(JobState.FAILED)
        record.error = error
        with self._lock:
            try:
                self.store.create(record)
            except ValueError:
                return  # duplicate id; first record wins
            self.metrics.counter("jobs.failed").inc()
        self._emit_job_event(job_id, JobStateChanged(
            job=job_id, state=record.state.value, verdict=None,
            error=error))

    def _worker_loop(self) -> None:
        while not self._shutdown.is_set():
            job_id = self.scheduler.next_job(timeout=0.2)
            if job_id is None:
                continue
            try:
                self._run_quantum(job_id)
            except Exception as exc:  # defensive: a job bug must not
                self._fail_job(job_id, f"service worker error: {exc!r}")

    # ------------------------------------------------------------------
    # the quantum
    # ------------------------------------------------------------------
    def _run_quantum(self, job_id: str) -> None:
        with self._lock:
            record = self._records[job_id]
            if record.state.terminal:
                self.scheduler.finish(job_id)
                return
            if record.cancel_requested:
                self._finalize_locked(record, JobState.CANCELLED,
                                      error="cancelled by client")
                return
            if record.state is JobState.QUEUED:
                record.transition(JobState.RUNNING)
                self._emit_job_event(job_id, JobStateChanged(
                    job=job_id, state=record.state.value, verdict=None,
                    error=None))
            stop = GracefulStop(install=False)
            self._running[job_id] = stop
            self.store.save(record)
            spec = record.spec

        checker = None
        observer = None
        try:
            program = build_program(spec.program, spec.factory_args)
            config = dict(spec.config)
            user_max = config.pop("max_executions", None)
            cap = record.executions + self.quantum_executions
            if user_max is not None:
                cap = min(cap, int(user_max))
            observer = self._job_observer(job_id, spec)
            checkpoint = self.store.checkpoint_path(job_id)
            checker = Checker(
                program,
                **config,
                max_executions=cap,
                checkpoint_path=str(checkpoint),
                checkpoint_interval=self.quantum_executions,
                quarantine_dir=str(self.store.quarantine_dir(job_id)),
                handle_signals=False,
                observer=observer,
                external_stop=stop,
            )
            # Resume whenever *any* snapshot is loadable — a corrupt
            # primary falls back to its .prev rotation sibling inside
            # Checker (checkpoint.recovered event + warning).
            from repro.resilience import CheckpointStore

            resume_from = (str(checkpoint)
                           if CheckpointStore(checkpoint).recoverable()
                           else None)
            result = checker.run(resume_from=resume_from)
        except JobSetupError as exc:
            self._fail_job(job_id, str(exc))
            return
        except (TypeError, ValueError) as exc:
            self._fail_job(job_id, f"invalid checker config: {exc}")
            return
        finally:
            if observer is not None:
                observer.close()

        self._fold_quantum(
            job_id, checker, result,
            user_max=None if user_max is None else int(user_max))

    def _job_observer(self, job_id: str, spec: JobSpec) -> Observer:
        """Per-quantum observer streaming to the job's ``events.jsonl``."""
        handle = open(self.store.events_path(job_id), "a",
                      encoding="utf-8")
        writer = JsonlTraceWriter(handle)
        writer._owns_handle = True  # close() must release the append fd
        allowed = {
            "lifecycle": _LIFECYCLE_EVENTS,
            "executions": _EXECUTION_EVENTS,
            "decisions": None,  # everything
        }[spec.stream]
        return Observer(sink=_FilteredJobSink(writer, allowed))

    def _fold_quantum(self, job_id: str, checker: Checker, result,
                      *, user_max: Optional[int]) -> None:
        exploration = result.exploration
        with self._lock:
            record = self._records[job_id]
            self._running.pop(job_id, None)
            record.quanta += 1
            record.executions = exploration.executions
            record.transitions = exploration.transitions
            reason = exploration.stop_reason
            quantum_only_limit = (
                reason == "max-executions"
                and (user_max is None
                     or exploration.executions < user_max))
            if record.cancel_requested:
                self._write_result(job_id, checker, result,
                                   verdict=None, error="cancelled")
                self._finalize_locked(record, JobState.CANCELLED,
                                      error="cancelled by client")
                return
            if reason == "interrupted":
                # Server shutdown mid-quantum: stay RUNNING durably; the
                # next server resumes from the flushed checkpoint.
                self.store.save(record)
                if not self._shutdown.is_set():  # pragma: no cover
                    self.scheduler.requeue(job_id)
                return
            if quantum_only_limit:
                self.store.save(record)
                self.metrics.counter("jobs.requeued").inc()
                self._emit_job_event(job_id, JobQuantumFinished(
                    job=job_id, quantum=record.quanta,
                    executions=record.executions,
                    transitions=record.transitions, requeued=True))
                self.scheduler.requeue(job_id)
                return
            # Terminal: exhausted, found what it was looking for, or hit
            # a job-level (user) limit.
            verdict = "pass" if result.ok else "fail"
            self._write_result(job_id, checker, result, verdict=verdict,
                               error=None)
            self._emit_job_event(job_id, JobQuantumFinished(
                job=job_id, quantum=record.quanta,
                executions=record.executions,
                transitions=record.transitions, requeued=False))
            record.verdict = verdict
            self._finalize_locked(record, JobState.DONE)

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def _fail_job(self, job_id: str, error: str) -> None:
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.state.terminal:
                return
            self._running.pop(job_id, None)
            try:
                self.store.save_result(job_id, {
                    "job": job_id, "verdict": None, "ok": False,
                    "error": error,
                })
            except OSError:
                # ENOSPC/EIO while recording a failure: the in-memory
                # record must still reach FAILED (and wake waiters), or
                # the disk error wedges the worker loop on this job.
                pass
            self._finalize_locked(record, JobState.FAILED, error=error)

    def _finalize_locked(self, record: JobRecord, state: JobState,
                         *, error: Optional[str] = None) -> None:
        record.transition(state)
        if error is not None:
            record.error = error
        try:
            self.store.save(record)
            self.store.cleanup_job(record.id)
        except OSError:
            # Degrade, never die: the record is terminal in memory and
            # the next boot's recovery re-finishes anything the disk
            # refused to acknowledge here.
            pass
        self.scheduler.finish(record.id)
        self.metrics.counter(f"jobs.{state.value}").inc()
        self._emit_job_event(record.id, JobStateChanged(
            job=record.id, state=state.value, verdict=record.verdict,
            error=record.error))
        self._idle.notify_all()

    def _write_result(self, job_id: str, checker: Checker, result,
                      *, verdict: Optional[str],
                      error: Optional[str]) -> None:
        exploration = result.exploration
        payload = {
            "job": job_id,
            "program": exploration.program_name,
            "policy": exploration.policy_name,
            "strategy": exploration.strategy_name,
            "verdict": verdict,
            "ok": result.ok,
            "error": error,
            "executions": exploration.executions,
            "transitions": exploration.transitions,
            "complete": exploration.complete,
            "stop_reason": exploration.stop_reason,
            "first_violation_execution":
                exploration.first_violation_execution,
            "outcomes": {outcome.value: count for outcome, count
                         in exploration.outcomes.items()},
            "warnings": list(result.warnings),
            "report": result.report(),
        }
        counterexample = result.violation or result.crashed or result.divergence
        if counterexample is not None:
            payload["counterexample_schedule"] = counterexample.schedule
            try:
                path = save_schedule(
                    self.store.repro_path(job_id), checker.program,
                    counterexample,
                    policy_name=checker.policy_factory().name,
                    config=checker.config, strategy=checker.strategy)
                payload["repro_file"] = str(path)
            except Exception:  # pragma: no cover - artifact best-effort
                pass
        self.store.save_result(job_id, payload)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _emit_job_event(self, job_id: str, event: Event) -> None:
        """Append one service event to the job's JSONL tail (and the
        server observer's sink, when one is attached)."""
        try:
            with open(self.store.events_path(job_id), "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(event.to_dict(), default=str))
                handle.write("\n")
        except OSError:  # pragma: no cover - tail is best-effort
            pass
        if self.observer is not None and self.observer.sink is not None:
            self.observer.sink.emit(event)

    def _dump_metrics(self) -> None:
        try:
            self.metrics.dump_json(str(self.store.root / "metrics.json"))
        except OSError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness/fairness summary (the ``/healthz`` payload)."""
        counters = self.metrics.to_dict()["counters"]
        return {
            "active_jobs": self.active_jobs(),
            "queues": self.scheduler.queue_lengths(),
            "fleet": self.fleet,
            "quantum_executions": self.quantum_executions,
            "starvation": counters.get("scheduler.starvation", 0),
            "quanta": counters.get("scheduler.quanta", 0),
        }
