"""The resilience controller: one object the strategy loop talks to.

Bundles the three armor layers — checkpointing, crash quarantine, and the
graceful-stop flag — behind the narrow surface
:class:`~repro.engine.strategies.base.SearchStrategy` calls:
``stop_requested()`` at each iteration boundary, ``maybe_checkpoint()``
on a cadence, ``flush_checkpoint()`` when the search stops, and
``quarantine_crash()`` for each crashed record.  Everything is optional:
a checker without resilience options passes ``resilience=None`` and the
loop pays one ``is None`` branch per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.quarantine import CrashQuarantine
from repro.resilience.signals import GracefulStop


@dataclass
class ResilienceOptions:
    """User-facing knobs; all off by default."""

    #: Write periodic checkpoints here (``--checkpoint``).
    checkpoint_path: Optional[Union[str, Path]] = None
    #: Executions between periodic snapshots (``--checkpoint-interval``).
    checkpoint_interval: int = 200
    #: Per-execution wall-clock budget in seconds (``--execution-budget``).
    execution_budget_seconds: Optional[float] = None
    #: Stop after this many quarantined crashes (``--max-crashes``);
    #: None disables crash capture entirely (a crash raises, as before).
    max_crashes: Optional[int] = None
    #: Where quarantined crash schedules are written
    #: (``--quarantine-dir``); None keeps them in the result only.
    quarantine_dir: Optional[Union[str, Path]] = None
    #: Install SIGINT/SIGTERM handlers for the duration of ``run()``.
    handle_signals: bool = True

    @property
    def enabled(self) -> bool:
        return (self.checkpoint_path is not None
                or self.execution_budget_seconds is not None
                or self.max_crashes is not None
                or self.quarantine_dir is not None)

    @property
    def capture_crashes(self) -> bool:
        return self.max_crashes is not None or self.quarantine_dir is not None


class ResilienceController:
    """Runtime side of :class:`ResilienceOptions` for one search."""

    def __init__(self, options: ResilienceOptions, *, program=None,
                 policy_name: str = "", config=None, observer=None,
                 strategy: Optional[str] = None) -> None:
        self.options = options
        self.program = program
        self.policy_name = policy_name
        self.config = config
        #: Name of the search strategy, recorded in quarantined repro
        #: files so they replay through it.
        self.strategy = strategy
        self.observer = observer
        self.store = (CheckpointStore(options.checkpoint_path)
                      if options.checkpoint_path is not None else None)
        self.quarantine = CrashQuarantine(options.quarantine_dir)
        self._stop: Optional[GracefulStop] = None
        self._since_checkpoint = 0
        self.checkpoints_written = 0
        self.checkpoint_write_failures = 0
        self.last_checkpoint_error: Optional[str] = None

    # ------------------------------------------------------------------
    # graceful stop
    # ------------------------------------------------------------------
    def attach_stop(self, stop: GracefulStop) -> None:
        self._stop = stop

    def request_stop(self, reason: str = "request") -> None:
        if self._stop is None:
            self._stop = GracefulStop(install=False)
        self._stop.request(reason)

    def stop_requested(self) -> Optional[str]:
        """The stop reason ("interrupted") once a signal arrived."""
        if self._stop is not None and self._stop.requested:
            return "interrupted"
        return None

    @property
    def stop_signal(self) -> Optional[str]:
        return self._stop.signal_name if self._stop is not None else None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _payload(self, strategy) -> dict:
        payload = {
            "program": getattr(self.program, "name", None),
            "policy": self.policy_name,
            "strategy": strategy.name,
            "state": strategy.state_dict(),
        }
        if self.config is not None:
            payload["config"] = {
                "depth_bound": self.config.depth_bound,
                "on_depth_exceeded": self.config.on_depth_exceeded,
                "preemption_bound": self.config.preemption_bound,
                "seed": self.config.seed,
            }
        return payload

    def maybe_checkpoint(self, strategy) -> Optional[Path]:
        """Periodic snapshot: every ``checkpoint_interval`` executions."""
        if self.store is None:
            return None
        self._since_checkpoint += 1
        if self._since_checkpoint < max(1, self.options.checkpoint_interval):
            return None
        return self.flush_checkpoint(strategy)

    def flush_checkpoint(self, strategy) -> Optional[Path]:
        """Unconditional snapshot (final flush on stop/interrupt).

        A disk that refuses the write (ENOSPC, EIO) degrades the
        *checkpoint*, never the search: the failure is counted, reported
        through the observer, and the search carries on with its last
        good snapshot (the store's ``.prev`` rotation guarantees one
        survives).  Only real ``OSError`` is absorbed — an injected
        simulated crash propagates, as a real crash would.
        """
        if self.store is None:
            return None
        self._since_checkpoint = 0
        payload = self._payload(strategy)
        try:
            path = self.store.save(payload)
        except OSError as exc:
            self.checkpoint_write_failures += 1
            self.last_checkpoint_error = f"{type(exc).__name__}: {exc}"
            if self.observer is not None:
                self.observer.checkpoint_write_failed(
                    str(self.store.path), self.last_checkpoint_error)
            return None
        self.checkpoints_written += 1
        if self.observer is not None:
            executions = (payload["state"].get("aggregator") or
                          {}).get("executions", 0)
            self.observer.checkpoint_saved(str(path), executions)
        return path

    # ------------------------------------------------------------------
    # crash quarantine
    # ------------------------------------------------------------------
    def quarantine_crash(self, program, record) -> Optional[Path]:
        """Persist one crashed record and emit telemetry."""
        path = self.quarantine.save(program, record,
                                    policy_name=self.policy_name,
                                    config=self.config,
                                    strategy=self.strategy)
        if self.observer is not None:
            self.observer.crash_quarantined(str(record.crash),
                                            str(path) if path else None)
        return path
