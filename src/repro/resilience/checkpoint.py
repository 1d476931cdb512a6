"""Checkpoint persistence: resumable searches.

The CHESS evaluation runs millions of executions against real systems
code; a crash or interrupt hours into such a search must not forfeit the
results.  A *checkpoint* is a versioned JSON snapshot of everything a
strategy needs to continue where it stopped:

* the strategy *frontier* (the next guide for DFS, the queue for BFS,
  the remaining budget and RNG state for random search, the current
  bound plus inner state for ICB);
* the aggregated partial results (counts plus the schedules of every
  violating / diverging / crashing execution found so far);
* the RNG state of any random component, so a resumed search makes the
  identical choices an uninterrupted one would have made.

Writes are atomic and durable — the snapshot goes through
:func:`repro.durableio.atomic_write` (tmp file, fsync, ``os.replace``,
directory fsync), so an interrupt mid-write can never leave a truncated
checkpoint behind and a completed save survives kill -9.  Before each
save the current checkpoint is hardlinked onto a ``.prev`` sibling, so
even a checkpoint corrupted *after* publication (torn by a dying disk, a
dropped fsync plus power cut) is recoverable: :meth:`CheckpointStore.\
load_or_recover` quarantines the bad file to ``.corrupt`` and falls back
to the last good snapshot.

The serialization here is intentionally *lossy about traces*: recorded
schedules replay deterministically, so a resumed checker can always
reconstruct a full trace with :func:`repro.engine.replay.replay_schedule`
instead of persisting megabytes of trace text.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.chaos.faults import record_op
from repro.durableio import atomic_write_text

from repro.engine.results import (
    Decision,
    DivergenceKind,
    DivergenceReport,
    ExecutionResult,
    ExplorationResult,
    Outcome,
)
from repro.runtime.errors import (
    AssertionViolation,
    DeadlockViolation,
    PropertyViolation,
    SyncUsageError,
    TaskCrash,
)

FORMAT_VERSION = 1

#: ``PropertyViolation.kind`` -> class, for faithful reconstruction.
_VIOLATION_CLASSES = {
    cls.kind: cls
    for cls in (PropertyViolation, AssertionViolation, SyncUsageError,
                DeadlockViolation, TaskCrash)
}


# ----------------------------------------------------------------------
# RNG state
# ----------------------------------------------------------------------

def freeze_rng(rng: random.Random) -> list:
    """``random.Random`` state as a JSON-serializable value."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def thaw_rng(rng: random.Random, state) -> None:
    """Restore a state produced by :func:`freeze_rng`."""
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))


# ----------------------------------------------------------------------
# Execution records
# ----------------------------------------------------------------------

def record_to_state(record: ExecutionResult) -> dict:
    """A JSON-serializable snapshot of one kept execution record.

    Keeps the replayable schedule and the classification; drops the
    trace (replay regenerates it deterministically).
    """
    state: Dict[str, object] = {
        "outcome": record.outcome.value,
        "steps": record.steps,
        "preemptions": record.preemptions,
        "hit_depth_bound": record.hit_depth_bound,
        "completed_randomly": record.completed_randomly,
        "decisions": [[d.kind, d.index, d.options] for d in record.decisions],
        "preemption_bound": record.preemption_bound,
    }
    if record.violation is not None:
        state["violation"] = {
            "kind": getattr(record.violation, "kind", "safety"),
            "message": str(record.violation),
        }
    if record.divergence is not None:
        state["divergence"] = {
            "kind": record.divergence.kind.value,
            "culprits": list(record.divergence.culprits),
            "window": record.divergence.window,
            "detail": record.divergence.detail,
        }
    if record.crash is not None:
        state["crash"] = str(record.crash)
    if record.abort_reason is not None:
        state["abort_reason"] = record.abort_reason
    return state


def record_from_state(state: dict) -> ExecutionResult:
    """Inverse of :func:`record_to_state` (trace-less)."""
    violation = None
    if "violation" in state:
        stored = state["violation"]
        cls = _VIOLATION_CLASSES.get(stored.get("kind"), PropertyViolation)
        violation = cls(stored["message"])
    divergence = None
    if "divergence" in state:
        stored = state["divergence"]
        divergence = DivergenceReport(
            kind=DivergenceKind(stored["kind"]),
            culprits=tuple(stored.get("culprits", ())),
            window=stored.get("window", 0),
            detail=stored.get("detail", ""),
        )
    crash = None
    if "crash" in state:
        crash = TaskCrash(state["crash"])
    return ExecutionResult(
        outcome=Outcome(state["outcome"]),
        decisions=[Decision(kind, index, options, None)
                   for kind, index, options in state.get("decisions", [])],
        steps=state.get("steps", 0),
        preemptions=state.get("preemptions", 0),
        violation=violation,
        divergence=divergence,
        crash=crash,
        abort_reason=state.get("abort_reason"),
        hit_depth_bound=state.get("hit_depth_bound", False),
        completed_randomly=state.get("completed_randomly", False),
        preemption_bound=state.get("preemption_bound"),
    )


# ----------------------------------------------------------------------
# Aggregated exploration results
# ----------------------------------------------------------------------

def exploration_to_state(result: ExplorationResult) -> dict:
    """Serialize partial (or final) aggregated results for a checkpoint."""
    return {
        "program": result.program_name,
        "policy": result.policy_name,
        "strategy": result.strategy_name,
        "executions": result.executions,
        "transitions": result.transitions,
        "outcomes": {outcome.value: count
                     for outcome, count in result.outcomes.items()},
        "violations": [record_to_state(r) for r in result.violations],
        "deadlocks": [record_to_state(r) for r in result.deadlocks],
        "divergences": [record_to_state(r) for r in result.divergences],
        "crashes": [record_to_state(r) for r in result.crashes],
        "nonterminating_executions": result.nonterminating_executions,
        "aborted_executions": result.aborted_executions,
        "wall_seconds": result.wall_seconds,
        "complete": result.complete,
        "limit_hit": result.limit_hit,
        "stop_reason": result.stop_reason,
        "first_violation_execution": result.first_violation_execution,
        "states_covered": result.states_covered,
    }


def exploration_from_state(state: dict) -> ExplorationResult:
    """Inverse of :func:`exploration_to_state`."""
    result = ExplorationResult(
        program_name=state.get("program", ""),
        policy_name=state.get("policy", ""),
        strategy_name=state.get("strategy", ""),
        executions=state.get("executions", 0),
        transitions=state.get("transitions", 0),
        violations=[record_from_state(r)
                    for r in state.get("violations", [])],
        deadlocks=[record_from_state(r) for r in state.get("deadlocks", [])],
        divergences=[record_from_state(r)
                     for r in state.get("divergences", [])],
        crashes=[record_from_state(r) for r in state.get("crashes", [])],
        nonterminating_executions=state.get("nonterminating_executions", 0),
        aborted_executions=state.get("aborted_executions", 0),
        wall_seconds=state.get("wall_seconds", 0.0),
        complete=state.get("complete", False),
        limit_hit=state.get("limit_hit", False),
        stop_reason=state.get("stop_reason"),
        first_violation_execution=state.get("first_violation_execution"),
        states_covered=state.get("states_covered"),
    )
    for outcome_value, count in state.get("outcomes", {}).items():
        result.outcomes[Outcome(outcome_value)] = count
    return result


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class CheckpointStore:
    """Versioned checkpoint file with atomic (tmp + rename) writes.

    Opening a store sweeps up any stale ``<name>.tmp`` sibling left by a
    write that was killed between serializing and renaming (the atomic
    path guarantees the *checkpoint* is never truncated, but the orphan
    tmp file itself would otherwise accumulate across interrupted runs).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        for stale in (self._tmp_path(), self._prevtmp_path()):
            if stale.exists():
                try:
                    stale.unlink()
                except OSError:
                    pass  # unreadable/foreign tmp file: leave it alone

    def _tmp_path(self) -> Path:
        return self.path.with_name(self.path.name + ".tmp")

    def _prev_path(self) -> Path:
        return self.path.with_name(self.path.name + ".prev")

    def _prevtmp_path(self) -> Path:
        return self.path.with_name(self.path.name + ".prevtmp")

    def _corrupt_path(self) -> Path:
        return self.path.with_name(self.path.name + ".corrupt")

    def exists(self) -> bool:
        return self.path.exists()

    def recoverable(self) -> bool:
        """True when a resume has *something* to work with — the
        checkpoint itself or its ``.prev`` rotation sibling."""
        return self.path.exists() or self._prev_path().exists()

    def _rotate(self) -> None:
        """Hardlink the current checkpoint onto ``.prev``.

        Runs before every save, so the last *published* snapshot stays
        reachable even if the new one is torn by a fault between rename
        and fsync.  Best-effort: a filesystem without hardlinks just
        loses the second line of defense, not the save.
        """
        if not self.path.exists():
            return
        tmp_link = self._prevtmp_path()
        try:
            if tmp_link.exists():
                tmp_link.unlink()
            os.link(self.path, tmp_link)
            os.replace(tmp_link, self._prev_path())
            record_op("link", str(self.path), str(self._prev_path()))
        except OSError:
            pass

    def save(self, payload: dict) -> Path:
        """Write ``payload`` atomically and durably; returns the path.

        Raises ``OSError`` when the disk refuses the write (ENOSPC,
        EIO): callers that must outlive a full disk catch it and degrade
        (see ``ResilienceController.flush_checkpoint``).
        """
        document = dict(payload)
        document["format"] = FORMAT_VERSION
        document["saved_at"] = time.time()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._rotate()
        text = json.dumps(
            document, indent=2, sort_keys=True, default=str) + "\n"
        atomic_write_text(self.path, text, label="checkpoint")
        return self.path

    def delete(self) -> bool:
        """Remove the checkpoint and every sibling it may have spawned
        (``.tmp``, ``.prev``, ``.prevtmp``, ``.corrupt``).

        Returns True when a checkpoint file was actually removed.  Used
        by long-lived owners — the checking service garbage-collects a
        job's checkpoint the moment the job reaches a terminal state —
        so finished work never leaves resume state behind.
        """
        removed = False
        for candidate in (self.path, self._tmp_path(), self._prev_path(),
                          self._prevtmp_path(), self._corrupt_path()):
            try:
                candidate.unlink()
                removed = removed or candidate == self.path
            except FileNotFoundError:
                pass
        return removed

    @staticmethod
    def list(directory: Union[str, Path]) -> List[Path]:
        """Valid checkpoint files directly under ``directory``, sorted.

        A file qualifies when it parses as a JSON object carrying this
        module's ``format`` marker and a strategy ``state`` — foreign
        JSON (repro files, job records) is skipped, as are unreadable
        files.  A missing directory is an empty listing, not an error.
        """
        root = Path(directory)
        if not root.is_dir():
            return []
        found: List[Path] = []
        skip = (".tmp", ".prev", ".prevtmp", ".corrupt")
        for path in sorted(root.iterdir()):
            if not path.is_file() or path.name.endswith(skip):
                continue
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if (isinstance(payload, dict)
                    and payload.get("format") == FORMAT_VERSION
                    and isinstance(payload.get("state"), dict)):
                found.append(path)
        return found

    @staticmethod
    def sweep_stale(directory: Union[str, Path], max_age: float,
                    *, now: Optional[float] = None) -> List[Path]:
        """Delete checkpoints older than ``max_age`` seconds; returns them.

        Age is measured from the checkpoint's own ``saved_at`` stamp
        (falling back to the file mtime for hand-edited files).  Only
        files :meth:`list` recognizes as checkpoints are touched, so a
        sweep over a mixed directory can never eat repro schedules or
        job records.
        """
        reference = time.time() if now is None else now
        deleted: List[Path] = []
        for path in CheckpointStore.list(directory):
            try:
                payload = json.loads(path.read_text())
                saved_at = payload.get("saved_at")
                if not isinstance(saved_at, (int, float)):
                    saved_at = path.stat().st_mtime
                if reference - saved_at > max_age:
                    path.unlink()
                    deleted.append(path)
            except OSError:
                continue  # raced with another sweeper; nothing to do
        return deleted

    def load(self) -> dict:
        """Read and validate the checkpoint; raises ``ValueError`` when
        the file is truncated, corrupt, or from a different format."""
        try:
            payload = json.loads(self.path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"checkpoint {self.path} is truncated or corrupt: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ValueError(f"checkpoint {self.path} is not a JSON object")
        if payload.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {payload.get('format')!r} "
                f"(this build reads format {FORMAT_VERSION})"
            )
        if not isinstance(payload.get("state"), dict):
            raise ValueError(f"checkpoint {self.path} has no strategy state")
        return payload

    @staticmethod
    def _validate(path: Path) -> dict:
        payload = json.loads(path.read_text())
        if (not isinstance(payload, dict)
                or payload.get("format") != FORMAT_VERSION
                or not isinstance(payload.get("state"), dict)):
            raise ValueError(f"checkpoint {path} is not a valid "
                             f"format-{FORMAT_VERSION} snapshot")
        return payload

    def load_or_recover(self) -> Tuple[dict, bool, Optional[Path]]:
        """Load the checkpoint, falling back to the ``.prev`` rotation
        sibling when the primary is truncated or corrupt.

        Returns ``(payload, recovered, quarantined)``: ``recovered`` is
        False for a clean load of the primary; when True, ``payload``
        came from the previous snapshot and ``quarantined`` (if not
        ``None``) is the ``.corrupt`` path the bad primary was moved to
        — kept for post-mortem, removed by :meth:`delete`.  The
        checkpoint name is re-pointed (hardlinked) at the recovered
        snapshot so subsequent saves rotate normally.  Raises
        ``ValueError`` only when *no* loadable snapshot exists at all.
        """
        primary_error: Optional[ValueError] = None
        if self.path.exists():
            try:
                return self.load(), False, None
            except ValueError as exc:
                primary_error = exc

        quarantined: Optional[Path] = None
        if self.path.exists():
            quarantined = self._corrupt_path()
            try:
                os.replace(self.path, quarantined)
            except OSError:
                quarantined = None

        prev = self._prev_path()
        if prev.exists():
            try:
                payload = self._validate(prev)
            except (OSError, ValueError, json.JSONDecodeError,
                    UnicodeDecodeError):
                payload = None
            if payload is not None:
                try:
                    if not self.path.exists():
                        os.link(prev, self.path)
                except OSError:
                    pass  # resume still works from the loaded payload
                return payload, True, quarantined

        if primary_error is not None:
            raise primary_error
        raise ValueError(f"checkpoint {self.path} does not exist and no "
                         f"previous snapshot is available")


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Convenience wrapper: read + validate one checkpoint file."""
    return CheckpointStore(path).load()
