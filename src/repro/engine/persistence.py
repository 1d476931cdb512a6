"""Schedule persistence: CHESS-style repro files.

A counterexample found on one machine must be reproducible on another;
CHESS writes a *repro file* with the schedule and enough configuration to
replay it.  This module serializes an :class:`ExecutionResult`'s schedule
together with the policy/config fingerprint needed for faithful replay,
as stable JSON.

The program itself is referenced by name only — replay requires the same
program factory (same code version), which is checked loosely via the
recorded name and decision count.

::

    save_schedule("bug.json", program, record, policy_name="fair",
                  config=config)
    record = load_and_replay("bug.json", program, fair_policy(), config)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.core.model import Program
from repro.durableio import atomic_write_text
from repro.core.policies import PolicyFactory
from repro.engine.executor import ExecutorConfig
from repro.engine.replay import replay_schedule
from repro.engine.results import ExecutionResult

FORMAT_VERSION = 1


def schedule_to_dict(program: Program, record: ExecutionResult, *,
                     policy_name: str = "",
                     config: Optional[ExecutorConfig] = None,
                     strategy: Optional[str] = None) -> dict:
    """A JSON-serializable repro record; with ``strategy`` (the name of
    the strategy that found it) also the preemption bound it ran under,
    which together fix what its decision indices mean."""
    payload = {
        "format": FORMAT_VERSION,
        "program": program.name,
        "policy": policy_name,
        "outcome": record.outcome.value,
        "steps": record.steps,
        "schedule": record.schedule,
        "decisions": [
            {"kind": d.kind, "index": d.index, "options": d.options}
            for d in record.decisions
        ],
    }
    if strategy is not None:
        payload["strategy"] = strategy
        payload["preemption_bound"] = record.preemption_bound
    if record.violation is not None:
        payload["violation"] = str(record.violation)
    if record.divergence is not None:
        payload["divergence"] = {
            "kind": record.divergence.kind.value,
            "detail": record.divergence.detail,
        }
    if config is not None:
        payload["config"] = {
            "depth_bound": config.depth_bound,
            "on_depth_exceeded": config.on_depth_exceeded,
            "preemption_bound": config.preemption_bound,
        }
    return payload


def save_schedule(path: Union[str, Path], program: Program,
                  record: ExecutionResult, *, policy_name: str = "",
                  config: Optional[ExecutorConfig] = None,
                  strategy: Optional[str] = None) -> Path:
    """Write a repro file; returns the path.

    The write goes through :func:`repro.durableio.atomic_write` (temp
    file + fsync + rename + directory fsync), so a crash or SIGKILL at
    any instant can never leave a truncated repro file behind and a
    returned path means the file survives kill -9 — the previous file,
    if any, survives intact.
    """
    path = Path(path)
    text = json.dumps(
        schedule_to_dict(program, record, policy_name=policy_name,
                         config=config, strategy=strategy),
        indent=2, sort_keys=True,
    ) + "\n"
    atomic_write_text(path, text, label="schedule")
    return path


def load_schedule(path: Union[str, Path]) -> dict:
    """Read and validate a repro file.

    Raises :class:`ValueError` with a clear message when the file is
    truncated/corrupt, has an unknown format version, or lacks a
    schedule.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"repro file {path} is truncated or corrupt: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValueError(f"repro file {path} is truncated or corrupt: "
                         f"expected a JSON object")
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported repro-file format {payload.get('format')!r}"
        )
    if not isinstance(payload.get("schedule"), list):
        raise ValueError("repro file has no schedule")
    return payload


def load_and_replay(
    path: Union[str, Path],
    program: Program,
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
) -> ExecutionResult:
    """Replay a repro file against the (same) program.

    A file that names its strategy replays through that strategy's
    reducer under its recorded preemption bound.  Raises
    :class:`ValueError` when the file was recorded against a program
    with a different name, or when the schedule no longer fits the
    program's choice tree (code drift).
    """
    payload = load_schedule(path)
    if payload["program"] != program.name:
        raise ValueError(
            f"repro file was recorded for {payload['program']!r}, "
            f"got {program.name!r}"
        )
    if config is None and "config" in payload:
        stored = payload["config"]
        config = ExecutorConfig(
            depth_bound=stored.get("depth_bound"),
            on_depth_exceeded=stored.get("on_depth_exceeded", "divergence"),
            preemption_bound=stored.get("preemption_bound"),
        )
    reducer = None
    if "strategy" in payload:
        # Not at module level: the strategies import this module
        # through the resilience layer.
        from repro.engine.strategies import strategy_class

        reducer = strategy_class(payload["strategy"]).reducer
    return replay_schedule(program, payload["schedule"], policy_factory,
                           config, reducer=reducer,
                           bound=payload.get("preemption_bound"))
