"""Crash-consistency torture: replay every prefix of the write log.

The atomic-write discipline (:mod:`repro.durableio`) claims that a crash
at *any* instant leaves the checkpoint store recoverable.  This module
checks the claim exhaustively instead of anecdotally:

1. run a real checkpointed search with a
   :class:`~repro.chaos.faults.WriteRecorder` installed, capturing the
   physical op sequence (``write``/``fsync``/``replace``/``link``/
   ``fsync_dir``) the writers emitted;
2. replay **every prefix** of that sequence through a
   :class:`SimulatedDisk` and materialize the two bracketing post-crash
   states POSIX permits:

   * **all-durable** — every op made it to the platter (the lucky
     crash);
   * **min-durable** — only explicitly fsync'd file content survived;
     renames and hardlinks became durable only at the following
     ``fsync_dir`` of their directory; un-synced content is torn in
     half (the adversarial crash);

3. resume the search from each materialized state and require the final
   totals (executions, transitions, per-outcome counts, verdict) to be
   **bit-identical** to an unfaulted baseline — across all six
   strategies.

Any real state the hardware can produce lies between the two brackets,
so a green torture run means no crash instant can lose a verdict.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import WriteRecorder, install_recorder, \
    uninstall_recorder
from repro.checker import Checker
from repro.engine.strategies import STRATEGIES
from repro.resilience import CheckpointStore
from repro.workloads.dining import dining_philosophers


@dataclass
class _FileState:
    """One file in a simulated view: content + was it ever fsync'd."""

    content: bytes
    synced: bool


class SimulatedDisk:
    """Replays a recorded op sequence into bracketing crash states.

    ``logical`` applies every op the instant it was issued (the
    all-durable bracket).  ``durable`` applies content only at
    ``fsync`` and namespace changes (rename/link) only at the
    ``fsync_dir`` that follows them — with un-synced content torn at
    half length (the min-durable bracket).
    """

    def __init__(self) -> None:
        self.logical: Dict[str, _FileState] = {}
        self.durable: Dict[str, bytes] = {}
        # Namespace ops (publish path -> content/synced) waiting for the
        # fsync of their parent directory, in issue order.
        self.pending: Dict[str, List[Tuple[str, bytes, bool]]] = {}

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "write":
            _, tmp, payload = op
            self.logical[tmp] = _FileState(bytes(payload), synced=False)
        elif kind == "fsync":
            _, tmp = op
            state = self.logical.get(tmp)
            if state is not None:
                state.synced = True
        elif kind == "replace":
            _, tmp, path = op
            state = self.logical.pop(tmp, _FileState(b"", False))
            self.logical[path] = state
            self._queue(path, state)
        elif kind == "link":
            _, src, dst = op
            state = self.logical.get(src, _FileState(b"", False))
            copy = _FileState(state.content, state.synced)
            self.logical[dst] = copy
            self._queue(dst, copy)
        elif kind == "unlink":
            _, path = op
            self.logical.pop(path, None)
            self._queue_unlink(path)
        elif kind == "fsync_dir":
            _, directory = op
            for path, content, synced in self.pending.pop(directory, []):
                if content is None:
                    self.durable.pop(path, None)
                elif synced:
                    self.durable[path] = content
                else:
                    self.durable[path] = content[: len(content) // 2]
        else:  # pragma: no cover - future op kinds fail loudly
            raise ValueError(f"unknown recorded op {op!r}")

    def _queue(self, path: str, state: _FileState) -> None:
        parent = str(Path(path).parent)
        self.pending.setdefault(parent, []).append(
            (path, state.content, state.synced))

    def _queue_unlink(self, path: str) -> None:
        parent = str(Path(path).parent)
        self.pending.setdefault(parent, []).append((path, None, False))

    # ------------------------------------------------------------------
    def all_durable_view(self) -> Dict[str, bytes]:
        """Every issued op applied; un-synced content intact (the crash
        that lost nothing)."""
        return {path: state.content
                for path, state in self.logical.items()}

    def min_durable_view(self) -> Dict[str, bytes]:
        """Only synced content and dir-synced namespace ops; a crashed
        writer's volatile bytes torn at half."""
        view = dict(self.durable)
        # Temp files whose *creation* predates any dirsync can still be
        # present after a crash (metadata journaling); surface them torn
        # so recovery's tmp sweep is exercised.
        for path, state in self.logical.items():
            if path in view:
                continue
            if path.endswith((".tmp", ".prevtmp")):
                view[path] = (state.content if state.synced
                              else state.content[: len(state.content) // 2])
        return view


def materialize(view: Dict[str, bytes], src_root: Path,
                dst_root: Path) -> None:
    """Write one simulated view into a fresh directory tree."""
    for path, content in view.items():
        rel = Path(path).relative_to(src_root)
        target = dst_root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)


# ----------------------------------------------------------------------
# the torture loop
# ----------------------------------------------------------------------

@dataclass
class TortureResult:
    """Outcome of one strategy's prefix sweep."""

    strategy: str
    prefixes: int = 0
    states_checked: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = (f"[{status}] {self.strategy}: {self.prefixes} prefixes, "
                f"{self.states_checked} crash states")
        if self.failures:
            line += "\n" + "\n".join(f"    - {f}"
                                     for f in self.failures[:10])
            if len(self.failures) > 10:
                line += f"\n    - ... {len(self.failures) - 10} more"
        return line


def _checker(strategy: str, workdir: Path,
             max_executions: int) -> Checker:
    return Checker(
        dining_philosophers(2),
        strategy=strategy,
        depth_bound=60,
        max_executions=max_executions,
        random_executions=max_executions,
        checkpoint_path=str(workdir / "search.ckpt"),
        checkpoint_interval=1,
        handle_signals=False,
    )


def _totals(result) -> dict:
    exploration = result.exploration
    return {
        "verdict": "pass" if result.ok else "fail",
        "executions": exploration.executions,
        "transitions": exploration.transitions,
        "outcomes": {outcome.value: count for outcome, count
                     in sorted(exploration.outcomes.items(),
                               key=lambda item: item[0].value)},
    }


def torture_strategy(strategy: str, *, max_executions: int = 10,
                     prefix_stride: int = 1) -> TortureResult:
    """Replay every op-sequence prefix for one strategy.

    ``prefix_stride`` subsamples the prefixes (every N-th, always
    including the first and last) for quicker sweeps.
    """
    outcome = TortureResult(strategy=strategy)
    with tempfile.TemporaryDirectory(prefix=f"torture-{strategy}-") as tmp:
        root = Path(tmp)
        baseline_dir = root / "baseline"
        baseline_dir.mkdir()
        baseline = _totals(
            _checker(strategy, baseline_dir, max_executions).run())

        recorded_dir = root / "recorded"
        recorded_dir.mkdir()
        recorder = install_recorder(WriteRecorder())
        try:
            recorded = _totals(
                _checker(strategy, recorded_dir, max_executions).run())
        finally:
            uninstall_recorder()
        if recorded != baseline:
            outcome.failures.append(
                f"recorded run diverged from baseline: {recorded} "
                f"vs {baseline}")
            return outcome
        ops = list(recorder.ops)
        if not ops:
            outcome.failures.append("recorder captured no write ops")
            return outcome

        indices = list(range(len(ops) + 1))
        if prefix_stride > 1:
            kept = set(indices[::prefix_stride])
            kept.update((0, len(ops)))
            indices = sorted(kept)

        disk = SimulatedDisk()
        applied = 0
        for cut in indices:
            while applied < cut:
                disk.apply(ops[applied])
                applied += 1
            outcome.prefixes += 1
            for label, view in (("all-durable", disk.all_durable_view()),
                                ("min-durable", disk.min_durable_view())):
                outcome.states_checked += 1
                failure = _check_state(strategy, max_executions, view,
                                       recorded_dir, root, baseline,
                                       f"prefix {cut} [{label}]")
                if failure is not None:
                    outcome.failures.append(failure)
    return outcome


def _check_state(strategy: str, max_executions: int,
                 view: Dict[str, bytes], src_root: Path, root: Path,
                 baseline: dict, label: str) -> Optional[str]:
    """Materialize one crash state; resume must reproduce baseline."""
    with tempfile.TemporaryDirectory(dir=root, prefix="state-") as state:
        state_dir = Path(state)
        materialize(view, src_root, state_dir)
        ckpt = state_dir / "search.ckpt"
        checker = _checker(strategy, state_dir, max_executions)
        try:
            resume = (str(ckpt) if CheckpointStore(ckpt).recoverable()
                      else None)
            result = checker.run(resume_from=resume)
        except Exception as exc:
            return (f"{label}: resume raised "
                    f"{type(exc).__name__}: {exc}")
        totals = _totals(result)
        if totals != baseline:
            return (f"{label}: resumed totals diverged: {totals} "
                    f"vs {baseline}")
    return None


def run_torture(*, strategies=STRATEGIES, max_executions: int = 10,
                prefix_stride: int = 1) -> List[TortureResult]:
    """The full suite: every strategy, every (strided) prefix, both
    durability brackets."""
    return [torture_strategy(name, max_executions=max_executions,
                             prefix_stride=prefix_stride)
            for name in strategies]
