"""The seeded fault matrix behind ``repro chaos``.

Each *scenario* arms one :class:`~repro.chaos.faults.FaultPlan` against a
real checkpointed search of a real workload and asserts the hardening
invariants the rest of the repo advertises:

* **no lost verdicts** — a faulted-then-recovered run reaches the same
  PASS/FAIL verdict as the unfaulted baseline;
* **bit-identical resumed totals** — executions, transitions and
  per-outcome counts after crash + resume equal the baseline exactly
  (the checkpoint-at-iteration-start discipline, docs/resilience.md);
* **degradation, not death** — ENOSPC/EIO during a checkpoint flush
  fails the flush (counted, warned) and never the search.

Every trigger point in the matrix is drawn from the run's seed
(:meth:`FaultPlan.seeded`), so ``repro chaos --seed N`` reproduces the
exact same fault schedule bit for bit.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.chaos.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_plan,
    install,
    uninstall,
)
from repro.checker import Checker, CheckResult
from repro.resilience import CheckpointStore
from repro.obs import Observer
from repro.workloads.dining import dining_philosophers


def _totals(result: CheckResult) -> dict:
    """The bit-identical comparison key for 'no lost work'."""
    exploration = result.exploration
    return {
        "verdict": "pass" if result.ok else "fail",
        "executions": exploration.executions,
        "transitions": exploration.transitions,
        "outcomes": {outcome.value: count for outcome, count
                     in sorted(exploration.outcomes.items(),
                               key=lambda item: item[0].value)},
    }


@dataclass
class ScenarioResult:
    """Outcome of one fault scenario."""

    name: str
    plan: str
    ok: bool
    details: List[str] = field(default_factory=list)
    fired: int = 0

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"[{status}] {self.name}  ({self.plan}; fired={self.fired})"
        if self.details:
            line += "\n" + "\n".join(f"    - {d}" for d in self.details)
        return line


@dataclass
class MatrixResult:
    """All scenarios of one ``repro chaos`` run."""

    seed: int
    scenarios: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary(self) -> str:
        lines = [f"chaos matrix (seed={self.seed}): "
                 f"{sum(s.ok for s in self.scenarios)}/"
                 f"{len(self.scenarios)} scenarios ok"]
        lines.extend(s.describe() for s in self.scenarios)
        return "\n".join(lines)


class _Check:
    """Collects invariant violations for one scenario."""

    def __init__(self) -> None:
        self.details: List[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.details.append(message)

    def expect_totals(self, label: str, got: dict, want: dict) -> None:
        if got != want:
            self.details.append(f"{label}: totals diverged\n"
                                f"      got  {got}\n"
                                f"      want {want}")


def _checker(workdir: Path, *,
             observer: Optional[Observer] = None) -> Checker:
    """A small but real checkpointed search (dining philosophers)."""
    return Checker(dining_philosophers(2), strategy="dfs", depth_bound=60,
                   checkpoint_path=str(workdir / "search.ckpt"),
                   checkpoint_interval=1, handle_signals=False,
                   observer=observer)


def _count_checkpoint_saves(workdir: Path) -> dict:
    """Probe run under an empty plan: the injector's hit counters tell
    the scenarios how many times each fault point fires in a clean run
    (so seeded triggers can land on e.g. 'the final save')."""
    injector = install(FaultPlan(name="probe"))
    try:
        baseline = _checker(workdir).run()
    finally:
        uninstall()
    return {"totals": _totals(baseline), "hits": dict(injector.hits)}


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def scenario_checkpoint_enospc(seed: int, workdir: Path) -> ScenarioResult:
    """ENOSPC during a checkpoint flush degrades the flush, not the run."""
    baseline = _totals(_checker(workdir / "baseline").run())
    plan = FaultPlan.seeded(seed, "checkpoint.write", "enospc",
                            name="checkpoint-enospc")
    observer = Observer()
    check = _Check()
    faulted = workdir / "faulted"
    with fault_plan(plan, observer=observer) as injector:
        result = _checker(faulted, observer=observer).run()
    check.expect_totals("faulted run", _totals(result), baseline)
    check.expect(len(injector.fired) >= 1, "enospc rule never fired")
    check.expect(
        observer.metrics.counter("checkpoints.write_failed").value >= 1,
        "checkpoint write failure was not counted (degradation path "
        "did not run)")
    return ScenarioResult("checkpoint-enospc", plan.describe(),
                          ok=not check.details, details=check.details,
                          fired=len(injector.fired))


def scenario_checkpoint_replace_interrupted(
        seed: int, workdir: Path) -> ScenarioResult:
    """Crash between tmp write and rename; resume is bit-identical."""
    baseline = _totals(_checker(workdir / "baseline").run())
    plan = FaultPlan.seeded(seed, "checkpoint.replace",
                            "replace-interrupted",
                            name="checkpoint-replace-interrupted")
    check = _Check()
    faulted = workdir / "faulted"
    crashed = False
    with fault_plan(plan) as injector:
        try:
            _checker(faulted).run()
        except InjectedFault:
            crashed = True
    check.expect(crashed, "replace-interrupted fault never crashed "
                          "the run")
    observer = Observer()
    # Resume from whatever snapshot is recoverable, as a sliced search
    # does between slices; a crash before the *first* publish restarts
    # fresh.
    ckpt = faulted / "search.ckpt"
    resume = str(ckpt) if CheckpointStore(ckpt).recoverable() else None
    resumed = _checker(faulted, observer=observer).run(resume_from=resume)
    check.expect_totals("resumed run", _totals(resumed), baseline)
    return ScenarioResult("checkpoint-replace-interrupted",
                          plan.describe(), ok=not check.details,
                          details=check.details,
                          fired=len(injector.fired))


def scenario_checkpoint_corrupt_recovery(
        seed: int, workdir: Path) -> ScenarioResult:
    """The final save publishes a torn file (fsync dropped, then a
    crash); resume falls back to the ``.prev`` rotation sibling."""
    probe = _count_checkpoint_saves(workdir / "baseline")
    baseline = probe["totals"]
    saves = probe["hits"].get("checkpoint.write", 0)
    check = _Check()
    check.expect(saves >= 2, f"workload produced only {saves} checkpoint "
                             "saves; cannot exercise rotation")
    # Tear the *final* publish specifically: every later save would
    # overwrite the damage, so only the last one leaves it for resume.
    plan = FaultPlan(
        rules=[FaultRule(point="checkpoint.write", kind="short-write",
                         at=max(2, saves))],
        seed=seed, name="checkpoint-corrupt-recovery")
    faulted = workdir / "faulted"
    with fault_plan(plan) as injector:
        result = _checker(faulted).run()
    check.expect_totals("faulted run (short write is silent)",
                        _totals(result), baseline)
    check.expect(len(injector.fired) >= 1, "short-write rule never fired")
    observer = Observer()
    resumed = _checker(faulted, observer=observer).run(
        resume_from=str(faulted / "search.ckpt"))
    check.expect_totals("recovered resume", _totals(resumed), baseline)
    check.expect(
        observer.metrics.counter("checkpoints.recovered").value >= 1,
        "corrupt checkpoint was not recovered from .prev")
    check.expect(
        any("quarantined" in w for w in resumed.warnings),
        "recovery did not surface a warning")
    return ScenarioResult("checkpoint-corrupt-recovery", plan.describe(),
                          ok=not check.details, details=check.details,
                          fired=len(injector.fired))


SCENARIOS: Dict[str, Callable[[int, Path], ScenarioResult]] = {
    "checkpoint-enospc": scenario_checkpoint_enospc,
    "checkpoint-replace-interrupted":
        scenario_checkpoint_replace_interrupted,
    "checkpoint-corrupt-recovery": scenario_checkpoint_corrupt_recovery,
}


def run_matrix(seed: int = 0,
               only: Optional[List[str]] = None) -> MatrixResult:
    """Run the fault matrix; every trigger derives from ``seed``."""
    names = list(SCENARIOS) if not only else list(only)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown chaos scenario(s): "
                         f"{', '.join(unknown)} "
                         f"(expected: {', '.join(SCENARIOS)})")
    matrix = MatrixResult(seed=seed)
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"chaos-{name}-") as tmp:
            try:
                matrix.scenarios.append(SCENARIOS[name](seed, Path(tmp)))
            except Exception as exc:  # invariant harness must not die
                matrix.scenarios.append(ScenarioResult(
                    name, plan=f"seed={seed}", ok=False,
                    details=[f"scenario raised "
                             f"{type(exc).__name__}: {exc}"]))
            finally:
                uninstall()
    return matrix
