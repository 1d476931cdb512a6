"""Deterministic fault injection and crash-consistency torture.

The chaos plane has three layers:

* :mod:`repro.chaos.faults` — named fault points, seeded
  :class:`~repro.chaos.faults.FaultPlan` rules, and the process-global
  injector that the durable-write helpers and the snapshot cache
  consult;
* :mod:`repro.chaos.torture` — a simulated disk that replays every
  prefix of a recorded write sequence to enumerate post-crash states;
* :mod:`repro.chaos.harness` — the seeded scenario matrix behind
  ``repro chaos``, asserting the durability invariants (no lost
  verdicts, bit-identical resumed totals, honored exit codes) against
  real workloads.
"""

from repro.chaos.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FiredFault,
    InjectedFault,
    WriteRecorder,
    active,
    fault_at,
    fault_plan,
    install,
    install_recorder,
    record_op,
    uninstall,
    uninstall_recorder,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FiredFault",
    "InjectedFault",
    "WriteRecorder",
    "active",
    "fault_at",
    "fault_plan",
    "install",
    "install_recorder",
    "record_op",
    "uninstall",
    "uninstall_recorder",
]
