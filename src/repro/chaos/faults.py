"""Deterministic fault injection: the chaos plane's core.

Every durability claim in this repo — atomic repro files, resumable
checkpoints — is a claim about behavior *under faults*.  This module
makes those faults injectable, deterministic, and cheap to leave
compiled in:

* a **fault point** is a named call site (``checkpoint.write``,
  ``schedule.replace``, ``snapshot.restore``, ...) that asks the active
  injector "does a fault fire here?" before doing the real work;
* a :class:`FaultRule` arms one fault *kind* at one point, firing on the
  N-th hit of that point (optionally restricted to a context match such
  as one file path);
* a :class:`FaultPlan` is an ordered, serializable set of rules — the
  unit the ``repro chaos`` harness sweeps over, derived from a seed so
  every run of the matrix is reproducible bit for bit.

With no plan installed, a fault point costs one module-global ``is
None`` check — the production hot path stays fault-free and branchless
in the common case.

Fault kinds
-----------

========================  ====================================================
``torn-write``            write only a prefix of the payload, then die
                          (:class:`InjectedFault`) before the rename
``short-write``           write only a prefix of the payload and *carry on*
                          silently — the atomic rename then publishes a
                          corrupt file (a dropped-fsync-then-crash artifact)
``fsync-drop``            skip the fsync silently (the write is volatile;
                          only the simulated-disk torture replay can see it)
``replace-interrupted``   die (:class:`InjectedFault`) between writing the
                          temp file and the ``os.replace``
``enospc``                raise ``OSError(ENOSPC)`` from the fault point
``eio``                   raise ``OSError(EIO)`` from the fault point
========================  ====================================================
"""

from __future__ import annotations

import errno
import fnmatch
import os
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Fault kinds: disk misbehavior at atomic-write fault points.
FAULT_KINDS = (
    "torn-write",
    "short-write",
    "fsync-drop",
    "replace-interrupted",
    "enospc",
    "eio",
)


class InjectedFault(Exception):
    """A simulated crash raised by the chaos plane.

    Distinct from ``OSError`` on purpose: the hardened code paths catch
    ``OSError`` (real disk errors they must degrade around) and let
    ``InjectedFault`` propagate — it stands in for SIGKILL, so nothing
    may handle it except the test harness that injected it.
    """


@dataclass
class FaultRule:
    """Arm one fault kind at one fault point.

    ``point`` is an ``fnmatch`` pattern over fault-point names; ``at`` is
    the 1-based hit count at which the rule first fires and ``times`` how
    many consecutive hits it fires for.  ``match`` restricts firing to
    hits whose context carries the same key/value pairs (e.g.
    ``{"path": "search.ckpt"}`` fires only for that file).
    ``keep`` is the fraction of the payload a torn/short write keeps.
    """

    point: str
    kind: str
    at: int = 1
    times: int = 1
    match: Optional[Dict[str, object]] = None
    keep: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {', '.join(FAULT_KINDS)})")
        if self.at < 1:
            raise ValueError("FaultRule.at is 1-based; got "
                             f"{self.at}")
        if not 0.0 <= self.keep <= 1.0:
            raise ValueError("FaultRule.keep must be a fraction in [0, 1]")

    def to_dict(self) -> dict:
        data = {"point": self.point, "kind": self.kind, "at": self.at,
                "times": self.times, "keep": self.keep}
        if self.match:
            data["match"] = dict(self.match)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(point=data["point"], kind=data["kind"],
                   at=data.get("at", 1), times=data.get("times", 1),
                   match=data.get("match"), keep=data.get("keep", 0.5))

    def describe(self) -> str:
        scope = f" {self.match}" if self.match else ""
        return f"{self.kind}@{self.point}#{self.at}{scope}"


@dataclass
class FaultPlan:
    """An ordered set of fault rules plus the seed that derived them."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0
    name: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed,
                "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(rules=[FaultRule.from_dict(r)
                          for r in data.get("rules", [])],
                   seed=data.get("seed", 0), name=data.get("name", ""))

    def describe(self) -> str:
        label = self.name or f"plan(seed={self.seed})"
        return f"{label}: " + ", ".join(r.describe() for r in self.rules)

    @classmethod
    def seeded(cls, seed: int, point: str, kind: str, *,
               max_hit: int = 3, name: str = "",
               match: Optional[Dict[str, object]] = None) -> "FaultPlan":
        """One-rule plan whose trigger hit is drawn deterministically
        from ``seed`` — the unit of the ``repro chaos`` matrix."""
        rng = random.Random((seed, point, kind).__repr__())
        rule = FaultRule(point=point, kind=kind,
                         at=rng.randint(1, max(1, max_hit)), match=match)
        return cls(rules=[rule], seed=seed,
                   name=name or f"{kind}@{point}")


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired (the injector's audit log entry)."""

    point: str
    kind: str
    hit: int
    context: Tuple[Tuple[str, object], ...]


class FaultInjector:
    """Matches fault points against an armed :class:`FaultPlan`.

    Thread-safe: fault points may be hit from several threads of one
    process at once.  Hit counters are per point.
    """

    def __init__(self, plan: FaultPlan,
                 on_fire: Optional[Callable[[FiredFault], None]] = None
                 ) -> None:
        self.plan = plan
        self.on_fire = on_fire
        self.hits: Dict[str, int] = {}
        self.fired: List[FiredFault] = []
        self._lock = threading.Lock()

    def check(self, point: str, **context) -> Optional[FaultRule]:
        """Count one hit of ``point``; return the rule that fires, if any.

        ``enospc``/``eio`` rules raise the mapped ``OSError`` directly —
        the caller exercises its real error path, not a simulation of it.
        """
        with self._lock:
            hit = self.hits.get(point, 0) + 1
            self.hits[point] = hit
            rule = self._match(point, hit, context)
            if rule is None:
                return None
            fired = FiredFault(point=point, kind=rule.kind, hit=hit,
                               context=tuple(sorted(context.items())))
            self.fired.append(fired)
        if self.on_fire is not None:
            try:
                self.on_fire(fired)
            except Exception:
                pass  # telemetry must never mask the fault itself
        if rule.kind == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                          str(context.get("path", point)))
        if rule.kind == "eio":
            raise OSError(errno.EIO, os.strerror(errno.EIO),
                          str(context.get("path", point)))
        return rule

    def _match(self, point: str, hit: int,
               context: dict) -> Optional[FaultRule]:
        for rule in self.plan.rules:
            if not fnmatch.fnmatchcase(point, rule.point):
                continue
            if not rule.at <= hit < rule.at + rule.times:
                continue
            if rule.match and any(context.get(k) != v
                                  for k, v in rule.match.items()):
                continue
            return rule
        return None


class WriteRecorder:
    """Captures the physical write-op sequence of the atomic writers.

    The crash-consistency torture suite installs one of these, runs a
    real checkpointed search, then replays every prefix of the recorded
    sequence through a simulated disk to enumerate post-crash states
    (see :mod:`repro.chaos.torture`).

    Ops: ``("write", tmp, payload_bytes)``, ``("fsync", tmp)``,
    ``("replace", tmp, path)``, ``("fsync_dir", dir)``,
    ``("unlink", path)``, ``("link", src, dst)``.
    """

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self._lock = threading.Lock()

    def record(self, *op) -> None:
        with self._lock:
            self.ops.append(op)


# ----------------------------------------------------------------------
# The process-global plane.  ``fault_at`` / ``record_op`` are the two
# hooks instrumented code calls; both are no-ops (one ``is None`` branch)
# until ``install`` arms them.
# ----------------------------------------------------------------------

_injector: Optional[FaultInjector] = None
_recorder: Optional[WriteRecorder] = None


def install(plan: FaultPlan, *, observer=None) -> FaultInjector:
    """Arm ``plan`` process-wide; returns the injector (its ``fired``
    log is the harness's audit trail).  ``observer`` receives one
    ``fault.injected`` event per firing."""
    global _injector
    on_fire = None
    if observer is not None:
        def on_fire(fired: FiredFault, _obs=observer) -> None:
            _obs.fault_injected(fired.point, fired.kind, fired.hit)
    _injector = FaultInjector(plan, on_fire=on_fire)
    return _injector


def uninstall() -> None:
    global _injector
    _injector = None


def active() -> Optional[FaultInjector]:
    return _injector


def fault_at(point: str, **context) -> Optional[FaultRule]:
    """The fault point hook: one global ``is None`` branch when idle."""
    if _injector is None:
        return None
    return _injector.check(point, **context)


def install_recorder(recorder: Optional[WriteRecorder] = None
                     ) -> WriteRecorder:
    global _recorder
    _recorder = recorder if recorder is not None else WriteRecorder()
    return _recorder


def uninstall_recorder() -> None:
    global _recorder
    _recorder = None


def record_op(*op) -> None:
    if _recorder is not None:
        _recorder.record(*op)


class fault_plan:
    """``with fault_plan(plan) as injector:`` — scoped install."""

    def __init__(self, plan: FaultPlan, *, observer=None) -> None:
        self._plan = plan
        self._observer = observer

    def __enter__(self) -> FaultInjector:
        return install(self._plan, observer=self._observer)

    def __exit__(self, *exc_info) -> None:
        uninstall()
