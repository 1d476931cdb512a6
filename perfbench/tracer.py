"""Layer tracing from outside the program: spans and counts at entry points.

The tracer wraps the functions and methods where the checker crosses from
one layer into the next.  Each wrapped call records a span (name, start,
end, parent) in flat in-memory arrays; cheap predicates such as
``VirtualMachine.is_enabled`` are only counted.  Nothing is written while
the search runs: :meth:`Tracer.write` dumps the spans when it is over and
:meth:`Tracer.report` derives every per-layer metric from them.

A layer's *self* time is its spans' durations minus the parts covered by
their child spans.  The benchmark wraps ``Checker.run()`` itself in a root
``search`` span, so the self times of all spans add up to the traced
search's wall time exactly; what the layers account for is that total
minus the root's own residue.

Most hooks are public entry points.  The DPOR hooks are private names
(``_run_once_dpor``, ``_races``, ``_pending_races``, ``_queue_wakeup``)
because DPOR runs its own execution loop; a hook whose target no longer
exists is reported by :attr:`Tracer.missing` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Per-layer metrics, in report order: (layer, name, unit).
METRICS = (
    ("runtime.vm", "vm.step.calls", "count"),
    ("runtime.vm", "vm.step.self_s", "s"),
    ("runtime.vm", "vm.enabled_threads.per_transition", "calls/transition"),
    ("runtime.vm", "vm.is_enabled.per_transition", "calls/transition"),
    ("runtime.vm", "vm.instantiate.calls", "count"),
    ("runtime.vm", "vm.instantiate.s", "s"),
    ("core.policies", "policy.schedulable.calls", "count"),
    ("core.policies", "policy.schedulable.s", "s"),
    ("core.policies", "policy.observe_step.s", "s"),
    ("core.policies", "policy.snapshot_state.s", "s"),
    ("core.policies", "policy.restore_state.s", "s"),
    ("engine.executor", "executor.executions", "count"),
    ("engine.executor", "executor.transitions", "count"),
    ("engine.executor", "executor.self_s", "s"),
    ("engine.executor", "executor.replayed_steps", "count"),
    ("engine.strategies", "strategy.self_s", "s"),
    ("engine.strategies", "dpor.races", "count"),
    ("engine.strategies", "dpor.wakeups", "count"),
    ("engine.strategies", "dpor.useful_ratio", "ratio"),
    ("engine.snapshots", "snapshot.lookup.s", "s"),
    ("engine.snapshots", "snapshot.capture.s", "s"),
    ("engine.snapshots", "vm.fast_forward.s", "s"),
    ("engine.snapshots", "snapshot.hit_ratio", "ratio"),
    ("engine.snapshots", "snapshot.restored_steps", "count"),
    ("engine.classify", "classify.calls", "count"),
    ("engine.classify", "classify.s", "s"),
    ("set-up", "setup.import_s", "s"),
    ("set-up", "setup.build_s", "s"),
    ("tracing", "trace.coverage_ratio", "ratio"),
    ("tracing", "trace.overhead_ratio", "ratio"),
)

#: Share of the traced search's wall time the layers must account for.
COVERAGE_FLOOR = 0.90

ROOT = "search"


class Tracer:
    """Install wrappers, record spans and counts, derive the metrics."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, int] = {}
        #: Transitions restored by the latest fast-forward, charged to
        #: the execution that called it.
        self._last_restore = 0
        self._undo: List[tuple] = []
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span called ``name``;
        ``after(args, result)`` sees every call that returned."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name.append, self.span_parent.append
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is counted under ``key``."""
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def hook_method(self, cls_path: str, attr: str,
                    make: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` of the class at ``module:Class``."""
        module, _, name = cls_path.partition(":")
        cls = getattr(importlib.import_module(module), name, None)
        if cls is None or attr not in vars(cls):
            self.missing.append(f"{cls_path}.{attr}")
            return
        self._patch(cls, attr, make)

    def hook_function(self, module: str, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        """Hook every layer boundary the per-layer metrics need."""
        m = self.hook_method
        m("repro.engine.strategies.base:SearchStrategy", "explore",
          lambda fn: self.span("strategy", fn))
        self.hook_function(
            "repro.engine.executor", "run_execution",
            lambda fn: self.span("executor", fn, self._after_execution))
        self.hook_function(
            "repro.engine.strategies.dpor", "_run_once_dpor",
            lambda fn: self.span("executor", fn, self._after_dpor_execution))
        m("repro.runtime.program:VMProgram", "instantiate",
          lambda fn: self.span("vm.instantiate", fn))
        m("repro.runtime.vm:VirtualMachine", "step",
          lambda fn: self.span("vm.step", fn))
        m("repro.runtime.vm:VirtualMachine", "enabled_threads",
          lambda fn: self.counter("vm.enabled_threads", fn))
        m("repro.runtime.vm:VirtualMachine", "is_enabled",
          lambda fn: self.counter("vm.is_enabled", fn))
        m("repro.runtime.vm:VirtualMachine", "fast_forward",
          lambda fn: self.span("vm.fast_forward", fn, self._after_restore))
        policies = importlib.import_module("repro.core.policies")
        for cls_name in ("SchedulingPolicy", "NonfairPolicy", "FairPolicy",
                         "RoundRobinPolicy"):
            cls = getattr(policies, cls_name, None)
            for attr in ("schedulable", "observe_step", "snapshot_state",
                         "restore_state"):
                if cls is not None and attr in vars(cls):
                    self._patch(cls, attr, lambda fn, a=attr: self.span(
                        f"policy.{a}", fn))
        m("repro.engine.snapshots:PrefixSnapshotCache", "lookup",
          lambda fn: self.span("snapshot.lookup", fn, self._after_lookup))
        m("repro.engine.snapshots:PrefixSnapshotCache", "capture",
          lambda fn: self.span("snapshot.capture", fn))
        self.hook_function("repro.engine.classify", "classify_divergence",
                           lambda fn: self.span("classify", fn))
        dpor = "repro.engine.strategies.dpor"
        self.hook_function(dpor, "_races", lambda fn: self.span(
            "dpor.races", fn, lambda a, r: self._bump("dpor.races", len(r))))
        self.hook_function(dpor, "_pending_races", lambda fn: self.span(
            "dpor.races", fn, lambda a, r: self._bump("dpor.races", int(bool(r)))))
        m(f"{dpor}:DporStrategy", "_queue_wakeup", lambda fn: self.span(
            "dpor.wakeups", fn,
            lambda a, r: self._bump("dpor.wakeups", int(r == "inserted"))))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # per-call bookkeeping
    # ------------------------------------------------------------------
    def _after_execution(self, args, result) -> None:
        self._bump("executor.executions")
        self._bump("executor.transitions", result.steps)
        # Prefix transitions re-executed through the loop: the thread
        # decisions the chooser's guide forced, minus those a snapshot
        # fast-forward restored instead.
        guide = getattr(args[2], "guide", None) if len(args) > 2 else None
        limit = min(len(guide or ()), len(result.decisions))
        replayed = sum(1 for d in result.decisions[:limit] if d.kind == "thread")
        self._bump("executor.replayed_steps", max(0, replayed - self._last_restore))
        self._last_restore = 0

    def _after_dpor_execution(self, args, value) -> None:
        result, _meta = value
        self._bump("executor.executions")
        self._bump("executor.transitions", result.steps)
        # The stack part of the forced schedule replays the path that
        # produced it; the wakeup tail beyond it is new.
        dones = args[3] if len(args) > 3 else ()
        self._bump("executor.replayed_steps", min(len(dones), result.steps))
        self._bump("dpor.executions")
        if result.outcome.name != "VISITED_PRUNED":
            self._bump("dpor.useful")

    def _after_restore(self, args, executed) -> None:
        self._bump("snapshot.restored_steps", executed)
        self._last_restore = executed

    def _after_lookup(self, args, entry) -> None:
        self._bump("snapshot.lookups")
        if entry is not None:
            self._bump("snapshot.hits")

    # ------------------------------------------------------------------
    # root span and results
    # ------------------------------------------------------------------
    def run_root(self, fn: Callable):
        """Run ``fn`` inside the root span; returns (result, wall seconds)."""
        root = self.span(ROOT, fn)
        t0 = perf_counter()
        result = root()
        return result, perf_counter() - t0

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        totals = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(ends)):
            duration = ends[i] - starts[i]
            totals[names[i]] += duration
            parent = parents[i]
            if parent >= 0:
                totals[names[parent]] -= duration
        return dict(zip(self.names, totals))

    def inclusive_times(self) -> Dict[str, float]:
        """Total time per span name, counting a nested call once."""
        totals = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(ends)):
            nid = names[i]
            calls[nid] += 1
            parent = parents[i]
            while parent >= 0 and names[parent] != nid:
                parent = parents[parent]
            if parent < 0:
                totals[nid] += ends[i] - starts[i]
        return {n: (totals[i], calls[i]) for i, n in enumerate(self.names)}

    def report(self, *, transitions: int, search_s: float,
               setup: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric of :data:`METRICS` but
        ``trace.overhead_ratio``, which needs untraced searches, by name."""
        own = self.self_times()
        total = self.inclusive_times()
        c = self.counts.get

        def secs(name: str) -> float:
            return total.get(name, (0.0, 0))[0]

        def calls(name: str) -> int:
            return total.get(name, (0.0, 0))[1]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layers = sum(v for k, v in own.items() if k != ROOT)
        values = {
            "vm.step.calls": calls("vm.step"),
            "vm.step.self_s": own.get("vm.step", 0.0),
            "vm.enabled_threads.per_transition":
                ratio(c("vm.enabled_threads", 0), transitions),
            "vm.is_enabled.per_transition":
                ratio(c("vm.is_enabled", 0), transitions),
            "vm.instantiate.calls": calls("vm.instantiate"),
            "vm.instantiate.s": secs("vm.instantiate"),
            "policy.schedulable.calls": calls("policy.schedulable"),
            "policy.schedulable.s": secs("policy.schedulable"),
            "policy.observe_step.s": secs("policy.observe_step"),
            "policy.snapshot_state.s": secs("policy.snapshot_state"),
            "policy.restore_state.s": secs("policy.restore_state"),
            "executor.executions": c("executor.executions", 0),
            "executor.transitions": c("executor.transitions", 0),
            "executor.self_s": own.get("executor", 0.0),
            "executor.replayed_steps": c("executor.replayed_steps", 0),
            "strategy.self_s": own.get("strategy", 0.0),
            "dpor.races": c("dpor.races", 0),
            "dpor.wakeups": c("dpor.wakeups", 0),
            "dpor.useful_ratio":
                ratio(c("dpor.useful", 0), c("dpor.executions", 0)),
            "snapshot.lookup.s": secs("snapshot.lookup"),
            "snapshot.capture.s": secs("snapshot.capture"),
            "vm.fast_forward.s": secs("vm.fast_forward"),
            "snapshot.hit_ratio":
                ratio(c("snapshot.hits", 0), c("snapshot.lookups", 0)),
            "snapshot.restored_steps": c("snapshot.restored_steps", 0),
            "classify.calls": calls("classify"),
            "classify.s": secs("classify"),
            "setup.import_s": setup["import_s"],
            "setup.build_s": setup["build_s"],
            "trace.coverage_ratio": ratio(layers, search_s),
        }
        return values

    def write(self, path) -> None:
        """Dump the spans: a JSON header line, then the four arrays raw."""
        header = {
            "names": self.names,
            "count": len(self.span_end),
            "arrays": [["name", "i", self.span_name.itemsize],
                       ["parent", "i", self.span_parent.itemsize],
                       ["start", "d", 8], ["end", "d", 8]],
            "byteorder": sys.byteorder,
            "counts": self.counts,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(out)


def read_spans(path) -> dict:
    """Load a file written by :meth:`Tracer.write` (for offline analysis)."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        arrays = {}
        for name, code, _size in header["arrays"]:
            arr = array(code)
            arr.fromfile(src, header["count"])
            arrays[name] = arr
    header["spans"] = arrays
    return header
