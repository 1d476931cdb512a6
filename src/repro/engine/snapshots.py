"""Prefix-snapshot caching for the exploration hot path.

Stateless search pays for its statelessness on every backtrack: the next
execution shares a long decision prefix with the previous one, and the
engine re-executes that prefix from step 0 just to get back to the
frontier.  For a deterministic runtime that replay is pure overhead —
the prefix state is a function of the decision sequence alone — so the
engine can *snapshot* its bookkeeping at the branch points of an
execution, the states with more than one thread option, and later
fast-forward a fresh instance through the recorded prefix without
paying for the policy computation, chooser, trace recording, coverage
hashing or observer hooks of the full loop.  A DFS backtrack always
bumps a branch point, so it resumes exactly where it branched.

A :class:`PrefixSnapshot` is a **replay-log snapshot**: it does not
capture Python generator frames (CPython cannot copy them, and thread
bodies close over shared objects), it captures everything *around* the
program instance — the recorded :class:`~repro.engine.results.Decision`
prefix, the scheduling policy's persistent state, the executor's
counters and trace tail, and (when coverage is on) the prefix's state
signatures.  Restoring one instantiates the program afresh and drives
it through the recorded transitions with ``fast_forward`` (implemented
by both :class:`~repro.runtime.vm.VirtualMachine` and
:class:`~repro.runtime.native.NativeInstance`), which skips every
engine-side cost of the prefix.  The result is bit-for-bit identical to
a full replay: same decisions, same coverage totals, same policy state,
same trace tail.

A capture is O(1) in the prefix length.  The decision, trace and
signature lists of an execution only ever grow, and nothing mutates
them after the run, so a snapshot holds them *by reference* with a
count.  Policy state is captured through the persistent-snapshot
protocol (:meth:`~repro.core.policies.SchedulingPolicy.snapshot_state`
/ ``restore_state``): built-in policies store their mutable state as
immutable frozensets replaced copy-on-write, so a capture is one flat
tuple whose values are *shared* — O(threads), not O(state).

Applicability is gated by the ``supports_snapshot`` capability flag on
the program (True for :class:`~repro.runtime.program.VMProgram` and
:class:`~repro.runtime.native.NativeProgram`; any program without the
flag transparently falls back to full replay).

The cache is one stack of snapshots along the most recent execution's
path.  Every snapshot on it is a prefix of the one above it, so a lookup
pops the entries that are not a prefix of the new guide and returns the
top: after the pops, the top is the deepest cached prefix.  DFS-ordered
strategies (DFS, sleep-set POR, each ICB sweep, each parallel prefix
shard) visit guides in lexicographic order, so a popped entry could
never have matched a later guide.  BFS is lexicographic only within a
level, so it gives up entries a deeper level could have used.  See
``docs/performance.md``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence

from repro.core.model import StepInfo
from repro.engine.results import Decision

#: ``Decision.index`` as a C-level getter, for extending the index path.
_INDEX = itemgetter(1)


class PrefixSnapshot(NamedTuple):
    """Engine state at one prefix of one execution (see module docstring)."""

    #: The capturing execution's decision list, shared by reference;
    #: ``decisions[:count]`` is this snapshot's prefix.
    decisions: List[Decision]
    count: int
    #: Transitions executed in the prefix.
    steps: int
    #: The policy's ``snapshot_state()`` value at the snapshot point —
    #: a persistent, structurally shared value (None is legal: the
    #: nonfair policy is stateless).
    policy_state: object
    preemptions: int
    yields: int
    last_tid: object
    last_was_yield: bool
    #: The capturing execution's trace list, shared by reference
    #: (``trace[:steps]`` are the prefix's steps).
    trace: List[StepInfo]
    #: The capturing execution's state-signature list, shared by
    #: reference (``signatures[:steps]`` are the prefix states); None
    #: without coverage tracking.
    signatures: Optional[List[object]]
    #: The execution's reducer state (the sleep set under sleep-set POR;
    #: None without a reducer).
    reducer_state: object
    #: The capturing execution's list of the steps it preempted at,
    #: shared by reference (the first ``preemptions`` are the prefix's).
    preemption_steps: Sequence[int]


class PrefixSnapshotCache:
    """A stack of :class:`PrefixSnapshot` entries along one path.

    One cache belongs to one strategy (or one ICB sweep, or one parallel
    shard) — entries are only valid under the exact executor
    configuration they were captured with, so caches are never shared
    across configurations.

    Beside the stack the cache keeps the decision indices of the path
    the entries lie on, filled in lazily up to the entry being tested,
    so testing an entry against a guide is one slice comparison.
    """

    def __init__(self, interval: int) -> None:
        if interval < 1:
            raise ValueError("snapshot interval must be positive")
        self.interval = interval
        self._stack: List[PrefixSnapshot] = []
        self._path: List[int] = []
        self.hits = 0
        self.misses = 0
        self.failures = 0

    @classmethod
    def from_config(cls, config, program) -> Optional["PrefixSnapshotCache"]:
        """Build a cache for one strategy, or None when inapplicable.

        Returns None unless the config asks for snapshotting *and* the
        program declares the ``supports_snapshot`` capability (a program
        without it silently falls back to full replay, as documented).
        """
        if config is None or not config.snapshot_cache:
            return None
        if not getattr(program, "supports_snapshot", False):
            return None
        return cls(interval=config.snapshot_interval)

    def __len__(self) -> int:
        return len(self._stack)

    def lookup(self, guide: Sequence[int]) -> Optional[PrefixSnapshot]:
        """The deepest cached snapshot whose decisions are a prefix of
        ``guide``; every entry that is not such a prefix is dropped."""
        if type(guide) is not list:
            guide = list(guide)
        stack = self._stack
        path = self._path
        limit = len(guide)
        while stack:
            top = stack[-1]
            count = top.count
            if count <= limit:
                known = len(path)
                if known < count:
                    path.extend(map(_INDEX, top.decisions[known:count]))
                if guide[:count] == path[:count]:
                    # Entries captured from here on extend this prefix.
                    del path[count:]
                    self.hits += 1
                    return top
            stack.pop()
        path.clear()
        self.misses += 1
        return None

    def capture(self, decisions: List[Decision], steps: int, policy,
                preemptions: int, yields: int, last_tid: object,
                last_was_yield: bool, trace: List[StepInfo],
                signatures: Optional[List[object]],
                reducer_state: object,
                preemption_steps: Sequence[int] = ()) -> None:
        """Push a snapshot of the current executor state.

        ``decisions``, ``trace``, ``signatures`` and ``preemption_steps``
        are the live execution's lists, kept by reference: the caller
        only ever appends to them.  The executor captures only along the
        execution that the latest :meth:`lookup` started, so the stack
        stays one path.
        """
        self._stack.append(PrefixSnapshot(
            decisions, len(decisions), steps, policy.snapshot_state(),
            preemptions, yields, last_tid, last_was_yield, trace,
            signatures, reducer_state, preemption_steps))

    def clear(self, *, failure: bool = False) -> None:
        """Drop everything (after a failed fast-forward the program broke
        the determinism contract, so no cached prefix can be trusted)."""
        if failure:
            self.failures += 1
        self._stack.clear()
        self._path.clear()
