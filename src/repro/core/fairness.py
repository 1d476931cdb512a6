"""Algorithm 1 of the paper: the fair, demonic scheduler state machine.

The scheduler maintains, per state, the priority relation ``P`` plus three
auxiliary per-thread predicates describing the current *window* of each
thread (a window of ``t`` spans from just after one yielding transition of
``t`` to just after the next):

* ``S(t)`` — threads scheduled since the last yield of ``t``;
* ``E(t)`` — threads continuously enabled since the last yield of ``t``;
* ``D(t)`` — threads disabled by some transition of ``t`` in the window.

On a yielding transition of ``t`` the scheduler computes::

    H = (E(t) ∪ D(t)) \\ S(t)

— the threads ``t`` should have given a chance to but did not — and adds
the edges ``{t} × H`` to ``P``, deprioritizing the yielding thread.
Scheduling ``t`` removes all edges with sink ``t``.

Initialization matches the paper exactly: ``E(u) = ∅`` and
``D(u) = S(u) = Tid``, which guarantees the *first* yield of any thread adds
no edges.  We represent the ``D = S = Tid`` phase with a closed-window flag
(``window_open(u)`` is False); this also generalizes soundly to dynamic
thread creation (threads created mid-execution start with a closed window,
exactly the paper's convention applied at creation time).

The class is deliberately independent of any particular program
representation: callers feed it the observations of each transition
(:class:`repro.core.model.StepInfo`) and ask it for the schedulable set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

from repro.core.model import StepInfo
from repro.core.priority import PriorityRelation

Tid = Hashable

_EMPTY: FrozenSet = frozenset()


class FairSchedulerState:
    """Mutable state of Algorithm 1 for one execution.

    Each thread owns a slot, its index in the per-thread lists of the
    window sets ``E``/``D``/``S`` and the window flags.  The window sets
    are immutable frozensets replaced copy-on-write: an update that
    changes nothing costs a set comparison, an update that changes
    something rebinds one list slot to a fresh frozenset.  The slot map
    itself is replaced, never mutated, when a thread registers.  That
    layout makes :meth:`snapshot_state` one flat tuple whose values are
    *shared* between the live state and every snapshot — the structural
    sharing behind the engine's O(threads) prefix-snapshot capture
    (docs/performance.md).
    """

    __slots__ = ("priority", "_slot", "_E", "_D", "_S", "_window_open",
                 "_check_acyclic")

    def __init__(
        self,
        threads: Iterable[Tid] = (),
        *,
        check_acyclic: bool = False,
    ) -> None:
        self.priority = PriorityRelation()
        self._slot: Dict[Tid, int] = {}
        self._E: List[FrozenSet[Tid]] = []
        self._D: List[FrozenSet[Tid]] = []
        self._S: List[FrozenSet[Tid]] = []
        self._window_open: List[bool] = []
        self._check_acyclic = check_acyclic
        for t in threads:
            self.register_thread(t)

    # ------------------------------------------------------------------
    def register_thread(self, t: Tid) -> None:
        """Install the paper's initial values for a (possibly new) thread."""
        if t in self._slot:
            return
        self._slot = {**self._slot, t: len(self._slot)}
        self._E.append(_EMPTY)
        self._D.append(_EMPTY)
        self._S.append(_EMPTY)
        # Closed window encodes D(t) = S(t) = Tid: the first yield of t
        # opens the window and adds no priority edges.
        self._window_open.append(False)

    def known_threads(self) -> FrozenSet[Tid]:
        return frozenset(self._slot)

    # ------------------------------------------------------------------
    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        """Line 7: ``T = ES \\ pre(P, ES)``."""
        return self.priority.schedulable(enabled)

    # ------------------------------------------------------------------
    def observe_step(self, info: StepInfo) -> None:
        """Lines 13–29 of Algorithm 1, applied after executing ``info.tid``."""
        t = info.tid
        if t not in self._slot:  # defensive: auto-register strangers
            self.register_thread(t)
        for spawned in info.spawned:
            self.register_thread(spawned)
        i = self._slot[t]

        # Line 13: next.P := curr.P \ (Tid × {t}) — drop edges with sink t.
        self.priority.remove_sink(t)

        enabled_after = info.enabled_after
        E, D, S, window_open = self._E, self._D, self._S, self._window_open

        # Lines 14–22: update E, D, S for every thread's open window.
        # Copy-on-write: a window set is replaced only when it actually
        # changes, so unchanged frozensets keep being shared with any
        # snapshots that captured them.
        for u, is_open in enumerate(window_open):
            if not is_open:
                continue  # closed window: E stays ∅, D = S = Tid implicitly
            E_u = E[u]
            if not E_u <= enabled_after:
                E[u] = E_u & enabled_after
            S_u = S[u]
            if t not in S_u:
                S[u] = S_u | {t}
        if window_open[i]:
            disabled_now = info.enabled_before - enabled_after
            if disabled_now and not disabled_now <= D[i]:
                D[i] = D[i] | disabled_now

        # Lines 23–29: yielding transition ends t's window.
        if info.yielded:
            if window_open[i]:
                # H = (E(t) ∪ D(t)) \ S(t).  Note t ∈ S(t) (line 21 above),
                # so t never deprioritizes itself and P stays acyclic
                # together with the sink-removal at line 13 (Theorem 3).
                blame = (E[i] | D[i]) - S[i]
                self.priority.add_edges(t, blame)
                if self._check_acyclic and not self.priority.is_acyclic():
                    raise AssertionError(
                        "priority relation became cyclic — Theorem 3 broken"
                    )
            else:
                window_open[i] = True
            E[i] = frozenset(enabled_after)
            D[i] = _EMPTY
            S[i] = _EMPTY

    # ------------------------------------------------------------------
    # Introspection (used by tests and the Figure 4 emulation harness).
    # ------------------------------------------------------------------
    def window_open(self, t: Tid) -> bool:
        i = self._slot.get(t)
        return i is not None and self._window_open[i]

    def continuously_enabled(self, t: Tid) -> FrozenSet[Tid]:
        """``E(t)`` (empty while the window is closed, as in the paper)."""
        i = self._slot.get(t)
        return _EMPTY if i is None else self._E[i]

    def disabled_by(self, t: Tid) -> FrozenSet[Tid]:
        """``D(t)``; ``Tid`` (all known threads) while the window is closed."""
        if not self.window_open(t):
            return self.known_threads()
        return self._D[self._slot[t]]

    def scheduled_since_yield(self, t: Tid) -> FrozenSet[Tid]:
        """``S(t)``; ``Tid`` while the window is closed."""
        if not self.window_open(t):
            return self.known_threads()
        return self._S[self._slot[t]]

    # ------------------------------------------------------------------
    # Persistent-snapshot protocol (docs/performance.md)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple:
        """Capture (P, E, D, S, windows) as one flat tuple.

        The tuple is ``(P, slots, E..., D..., S..., windows...)``: the
        priority relation's own snapshot, the shared slot map, then each
        per-thread list in slot order.  Every value is immutable and
        shared with the live state, so a capture is O(threads), copies
        no set contents, and keeps one object where a dict per
        predicate would keep five.
        """
        return (self.priority.snapshot_state(), self._slot, *self._E,
                *self._D, *self._S, *self._window_open)

    def restore_state(self, state: Tuple) -> None:
        """Adopt a :meth:`snapshot_state` value — O(threads), like capture.

        The per-thread lists are rebuilt (so the restored state can keep
        mutating copy-on-write without touching the cached entry); the
        frozenset values and the slot map are shared, never copied.
        """
        self.priority.restore_state(state[0])
        self._slot = slot = state[1]
        n = len(slot)
        self._E = list(state[2:2 + n])
        self._D = list(state[2 + n:2 + 2 * n])
        self._S = list(state[2 + 2 * n:2 + 3 * n])
        self._window_open = list(state[2 + 3 * n:])

    def snapshot(self) -> Dict[str, object]:
        """A readable dump of (P, E, D, S) for traces and the Fig. 4 test."""
        return {
            "P": sorted(self.priority.edges(), key=repr),
            "E": {t: sorted(self.continuously_enabled(t), key=repr)
                  for t in self.known_threads()},
            "D": {t: sorted(self.disabled_by(t), key=repr)
                  for t in self.known_threads()},
            "S": {t: sorted(self.scheduled_since_yield(t), key=repr)
                  for t in self.known_threads()},
        }

    def __repr__(self) -> str:
        return f"FairSchedulerState(P={self.priority!r})"
