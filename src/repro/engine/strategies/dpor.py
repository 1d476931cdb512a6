"""Source-DPOR with wakeup trees (ROADMAP item 4).

Sleep sets (:mod:`repro.engine.strategies.por`) prune *within* the
explored tree but still enumerate every branch of it; dynamic
partial-order reduction only *creates* branches where two executed
transitions actually raced.  This module implements the source-set
variant of Abdulla, Aronis, Jonsson and Sagonas ("Optimal dynamic
partial order reduction", POPL 2014) on top of the stateless engine:

* after every execution, a happens-before relation over the recorded
  steps is computed with vector clocks — two steps of different threads
  are dependent iff either declares no resource set
  (:meth:`repro.runtime.ops.Operation.resources`) or the sets intersect;
* each *race* — a happens-before-adjacent dependent pair ``(i, j)`` of
  different threads — asks for the reversal to be explored from the
  state before step ``i``; the candidate continuation is the **wakeup
  sequence** ``notdep(i) · tid(j)``: the steps between ``i`` and ``j``
  that do not depend on ``i``, followed by ``j`` itself;
* the sequence is inserted at node ``i`` only if none of its **weak
  initials** (threads whose first step in the sequence has no dependent
  predecessor inside it) is already asleep, already explored, or already
  queued there — the wakeup-tree guard that keeps the search from
  re-running sleep-set-blocked permutations;
* sleep sets still ride along every execution, so a branch whose entire
  schedulable set is asleep stops immediately (``VISITED_PRUNED``).

The analysis costs what each execution adds, not its length squared.
Every step touching a resource depends on every other such step, so
those steps form a happens-before chain, as do the steps of unknown
footprint.  A step's immediate predecessors are thus among its thread's
previous step, the last step on each resource of its footprint and the
last step of unknown footprint (for an unknown footprint, the last step
of each thread): its clock is their join, and its races are those of
other threads no other candidate's clock covers.  An execution replays
all but the last stack node from the previous one verbatim, so the
clocks of that prefix are kept (recomputed once after a resume), only
races whose later step lies past it are detected (one inside it was
detected when its later step first ran), and the reducer hook skips
sleep-set settling on it.

Fairness composition: backtrack points are chosen among what the
*policy* deems schedulable at the insertion node, never the raw enabled
set.  A thread the fair scheduler blocks (its priority is lower and it
yielded) is not a valid race partner *at that node* — scheduling it
would diverge from any schedule the fair search can produce.  When the
preferred initial of a wakeup sequence is fairness-blocked, another weak
initial (which commutes to the front) is used; when none is schedulable
the insertion is skipped and counted (``dpor.fairness_skipped``) — the
reversal is not lost, it reappears at a node where the thread is
schedulable, exactly like the paper's fair scheduler re-enables
low-priority threads once the spinning thread yields control.

Every execution runs through :func:`~repro.engine.executor.run_execution`
with the :class:`DporRun` reducer hook, which forces the backtrack
schedule — a list of *thread ids*, not decision indices — and records
the per-step metadata the race analysis reads.  Recorded
:class:`~repro.engine.results.Decision` entries still index into the full
sorted schedulable set, so a DPOR record replays with the ordinary
``replay_schedule``/``Checker.replay`` machinery.  Wakeup sequences name
threads only, so a program that branches on ``choose()`` is refused with
an explicit error rather than explored partially.

The prefix-snapshot cache is deliberately declined: race detection needs
the resource footprint of *every* step, and resource sets are
``id()``-based — only valid within one program instance.  A restored
prefix re-executes on a fresh instance (`snapshots.py`), so footprints
recorded before the restore could neither be trusted nor recovered.
Correctness first; the cache keeps accelerating the enumerative
strategies.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig, run_execution, sorted_options
from repro.engine.results import ExecutionResult, Outcome
from repro.engine.strategies.base import ExplorationLimits, SearchStrategy
from repro.engine.strategies.por import (
    Resources,
    SleepSets,
    dependent,
    footprint,
    reducer_config,
)
from repro.runtime.errors import UnsupportedConfiguration

#: Outcomes whose still-pending operations join the race analysis: the
#: execution ended at a final state, at a sleep-set block, or cut short
#: by a failure (a depth bound or an abort analyzes nothing beyond it).
_PENDING_ANALYZED = frozenset({
    Outcome.TERMINATED, Outcome.DEADLOCK, Outcome.VISITED_PRUNED,
    Outcome.VIOLATION, Outcome.CRASHED,
})


def _alive_pending(instance) -> List[Tuple]:
    """``(tid, resources)`` of every thread that has not finished."""
    out: List[Tuple] = []
    tasks = getattr(instance, "task", None)
    if tasks is not None:
        for tid in sorted_options(instance.thread_ids()):
            task = tasks(tid)
            if not task.done and task.pending is not None:
                out.append((tid, task.pending.resources()))
        return out
    live = getattr(instance, "live_threads", None)
    if live is None:
        return out
    getter = getattr(instance, "pending_resources", None)
    for tid in sorted_options(live()):
        out.append((tid, getter(tid) if getter is not None else None))
    return out


class DporRun(SleepSets):
    """The source-DPOR reducer hook of one execution.

    The option filter forces the current stack's choices and then the
    wakeup tail (a list of thread ids), falling back to the first awake
    schedulable thread; ``done`` — the siblings already explored at a
    stack node — joins the sleep set entering that node, like
    ``available[:index]`` in the sleep-set walk.  The step observer
    records every step's thread, footprint and enabled set, a new stack
    node for every step past the stack, and :meth:`finish` the
    operations still pending at the end: the per-step metadata the race
    analysis reads.

    Every stack node but the last replays the previous execution
    verbatim (:attr:`replayed` steps); there the filter only records,
    because their sleep sets were settled when they first ran.  With
    ``replayed`` at 0 it settles them again, and the analysis redoes the
    whole trace.

    Recorded decisions index the full sorted schedulable set, so a DPOR
    record replays through the ordinary guided replay; the guide this
    chooser reports is the stack part of that, replayed verbatim.
    """

    def __init__(self, stack: Sequence[dict], tail: Sequence, *,
                 observer=None,
                 on_final_state: Optional[Callable] = None) -> None:
        super().__init__()
        self._stack = stack
        self._tail = list(tail)
        self._observer = observer
        self._on_final_state = on_final_state
        self._index = 0
        #: Steps replayed verbatim from the previous execution.
        self.replayed = max(len(stack) - 1, 0)
        self.tids: List = []
        self.resources: List[Resources] = []
        #: Raw enabled set at each step — distinguishes a race partner the
        #: fair policy blocked from one the program itself disabled.
        self.enableds: List[frozenset] = []
        #: The stack node of each step past the stack: its choice, the
        #: sleep set entering it and its sorted policy-schedulable set.
        self.nodes: List[dict] = []
        #: ``(tid, resources)`` of threads still alive at the end of the
        #: execution — blocked at a deadlock/terminal state, or cut short
        #: by a violation.  Their pending operations never executed, so
        #: the executed-pair race analysis cannot see them; they race
        #: like FG-DPOR's next-transitions instead.
        self.final_pending: List[Tuple] = []

    @property
    def guide(self) -> Sequence[int]:
        """The decision indices of the stack part, replayed verbatim."""
        return tuple(node["schedulable"].index(node["choice"])
                     for node in self._stack)

    def filter(self, instance, options: List, enabled) -> List:
        k = len(self.tids)
        stack = self._stack
        if k < len(stack):
            # A stack node replays the exact path that produced it; the
            # chosen thread must still be schedulable there.
            tid = stack[k]["choice"]
            if tid not in options:
                raise ValueError("dpor replay diverged from its stack")
        if k < self.replayed:
            # Replayed verbatim: these steps' sleep sets were settled
            # when they first ran, so only the analysis inputs are kept.
            executed = footprint(instance, tid)
        else:
            self._instance = instance
            if self._step is not None:
                self._settle()
            elif k < len(stack):
                # The first step past the replayed prefix: its stack
                # node stores the sleep set it inherits.
                self.sleep = set(stack[k]["inherited"])
            sleep = self.sleep
            if k < len(stack):
                sleep = sleep.union(stack[k]["done"])
            else:
                tail, pos = self._tail, k - len(stack)
                tid = tail[pos] if pos < len(tail) else None
                if tid is not None and tid not in options:
                    # Wakeup tail made infeasible by the policy (fairness
                    # priorities shifted): abandon the rest of the forced
                    # suffix and fall back to the default extension.
                    del tail[pos:]
                    tid = None
                    if self._observer is not None:
                        self._observer.dpor_wakeup_abandoned()
                if tid is None:
                    for tid in options:
                        if tid not in sleep:
                            break
                    else:
                        # Everything schedulable is asleep: this branch
                        # only permutes independent transitions of an
                        # explored execution.  Its *blocked pending*
                        # operations are new information though (see
                        # :meth:`finish`).
                        if self._observer is not None:
                            self._observer.dpor_sleep_blocked()
                        return []
                self.nodes.append({"choice": tid,
                                   "inherited": sorted_options(sleep),
                                   "done": [], "wakeups": [],
                                   "schedulable": options})
            executed = footprint(instance, tid)
            self._step = (tid, executed, sleep)
        self.tids.append(tid)
        self.resources.append(executed)
        self.enableds.append(enabled)
        self._index = options.index(tid)
        return options

    def pick(self, kind: str, options: int) -> int:
        if kind == "thread":
            return self._index
        if options == 1:
            return 0
        raise UnsupportedConfiguration(
            "strategy 'dpor' cannot branch on choose() data decisions: "
            "its wakeup sequences name threads, not data values "
            "(use dfs or por instead)")

    def finish(self, instance, outcome) -> None:
        super().finish(instance, outcome)
        # Threads still alive never executed their pending operation; it
        # must race like an executed step would.  After a sleep-set block
        # this matters most: the equivalent explored execution reached
        # this configuration mid-run (where pending operations are never
        # analyzed) or with different guard values, so a race against a
        # never-executed transition can be visible here and nowhere
        # else; the insertion guards drop the redundant ones.  Explicit
        # systems report no-enabled as TERMINATED even when threads are
        # merely blocked, hence every final outcome collects.
        if outcome in _PENDING_ANALYZED:
            self.final_pending = _alive_pending(instance)
        if (self._on_final_state is not None
                and outcome in (Outcome.TERMINATED, Outcome.DEADLOCK)):
            self._on_final_state(instance, outcome)


# ----------------------------------------------------------------------
# happens-before / race analysis
# ----------------------------------------------------------------------
class _LastSteps:
    """The last step of each thread, on each resource and of unknown
    footprint, in a forward pass over the first ``stop`` steps."""

    __slots__ = ("thread", "resource", "unknown")

    def __init__(self, tids: Sequence, resources: Sequence[Resources],
                 stop: int) -> None:
        self.thread: Dict = {}
        self.resource: Dict = {}
        self.unknown: Optional[int] = None
        for k in range(stop):
            self.add(k, tids[k], resources[k])

    def add(self, k: int, tid, res: Resources) -> None:
        self.thread[tid] = k
        if res is None:
            self.unknown = k
        else:
            for r in res:
                self.resource[r] = k

    def candidates(self, tid, res: Resources) -> Set[int]:
        """The steps that can immediately precede, in happens-before, a
        next step of ``tid`` with footprint ``res``."""
        if res is None:
            return set(self.thread.values())
        last = self.resource
        found = {last[r] for r in res if r in last}
        if self.unknown is not None:
            found.add(self.unknown)
        if tid in self.thread:
            found.add(self.thread[tid])
        return found


def _adjacent(tids: Sequence, clocks: Sequence[Dict], candidates: Set[int],
              tid) -> List[int]:
    """The candidates of threads other than ``tid`` that no other
    candidate's clock covers — the happens-before-adjacent dependent
    predecessors of the step — latest first."""
    found: List[int] = []
    for i in sorted(candidates, reverse=True):
        t = tids[i]
        if t == tid:
            continue
        for k in candidates:
            if k != i and clocks[k].get(t, -1) >= i:
                break
        else:
            found.append(i)
    return found


def _vector_clocks(tids: Sequence, resources: Sequence[Resources],
                   clocks: Optional[List[Dict]] = None) -> List[Dict]:
    """clocks[j][t] = last step index of thread ``t`` happening before
    (or equal to) step ``j``; -1/absent when none does.

    ``clocks``, the clocks of a prefix of the trace, is extended in place.
    """
    clocks = [] if clocks is None else clocks
    _races(tids, resources, clocks, len(tids))
    return clocks


def _races(tids: Sequence, resources: Sequence[Resources],
           clocks: List[Dict], start: int = 0) -> List[Tuple[int, int]]:
    """Happens-before-adjacent dependent pairs ``(i, j)`` of different
    threads with ``j >= start``, by ``j`` and then latest ``i`` first.

    ``clocks`` holds the clocks of a prefix of the trace; the clocks of
    the steps after it are computed on the way and appended.
    """
    races: List[Tuple[int, int]] = []
    first = min(start, len(clocks))
    last = _LastSteps(tids, resources, first)
    for j in range(first, len(tids)):
        tid, res = tids[j], resources[j]
        candidates = last.candidates(tid, res)
        if j == len(clocks):
            clock: Dict = {}
            for k in candidates:
                for t, v in clocks[k].items():
                    if clock.get(t, -1) < v:
                        clock[t] = v
            clock[tid] = j
            clocks.append(clock)
        if j >= start:
            for i in _adjacent(tids, clocks, candidates, tid):
                races.append((i, j))
        last.add(j, tid, res)
    return races


def _weak_initials(seq_tids: Sequence, seq_res: Sequence[Resources]) -> List:
    """Threads whose first step in the sequence has no dependent
    predecessor inside it — they commute to the front."""
    initials: List = []
    seen: Set = set()
    for pos, tid in enumerate(seq_tids):
        if tid in seen:
            continue
        seen.add(tid)
        if not any(dependent(seq_res[h], seq_res[pos])
                   for h in range(pos)):
            initials.append(tid)
    return initials


def _wakeup_sequence(i: int, j: int, tids: Sequence,
                     resources: Sequence[Resources],
                     clocks: Sequence[Dict]) -> Tuple[List[int], List]:
    """``notdep(i) · j`` for race ``(i, j)``: the step indices between the
    two that do not happen-after ``i``, then ``j``; plus the weak initials
    of that sequence."""
    idxs = [k for k in range(i + 1, j)
            if clocks[k].get(tids[i], -1) < i] + [j]
    initials = _weak_initials([tids[k] for k in idxs],
                              [resources[k] for k in idxs])
    return idxs, initials


def _pending_races(tids: Sequence, resources: Sequence[Resources],
                   clocks: Sequence[Dict], u, res_u: Resources) -> List[int]:
    """hb-adjacent executed race partners of the pending transition,
    latest first — :func:`_races` for a virtual final step of ``u``.

    The cover test matters: a step hidden behind one of ``u``'s own
    executed steps (or any other hb-intermediate) is not adjacent, and
    reversing against it directly would schedule the *wrong* transition
    of ``u`` — the surviving partners have none of ``u``'s steps
    happening after them, so the wakeup sequence ``notdep(i)`` carries
    every executed step of ``u`` and the forced run re-arms exactly the
    pending operation."""
    last = _LastSteps(tids, resources, len(tids))
    return _adjacent(tids, clocks, last.candidates(u, res_u), u)


class DporStrategy(SearchStrategy):
    """Source-DPOR with wakeup trees.

    The frontier is an explicit stack of nodes along the last execution:
    each carries the branch currently being explored (``choice``), the
    siblings already finished there (``done``), the sleep set it was
    entered with (``inherited``), the policy-schedulable set observed
    there, and the queued wakeup sequences.  Backtracking pops the
    deepest node with a queued sequence and forces its tids verbatim —
    the wakeup *tail* beyond the stack — so the reversal is reached
    without re-exploring the sleep-blocked permutations in between.
    """

    name = "dpor"

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        config: Optional[ExecutorConfig] = None,
        limits: Optional[ExplorationLimits] = None,
        *,
        depth_bound: Optional[int] = None,
        coverage: Optional[CoverageTracker] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
        resilience=None,
        on_final_state: Optional[Callable] = None,
    ) -> None:
        super().__init__(
            program,
            policy_factory,
            config,
            limits,
            coverage=coverage,
            listener=listener,
            observer=observer,
            resilience=resilience,
        )
        self.config = reducer_config(self.name, config, depth_bound)
        self.on_final_state = on_final_state
        #: One dict per node of the current exploration path.
        self.stack: List[dict] = []
        #: Forced wakeup-sequence suffix beyond the stack.
        self.tail: List = []
        self.exhausted = False
        self._last_run: Optional[DporRun] = None
        #: Vector clocks of the last execution's steps.
        self._clocks: List[Dict] = []

    def strategy_label(self) -> str:
        return "source-dpor"

    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return not self.exhausted

    def _run_once(self) -> ExecutionResult:
        run = DporRun(self.stack, self.tail, observer=self.observer,
                      on_final_state=self.on_final_state)
        record = run_execution(
            self.program,
            self.policy_factory(),
            run,
            self.config,
            coverage=self.coverage,
            observer=self.observer,
            reducer=run,
        )
        self._last_run = run
        return record

    def _advance(self, record: ExecutionResult) -> None:
        meta, self._last_run = self._last_run, None
        if meta is None:
            self.exhausted = True
            return
        timers = self.observer.timers if self.observer is not None else None
        t0 = perf_counter() if timers is not None else 0.0
        del self.stack[len(meta.tids):]  # defensive; replay covers stack
        self.stack.extend(meta.nodes)
        self._insert_backtracks(meta)
        self._backtrack()
        if timers is not None:
            timers.add("analysis", perf_counter() - t0)

    def _insert_backtracks(self, meta: DporRun) -> None:
        tids, resources = meta.tids, meta.resources
        # The replayed prefix keeps the clocks of the previous analysis
        # (none after a resume) and holds no race not detected already.
        start = min(meta.replayed, len(tids))
        clocks = self._clocks
        del clocks[start:]
        for i, j in _races(tids, resources, clocks, start):
            if self.observer is not None:
                self.observer.dpor_race_detected()
            self._reverse(meta, clocks, i, tids[j], resources[j],
                          self._try_insert, j)
        # A violation or blocking cut this execution short: threads with
        # a pending-but-never-executed operation race against the
        # executed steps they depend on, like FG-DPOR's next-transition
        # rule.  Without this, the branches behind a first violation (or
        # a blocked lock attempt) would never be scheduled at all.
        for u, res_u in meta.final_pending:
            partners = _pending_races(tids, resources, clocks, u, res_u)
            if not partners:
                continue
            if self.observer is not None:
                self.observer.dpor_race_detected()
            for i in partners:
                self._reverse(meta, clocks, i, u, res_u,
                              self._try_insert_pending, u, res_u)

    def _reverse(self, meta: DporRun, clocks, i: int, u, res_u: Resources,
                 insert: Callable, *args) -> None:
        """Queue the reversal of a race of thread ``u`` at node ``i``
        through ``insert(meta, clocks, node, *args)``.

        Lock handover: when ``u`` is *disabled* at node ``i`` (a
        release/acquire pair — the acquire can never move before the
        release), the reversal that exists is handing the whole critical
        section over, i.e. scheduling ``u`` before the earlier dependent
        step of another thread (typically the matching acquire).  Walk
        back to it.
        """
        status = insert(meta, clocks, i, *args)
        while status == "disabled":
            i = next((k for k in range(i - 1, -1, -1)
                      if meta.tids[k] != u
                      and dependent(meta.resources[k], res_u)), None)
            if i is None:
                if self.observer is not None:
                    self.observer.dpor_wakeup_pruned()
                return
            status = insert(meta, clocks, i, *args)
            if status == "inserted" and self.observer is not None:
                self.observer.dpor_handover()

    def _try_insert_pending(self, meta: DporRun, clocks, i: int,
                            u, res_u: Resources) -> str:
        """Queue the reversal of the race between step ``i`` and thread
        ``u``'s never-executed pending transition: the steps after ``i``
        that do not happen-after it — which include every executed step
        of ``u``, so the forced run re-arms exactly the pending
        operation — then ``u`` itself."""
        tids, resources = meta.tids, meta.resources
        idxs = [k for k in range(i + 1, len(tids))
                if clocks[k].get(tids[i], -1) < i]
        seq = [tids[k] for k in idxs] + [u]
        seq_res = [resources[k] for k in idxs] + [res_u]
        return self._queue_wakeup(meta, i, seq, _weak_initials(seq, seq_res))

    def _try_insert(self, meta: DporRun, clocks, i: int, j: int) -> str:
        """Queue the wakeup sequence for race ``(i, j)`` at node ``i``.

        Returns ``"inserted"``, ``"pruned"`` (redundant — an equivalent
        reordering is asleep, explored, or already queued), ``"skipped"``
        (every viable initial is fairness-blocked), or ``"disabled"``
        (the racing thread is not even enabled there — handover needed).
        """
        tids, resources = meta.tids, meta.resources
        idxs, initials = _wakeup_sequence(i, j, tids, resources, clocks)
        return self._queue_wakeup(meta, i, [tids[k] for k in idxs], initials)

    def _queue_wakeup(self, meta: DporRun, i: int, seq: List,
                      initials: List) -> str:
        node = self.stack[i]
        wi = set(initials)
        if (node["choice"] in wi or not wi.isdisjoint(node["inherited"])
                or not wi.isdisjoint(node["done"])
                or any(w[0] in wi for w in node["wakeups"])):
            # Some reordering with the same first step is asleep here,
            # explored or queued — the reversal is redundant.
            if self.observer is not None:
                self.observer.dpor_wakeup_pruned()
            return "pruned"
        schedulable = set(node["schedulable"])
        order = list(seq)
        if order[0] not in schedulable:
            # Any weak initial commutes to the front of the sequence.
            front = next((t for t in initials if t in schedulable), None)
            if front is None:
                if not (wi & meta.enableds[i]):
                    return "disabled"
                # Enabled but not schedulable: the fair policy blocked
                # it here, so no fair schedule takes this branch at this
                # node — exactly the pruning the fair DFS applies too.
                if self.observer is not None:
                    self.observer.dpor_fairness_skipped()
                return "skipped"
            pos = order.index(front)
            order = [order[pos]] + order[:pos] + order[pos + 1:]
        node["wakeups"].append(order)
        return "inserted"

    def _backtrack(self) -> None:
        for k in range(len(self.stack) - 1, -1, -1):
            node = self.stack[k]
            node["done"].append(node["choice"])
            if node["wakeups"]:
                sequence = node["wakeups"].pop(0)
                node["choice"] = sequence[0]
                del self.stack[k + 1:]
                self.tail = list(sequence[1:])
                return
            self.stack.pop()
        self.tail = []
        self.exhausted = True

    def _announce(self) -> None:
        if self.observer is not None and not self.exhausted:
            self.observer.backtrack(len(self.stack))

    # ------------------------------------------------------------------
    def _frontier_state(self) -> dict:
        return {
            "stack": [dict(node) for node in self.stack],
            "tail": list(self.tail),
            "exhausted": self.exhausted,
        }

    def _load_frontier(self, state: dict) -> None:
        self.stack = [
            {
                "choice": node["choice"],
                "inherited": list(node.get("inherited", [])),
                "done": list(node.get("done", [])),
                "wakeups": [list(w) for w in node.get("wakeups", [])],
                "schedulable": list(node.get("schedulable", [])),
            }
            for node in state.get("stack", [])
        ]
        self.tail = list(state.get("tail", []))
        self.exhausted = bool(state.get("exhausted", False))
        self._clocks = []
