"""Sleep-set partial-order reduction (the paper's Section 5 outlook).

The paper notes that partial-order reduction "can be used to significantly
reduce the set of all fair schedules of fair-terminating programs, an
interesting avenue of future research".  This module implements the
classic sleep-set algorithm (Godefroid) on top of the stateless engine:

* when a state is expanded, each explored thread is added to the *sleep
  set* seen by its later siblings;
* a child inherits the sleep set filtered by **independence** with the
  executed transition — two transitions of different threads are
  independent iff both declare resource sets
  (:meth:`repro.runtime.ops.Operation.resources`) and those sets are
  disjoint;
* sleeping threads are not scheduled, pruning executions that only
  permute independent transitions.

Sleep sets preserve deadlocks and safety violations.  Soundness relies on
the runtime contract that all shared effects go through operations (plain
Python code between scheduling points is thread-local) — the same
contract the precise-signature machinery uses.

The reduction is a per-execution *reducer* hook of
:func:`~repro.engine.executor.run_execution`: :class:`SleepSets` is a
guided chooser that filters the sleeping threads out of every option list
and settles the next state's sleep set from the footprint of the step
just taken.  :class:`SleepSetStrategy` is plain DFS with that hook, so the
whole program contract (invariants, temporal monitors, ``choose()``,
execution budgets, crash capture) holds by construction.

Because the search is stateless, the sleep sets along a replayed prefix
are recomputed deterministically from the guide: at a decision with
chosen index ``k``, the already-explored siblings are exactly
``available[:k]``.  A prefix snapshot stores the sleep set at its
snapshot point as the hook's state.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.executor import ExecutorConfig, GuidedChooser
from repro.engine.strategies.base import ExplorationLimits
from repro.engine.strategies.dfs import DfsStrategy
from repro.runtime.errors import UnsupportedConfiguration

Resources = Optional[Tuple]


def footprint(instance, tid) -> Resources:
    """Resource footprint of ``tid``'s next transition, or None (unknown).

    VM programs expose it through the pending operation; explicit
    transition systems through :meth:`pending_resources` when their
    threads declare footprints (``None`` otherwise — no reduction, every
    pair conservatively dependent).
    """
    tasks = getattr(instance, "task", None)
    if tasks is not None:
        op = tasks(tid).pending
        return None if op is None else op.resources()
    getter = getattr(instance, "pending_resources", None)
    return None if getter is None else getter(tid)


def dependent(res_a: Resources, res_b: Resources) -> bool:
    """Dependence of two transitions of *different* threads by footprint."""
    if res_a is None or res_b is None:
        return True
    for r in res_a:
        if r in res_b:
            return True
    return False


def reducer_config(strategy: str, config: Optional[ExecutorConfig],
                   depth_bound: Optional[int]) -> ExecutorConfig:
    """The executor configuration a partial-order reduction runs under.

    Sleep sets and DPOR are not sound under a preemption bound without
    bounded-POR machinery (Coons, Musuvathi and McKinley, OOPSLA 2013),
    so a bound is refused instead of ignored.  At the depth bound a fair
    search still reports divergences; every other mode prunes, because
    random completion would leave the tree the reduction reasons about.
    """
    if config is None:
        config = ExecutorConfig(on_depth_exceeded="prune")
    if config.preemption_bound is not None:
        raise UnsupportedConfiguration(
            f"strategy {strategy!r} cannot honour preemption_bound="
            f"{config.preemption_bound}: sleep sets and DPOR are unsound "
            f"under a preemption bound (use dfs or icb instead)")
    return dataclasses.replace(
        config,
        depth_bound=config.depth_bound if depth_bound is None else depth_bound,
        on_depth_exceeded=("divergence"
                           if config.on_depth_exceeded == "divergence"
                           else "prune"),
    )


class SleepSets(GuidedChooser):
    """The sleep-set reducer hook of one execution.

    As a chooser it follows the DFS guide over the *awake* options; as the
    option filter it drops the sleeping threads.  The step observer is
    :meth:`pick`: it notes the footprint of the transition about to run
    and the sleep set the child inherits, which is settled into the next
    state's sleep set once the step has executed.
    """

    def __init__(self, guide: Sequence[int] = ()) -> None:
        super().__init__(guide)
        self.sleep: Set = set()
        self._instance = None
        self._options: List = []
        #: ``(tid, footprint, inherited sleep)`` of the step in flight.
        self._step: Optional[tuple] = None

    def filter(self, instance, options: List, enabled) -> List:
        self._instance = instance
        if self._step is not None:
            self._settle()
        sleep = self.sleep
        self._options = [t for t in options if t not in sleep]
        return self._options

    def pick(self, kind: str, options: int) -> int:
        index = super().pick(kind, options)
        if kind == "thread":
            awake = self._options
            tid = awake[index]
            self._step = (tid, footprint(self._instance, tid),
                          self.sleep.union(awake[:index]))
        return index

    def _settle(self) -> None:
        """The inherited threads stay asleep while independent of the
        step just executed (their pending operations are read after it)."""
        tid, executed, inherited = self._step
        self._step = None
        if inherited:
            instance = self._instance
            inherited = {u for u in inherited
                         if u != tid and not dependent(footprint(instance, u),
                                                       executed)}
        self.sleep = inherited

    def snapshot_state(self) -> FrozenSet:
        """The sleep set of the current state."""
        if self._step is not None:
            self._settle()
        return frozenset(self.sleep)

    def restore_state(self, sleep: FrozenSet) -> None:
        self.sleep = set(sleep)

    def finish(self, instance, outcome) -> None:
        # The instance holds this chooser through its data-choice
        # handler: drop the way back so the two are freed as soon as the
        # execution ends, not by the cyclic collector.
        self._instance = None


class SleepSetStrategy(DfsStrategy):
    """Depth-first search with sleep-set partial-order reduction.

    Plain DFS with the :class:`SleepSets` hook: the frontier is the DFS
    guide, and the sleep sets are recomputed from it on every execution,
    so they need no checkpoint state of their own.
    """

    name = "por"
    reducer = SleepSets

    def __init__(self, program: Program, policy_factory: PolicyFactory,
                 config: Optional[ExecutorConfig] = None,
                 limits: Optional[ExplorationLimits] = None, *,
                 depth_bound: Optional[int] = None, **kwargs) -> None:
        """``kwargs`` are :class:`DfsStrategy`'s (coverage, listener,
        observer, resilience)."""
        super().__init__(program, policy_factory,
                         reducer_config(self.name, config, depth_bound),
                         limits, strategy_name="dfs+sleepsets", **kwargs)
