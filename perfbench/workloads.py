"""The benchmark's workloads: what each one runs, why, and what it must find.

Every workload is one serial ``Checker.run()`` whose work is fixed by the
workload itself -- an exhaustive bounded tree, or a search that stops at
its first bug -- never by a clock.  ``--seed`` is passed to
``Checker(seed=...)``; the DFS and DPOR trees do not depend on it, so
every seed does the same work, which is what keeps runs comparable.

Each search is sized to take about a tenth of a second on an idle core.
A run is many such searches, each in a fresh process, and reports the
fastest: short searches are what let some of them fall wholly inside the
moments when a shared host leaves the core alone (see ``run.py``).

This module imports nothing from ``repro``: the parent runner reads the
specs without loading the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``module:function`` of the program factory.
    program: str
    #: Keyword arguments of the program factory.
    program_args: Dict[str, int]
    #: Keyword arguments of ``Checker`` besides ``seed``.
    checker_args: Dict[str, object]
    #: Verdict every run must reach: ``PASS`` or the kind of the first
    #: error divergence (``LIVELOCK``).
    expect: str
    #: Exact totals every run must reproduce (None: not checked, because
    #: the strategy may legitimately change its own counts).
    executions: Optional[int] = None
    transitions: Optional[int] = None


WORKLOADS = (
    Workload(
        name="dfs-dining3",
        why=("fair DFS over many short executions: the VM step, the fair "
             "policy and the executor loop do nearly all the work, with no "
             "race analysis, snapshots or classification"),
        program="repro.workloads.dining:dining_philosophers",
        program_args={"n": 3},
        checker_args={"depth_bound": 400, "preemption_bound": 1},
        expect="PASS",
        executions=136, transitions=2508,
    ),
    Workload(
        name="livelock-dining2",
        why=("fair DFS to the first livelock of Fig 1: a few executions that "
             "each run to the depth bound, with large fairness windows and "
             "the only call into divergence classification"),
        program="repro.workloads.dining:dining_philosophers_livelock",
        program_args={"n": 2},
        checker_args={"depth_bound": 400},
        expect="LIVELOCK",
        executions=31, transitions=5965,
    ),
    Workload(
        name="dpor-dining3",
        why=("source-DPOR, sized by its depth bound, where race analysis is "
             "the largest layer and the policy and snapshot layers are "
             "bypassed"),
        program="repro.workloads.dining:dining_philosophers",
        program_args={"n": 3},
        # Nonfair: under the fair policy DPOR reports a divergence at small
        # depth bounds and needs tens of seconds once the bound clears it.
        checker_args={"strategy": "dpor", "fairness": False,
                      "depth_bound": 20},
        expect="PASS",
    ),
    Workload(
        name="snapshot-bbuf",
        why=("fair DFS with the prefix-snapshot cache on: the only workload "
             "where lookup, capture and fast_forward replace replayed "
             "prefixes"),
        program="repro.workloads.boundedbuffer:bounded_buffer_program",
        program_args={"items": 2, "consumers": 1},
        checker_args={"depth_bound": 200, "preemption_bound": 1,
                      "snapshot_cache": True, "snapshot_interval": 4},
        expect="PASS",
        # The cache-off totals: the cache must not change what the search
        # explores.
        executions=317, transitions=7699,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
