"""Strategy-aware shard planning: carving the schedule space into
independent, worker-count-independent units of work.

Each strategy names its scheme in its ``split`` attribute
(:data:`repro.engine.strategies.STRATEGIES`); two schemes and a single
shard cover the six strategies:

* **Prefix shards** (dfs, bfs, por, and each ICB sweep): the choice tree
  is expanded breadth-first from the root with short *probe* executions
  until there are at least :data:`DEFAULT_SHARD_TARGET` frontier nodes.
  A probe of prefix ``p`` replays ``p`` and extends it with first
  alternatives; the decision recorded at depth ``len(p)`` (if any) gives
  the branching factor, so the children ``p + [0..k-1]`` are a disjoint
  and exhaustive partition of the subtree below ``p``.  Shards are the
  frontier nodes in lexicographic order — for depth-first strategies
  that order concatenates to the *exact* serial visit order.
* **Range shards** (random): the walk-index range ``[0, total)`` is cut
  into contiguous slices.  Walk ``i`` draws from an RNG derived from
  ``(seed, i)`` (:func:`repro.engine.strategies.random_walk.walk_rng`),
  so a slice replays the identical executions a serial run would.
* **One shard** (dpor): source-DPOR discovers its backtrack points
  while it runs, so no prefix partition of its tree is exhaustive; the
  whole search is the root shard.

The plan depends only on the program and the shard target — never on the
worker count — which is what makes merged totals of counted sweeps
deterministic and worker-count independent.

Breadth-first accounting: stateless BFS counts one execution per tree
*node*, and the planner's interior probes are byte-for-byte the records
serial BFS produces for the nodes above the cut.  Those probe records are
therefore returned as the plan's *preamble* and folded into the merge for
BFS; depth-first strategies discard them (each probe merely duplicates
the first leaf of a shard that will re-run it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.engine.results import ExecutionResult

#: Default number of shards a plan aims for.  A fixed constant (not a
#: function of the worker count!) so totals cannot depend on how many
#: workers happened to pull from the queue.
DEFAULT_SHARD_TARGET = 16

#: Probe budget multiplier: planning stops after this many probes per
#: target shard even if the tree keeps offering unary chains.
_PROBE_BUDGET_FACTOR = 4


@dataclass(frozen=True)
class Shard:
    """One independent unit of the partitioned schedule space."""

    index: int
    kind: str  # "prefix" | "range"
    #: Pinned decision indices (prefix shards).
    prefix: Tuple[int, ...] = ()
    #: First walk index and walk count (range shards).
    start: int = 0
    count: int = 0

    def describe(self) -> str:
        if self.kind == "range":
            return f"walks [{self.start}, {self.start + self.count})"
        return f"prefix {list(self.prefix)}"

    def to_state(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "prefix": list(self.prefix),
            "start": self.start,
            "count": self.count,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Shard":
        return cls(
            index=state["index"],
            kind=state["kind"],
            prefix=tuple(state.get("prefix", ())),
            start=state.get("start", 0),
            count=state.get("count", 0),
        )


@dataclass
class ShardPlan:
    """The shards of one search phase plus the BFS preamble records."""

    kind: str  # "prefix" | "range"
    shards: List[Shard] = field(default_factory=list)
    #: Probe records of the interior nodes above the cut, in level order
    #: (folded into the merge for BFS, discarded otherwise).
    preamble: List[ExecutionResult] = field(default_factory=list)
    #: Planner probe executions spent building this plan (range plans
    #: need none).  Planning statistic reported on the coordinator's
    #: "planned" span (docs/profiling.md).
    probes: int = 0

    def to_state(self) -> dict:
        from repro.resilience.checkpoint import record_to_state

        return {
            "kind": self.kind,
            "shards": [shard.to_state() for shard in self.shards],
            "preamble": [record_to_state(r) for r in self.preamble],
            "probes": self.probes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ShardPlan":
        from repro.resilience.checkpoint import record_from_state

        return cls(
            kind=state.get("kind", "prefix"),
            shards=[Shard.from_state(s) for s in state.get("shards", [])],
            preamble=[record_from_state(r)
                      for r in state.get("preamble", [])],
            probes=state.get("probes", 0),
        )


def plan_prefix_shards(
    probe: Callable[[List[int]], ExecutionResult],
    *,
    target: int = DEFAULT_SHARD_TARGET,
    max_probes: Optional[int] = None,
) -> ShardPlan:
    """Partition the choice tree into ~``target`` disjoint subtrees.

    ``probe`` runs one guided execution for a prefix and returns its
    record; it must steer the way the sharded strategy does (through its
    reducer hook, if it has one) so the branching factors match the
    strategy's own view of the tree.
    """
    if target < 1:
        raise ValueError("shard target must be positive")
    if max_probes is None:
        max_probes = _PROBE_BUDGET_FACTOR * target
    frontier: deque = deque([()])
    leaves: List[Tuple[int, ...]] = []
    preamble: List[ExecutionResult] = []
    probes = 0
    while (frontier and probes < max_probes
           and len(frontier) + len(leaves) < target):
        prefix = frontier.popleft()
        record = probe(list(prefix))
        probes += 1
        if len(record.decisions) > len(prefix):
            preamble.append(record)
            options = record.decisions[len(prefix)].options
            for alternative in range(options):
                frontier.append(prefix + (alternative,))
        else:
            # The probe is a complete execution: the node is a leaf of
            # the tree and becomes a single-execution shard.
            leaves.append(prefix)
    prefixes = sorted(leaves + list(frontier))
    shards = [Shard(index=i, kind="prefix", prefix=prefix)
              for i, prefix in enumerate(prefixes)]
    return ShardPlan(kind="prefix", shards=shards, preamble=preamble,
                     probes=probes)


def plan_range_shards(total: int, *,
                      target: int = DEFAULT_SHARD_TARGET) -> ShardPlan:
    """Cut the walk-index range ``[0, total)`` into contiguous slices."""
    if target < 1:
        raise ValueError("shard target must be positive")
    shards: List[Shard] = []
    n = min(target, total) if total > 0 else 0
    base, extra = divmod(total, n) if n else (0, 0)
    start = 0
    for i in range(n):
        count = base + (1 if i < extra else 0)
        shards.append(Shard(index=i, kind="range", start=start, count=count))
        start += count
    return ShardPlan(kind="range", shards=shards)
