"""Parallel sharded exploration (docs/parallel.md).

The schedule space of one search is carved into worker-count-independent
*shards* — subtrees pinned by a decision prefix (dfs, bfs, por, each ICB
sweep), contiguous walk-index ranges (random), or the one root shard
(dpor) — and explored by a pool
of forked worker processes.  The coordinator merges the per-shard results
into the same :class:`~repro.engine.results.ExplorationResult` a serial
search produces: identical totals and verdicts for counted sweeps, first
violation wins when stopping early.

Entry points: ``Checker(program, workers=4).run()`` or the CLI's
``--workers`` flag; the pieces below are the public surface for tests
and embedders.
"""

from repro.parallel.coordinator import (
    DEFAULT_MAX_SHARD_ATTEMPTS,
    ParallelCoordinator,
)
from repro.parallel.shard import (
    DEFAULT_SHARD_TARGET,
    Shard,
    ShardPlan,
    plan_prefix_shards,
    plan_range_shards,
)
from repro.parallel.worker import run_shard, worker_main

__all__ = [
    "DEFAULT_MAX_SHARD_ATTEMPTS",
    "DEFAULT_SHARD_TARGET",
    "ParallelCoordinator",
    "Shard",
    "ShardPlan",
    "plan_prefix_shards",
    "plan_range_shards",
    "run_shard",
    "worker_main",
]
