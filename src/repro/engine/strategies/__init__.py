"""Search strategies over the stateless execution tree, and
:data:`STRATEGIES`, the one table of them by ``--strategy`` name."""

from typing import Dict, Type

from repro.engine.strategies.base import (
    Aggregator,
    ExplorationLimits,
    SearchStrategy,
    next_dfs_guide,
)
from repro.engine.strategies.bfs import BfsStrategy, explore_bfs
from repro.engine.strategies.context_bound import (
    IcbStrategy,
    explore_context_bounded,
    iterative_context_bounding,
    merge_sweeps,
)
from repro.engine.strategies.dfs import DfsStrategy, explore_dfs
from repro.engine.strategies.dpor import DporStrategy, explore_source_dpor
from repro.engine.strategies.por import SleepSetStrategy, explore_dfs_sleepsets
from repro.engine.strategies.random_walk import (
    RandomWalkStrategy,
    explore_random,
)

#: Every search strategy by name, in ``--strategy`` help order.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    cls.name: cls
    for cls in (DfsStrategy, IcbStrategy, BfsStrategy, RandomWalkStrategy,
                SleepSetStrategy, DporStrategy)
}


def strategy_class(name: str) -> Type[SearchStrategy]:
    """The :data:`STRATEGIES` entry for ``name``."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r} "
            f"(expected one of {', '.join(STRATEGIES)})") from None


__all__ = [
    "Aggregator",
    "BfsStrategy",
    "DfsStrategy",
    "DporStrategy",
    "ExplorationLimits",
    "IcbStrategy",
    "RandomWalkStrategy",
    "STRATEGIES",
    "SearchStrategy",
    "SleepSetStrategy",
    "explore_bfs",
    "explore_context_bounded",
    "explore_dfs",
    "explore_dfs_sleepsets",
    "explore_source_dpor",
    "explore_random",
    "iterative_context_bounding",
    "merge_sweeps",
    "next_dfs_guide",
    "strategy_class",
]
