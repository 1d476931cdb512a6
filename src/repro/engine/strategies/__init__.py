"""Search strategies over the stateless execution tree, and
:data:`STRATEGIES`, the one table of them by ``--strategy`` name."""

from typing import Dict, Type

from repro.engine.strategies.base import (
    Aggregator,
    ExplorationLimits,
    SearchStrategy,
    next_dfs_guide,
)
from repro.engine.strategies.bfs import BfsStrategy
from repro.engine.strategies.context_bound import IcbStrategy, merge_sweeps
from repro.engine.strategies.dfs import DfsStrategy, explore_dfs
from repro.engine.strategies.dpor import DporStrategy
from repro.engine.strategies.por import SleepSetStrategy
from repro.engine.strategies.random_walk import RandomWalkStrategy

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
    "explore_dfs",
    "merge_sweeps",
    "next_dfs_guide",
    "strategy_class",
]
