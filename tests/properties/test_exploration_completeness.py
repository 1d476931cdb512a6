"""DFS/BFS completeness against analytic ground truth (hypothesis).

For *acyclic* random programs (forward-only control flow), the number of
maximal executions can be computed exactly by a memoized path count over
the state graph.  The stateless DFS must enumerate exactly that many
executions, and its coverage must equal the reachable-state set — a
whole-pipeline correctness check of the replay engine.
"""

import random
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import (
    BfsStrategy,
    ExplorationLimits,
    explore_dfs,
)
from repro.statespace.adapter import TransitionSystemProgram
from repro.statespace.stateful import stateful_search
from repro.statespace.transition_system import TransitionSystem, pc_program

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

LIMITS = ExplorationLimits(max_executions=50_000,
                           stop_on_first_violation=False,
                           stop_on_first_divergence=False)


def acyclic_system(seed: int, n_threads: int = 2, n_pcs: int = 3,
                   domain: int = 3) -> TransitionSystem:
    """Random program whose instructions only move the pc forward."""
    rng = random.Random(seed)
    tables = {}
    for index in range(n_threads):
        rows = []
        for pc in range(n_pcs):
            effect_table = tuple(rng.randrange(domain) for _ in range(domain))
            allowed = frozenset(
                v for v in range(domain) if rng.random() < 0.7
            ) or frozenset({0})
            rows.append((
                (lambda shared, a=allowed: shared in a),
                (lambda shared, t=effect_table: t[shared]),
                rng.randrange(pc + 1, n_pcs + 1),  # strictly forward
                rng.random() < 0.3,
            ))
        tables[f"T{index}"] = tuple(rows)
    return pc_program(f"acyclic({seed})", 0, tables)


def count_maximal_executions(system: TransitionSystem) -> int:
    @lru_cache(maxsize=None)
    def paths(state) -> int:
        enabled = system.enabled_threads(state)
        if not enabled:
            return 1
        return sum(paths(system.next_state(state, tid))
                   for tid in enabled)

    return paths(system.initial)


class TestDFSCompleteness:
    @SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_execution_count_matches_path_count(self, seed):
        system = acyclic_system(seed)
        expected = count_maximal_executions(system)
        if expected > 20_000:
            return  # keep the test fast
        result = explore_dfs(TransitionSystemProgram(system),
                             nonfair_policy(), ExecutorConfig(), LIMITS)
        assert result.complete
        assert result.executions == expected

    @SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_coverage_matches_stateful(self, seed):
        system = acyclic_system(seed)
        if count_maximal_executions(system) > 20_000:
            return
        coverage = CoverageTracker()
        explore_dfs(TransitionSystemProgram(system), nonfair_policy(),
                    ExecutorConfig(), LIMITS, coverage=coverage)
        assert coverage.signatures() == stateful_search(system).states


class TestBFSAgreement:
    @SETTINGS
    @given(seed=st.integers(0, 2_000))
    def test_bfs_and_dfs_reach_the_same_states(self, seed):
        system = acyclic_system(seed, n_threads=2, n_pcs=2)
        if count_maximal_executions(system) > 2_000:
            return
        dfs_cov, bfs_cov = CoverageTracker(), CoverageTracker()
        dfs = explore_dfs(TransitionSystemProgram(system),
                          nonfair_policy(), ExecutorConfig(), LIMITS,
                          coverage=dfs_cov)
        bfs = BfsStrategy(TransitionSystemProgram(system),
                          nonfair_policy(), ExecutorConfig(), LIMITS,
                          coverage=bfs_cov).explore()
        assert dfs.complete and bfs.complete
        assert dfs_cov.signatures() == bfs_cov.signatures()
        # BFS replays one execution per tree *node* (every guide prefix
        # runs to completion), so it does at least as much work as DFS's
        # one-per-leaf enumeration.
        assert bfs.executions >= dfs.executions
