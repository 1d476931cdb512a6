"""Prefix-snapshot cache: unit behavior and executor integration.

The differential guarantee (cache on == cache off, bit for bit) is
covered end-to-end in ``tests/integration/test_snapshot_differential.py``;
this module tests the cache data structure itself and the executor's
restore/capture mechanics on small programs.
"""

import pytest

from repro.core.policies import NonfairPolicy, nonfair_policy
from repro.engine.executor import (
    ExecutorConfig,
    GuidedChooser,
    run_execution,
)
from repro.engine.results import Decision, Outcome
from repro.engine.snapshots import PrefixSnapshot, PrefixSnapshotCache
from repro.engine.strategies import explore_dfs
from repro.runtime.api import pause, yield_now
from repro.runtime.program import VMProgram


def _decisions(indices):
    return tuple(Decision("thread", i, 2, i) for i in indices)


def _entry(cache, indices, steps=None):
    return cache.capture(
        decisions=_decisions(indices),
        steps=steps if steps is not None else len(indices),
        policy=NonfairPolicy(),
    )


def two_thread_program(steps=6):
    def setup(env):
        def body():
            for _ in range(steps):
                yield from pause()

        env.spawn(body, name="a")
        env.spawn(body, name="b")

    return VMProgram(setup, name="two-thread")


class TestCacheLookup:
    def test_deepest_matching_prefix_wins(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        _entry(cache, [0, 1])
        _entry(cache, [0, 1, 0])
        hit = cache.lookup([0, 1, 0, 1])
        assert hit is not None and hit.key == (0, 1, 0)

    def test_diverging_entries_do_not_match(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0, 0])
        assert cache.lookup([0, 1, 0]) is None
        assert cache.misses == 1

    def test_key_longer_than_guide_does_not_match(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0, 1, 0])
        assert cache.lookup([0, 1]) is None

    def test_need_signatures_skips_signatureless_entries(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0, 1])  # captured without coverage signatures
        assert cache.lookup([0, 1, 1], need_signatures=True) is None
        cache.capture(decisions=_decisions([0]), steps=1,
                      policy=NonfairPolicy(), signatures=["sig0"])
        hit = cache.lookup([0, 1, 1], need_signatures=True)
        assert hit is not None and hit.key == (0,)

    def test_duplicate_capture_refreshes_without_copy(self):
        cache = PrefixSnapshotCache(interval=1)
        assert _entry(cache, [0, 1]) is True
        assert cache.last_capture_outcome == "stored"
        assert _entry(cache, [0, 1]) is False
        assert len(cache) == 1 and cache.stored == 1
        assert cache.refreshes == 1
        assert cache.last_capture_outcome == "refreshed"
        assert cache.last_capture_bytes == 0

    def test_lookup_is_indexed_not_linear(self):
        # A trie lookup touches only nodes on the guide path — the other
        # cached entries, however many, are never visited.
        cache = PrefixSnapshotCache(interval=1)
        for i in range(1, 60):
            _entry(cache, [1, i])
        _entry(cache, [0])
        _entry(cache, [0, 2])
        hit = cache.lookup([0, 2, 1, 1])
        assert hit is not None and hit.key == (0, 2)
        assert cache.last_lookup_nodes <= 4  # len(guide), not entries
        cache.lookup([5, 5, 5])
        assert cache.last_lookup_nodes == 0  # no node down that branch

    def test_lookup_index_tracks_eviction_and_invalidation(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        _entry(cache, [0, 0])
        _entry(cache, [0, 1])
        cache.invalidate_not_prefix_of([0, 1])
        assert cache.lookup([0, 0, 0]) is not None  # (0,) survived
        assert cache.lookup([0, 0, 0]).key == (0,)  # (0, 0) dropped
        assert cache.lookup([0, 1, 0]).key == (0, 1)
        cache.clear()
        assert cache.lookup([0, 1, 0]) is None


class TestCacheBounds:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            PrefixSnapshotCache(interval=0)

    def test_memory_budget_evicts_lru(self):
        # Budget holds one two-decision entry but not two entries.
        probe = PrefixSnapshot(key=(0, 1), decisions=_decisions([0, 1]),
                               steps=2)
        cache = PrefixSnapshotCache(
            interval=1, memory_budget_bytes=probe.estimated_bytes() + 1)
        _entry(cache, [0])
        _entry(cache, [0, 1])  # over budget: evict the LRU entry
        assert len(cache) == 1
        assert cache.evictions >= 1
        assert cache.lookup([0, 1, 1]) is not None  # newest survived

    def test_oversized_entry_is_refused_not_pinned(self):
        # An entry estimated over the whole budget must not be stored:
        # eviction could never bring the cache back under budget.
        cache = PrefixSnapshotCache(interval=1, memory_budget_bytes=1)
        assert _entry(cache, [0]) is False
        assert len(cache) == 0
        assert cache.estimated_bytes == 0
        assert cache.oversized == 1
        assert cache.last_capture_outcome == "oversized"
        assert cache.last_capture_bytes == 0
        assert cache.evictions == 0

    def test_invalidate_not_prefix_of(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        _entry(cache, [0, 0])
        _entry(cache, [0, 0, 1])
        dropped = cache.invalidate_not_prefix_of([0, 1])
        assert dropped == 2
        assert cache.lookup([0, 1, 0]) is not None  # (0,) kept

    def test_clear_failure_counts(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        cache.clear(failure=True)
        assert len(cache) == 0 and cache.failures == 1
        assert cache.estimated_bytes == 0

    def test_estimated_bytes_tracks_entries(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0, 1, 0])
        entry = cache.lookup([0, 1, 0])
        assert cache.estimated_bytes == entry.estimated_bytes()


class TestFromConfig:
    def test_disabled_config_gives_none(self):
        config = ExecutorConfig(snapshot_cache=False)
        assert PrefixSnapshotCache.from_config(
            config, two_thread_program()) is None

    def test_unsupported_program_gives_none(self):
        class NativeLike:
            supports_snapshot = False

        config = ExecutorConfig(snapshot_cache=True)
        assert PrefixSnapshotCache.from_config(config, NativeLike()) is None

    def test_vm_program_builds_cache(self):
        config = ExecutorConfig(snapshot_cache=True, snapshot_interval=4,
                                snapshot_memory_mb=8)
        cache = PrefixSnapshotCache.from_config(config, two_thread_program())
        assert cache is not None
        assert cache.interval == 4
        assert cache.memory_budget_bytes == 8 << 20


class TestExecutorIntegration:
    def test_restored_run_matches_full_replay(self):
        program = two_thread_program()
        config = ExecutorConfig(snapshot_cache=True, snapshot_interval=2)
        cache = PrefixSnapshotCache(interval=2)
        guide = [1, 0, 1, 0, 1]
        cold = run_execution(program, NonfairPolicy(), GuidedChooser(guide),
                             config, snapshot_cache=cache)
        assert cache.stored > 0
        warm = run_execution(program, NonfairPolicy(), GuidedChooser(guide),
                             config, snapshot_cache=cache)
        assert cache.hits == 1
        assert warm.outcome is cold.outcome
        assert warm.steps == cold.steps
        assert [d.index for d in warm.decisions] == \
            [d.index for d in cold.decisions]
        assert warm.trace == cold.trace

    def test_failed_fast_forward_falls_back_to_full_replay(self):
        program = two_thread_program()
        config = ExecutorConfig(snapshot_cache=True, snapshot_interval=2)
        cache = PrefixSnapshotCache(interval=2)
        guide = [0, 0, 0, 0]
        run_execution(program, NonfairPolicy(), GuidedChooser(guide),
                      config, snapshot_cache=cache)
        # Poison every cached entry so any restore diverges (a fabricated
        # decision names a thread that cannot be stepped).
        for key, entry in list(cache._entries.items()):
            poisoned = PrefixSnapshot(
                key=entry.key,
                decisions=tuple(Decision("thread", 0, 1, 999)
                                for _ in entry.decisions),
                steps=entry.steps,
                policy_state=entry.policy_state,
            )
            cache._entries[key] = poisoned
            cache._trie_insert(poisoned)
        record = run_execution(program, NonfairPolicy(),
                               GuidedChooser(guide), config,
                               snapshot_cache=cache)
        assert record.outcome is Outcome.TERMINATED
        assert cache.failures == 1
        # The poisoned entries were dropped; the fallback full replay
        # repopulated the cache with fresh ones that restore cleanly.
        again = run_execution(program, NonfairPolicy(),
                              GuidedChooser(guide), config,
                              snapshot_cache=cache)
        assert cache.failures == 1
        assert again.trace == record.trace

    def test_pruner_disables_cache(self):
        program = two_thread_program()
        config = ExecutorConfig(snapshot_cache=True, snapshot_interval=1)
        cache = PrefixSnapshotCache(interval=1)
        run_execution(program, NonfairPolicy(), GuidedChooser([0, 0, 0]),
                      config, pruner=lambda inst, point: False,
                      snapshot_cache=cache)
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_dfs_with_cache_explores_same_tree(self):
        program = two_thread_program(steps=3)
        plain = explore_dfs(program, nonfair_policy(), ExecutorConfig())
        cached = explore_dfs(
            program, nonfair_policy(),
            ExecutorConfig(snapshot_cache=True, snapshot_interval=2))
        assert cached.executions == plain.executions
        assert cached.transitions == plain.transitions
        assert cached.complete and plain.complete
