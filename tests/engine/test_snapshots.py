"""Prefix-snapshot cache: unit behavior and executor integration.

The differential guarantee (cache on == cache off, bit for bit) is
covered end-to-end in ``tests/integration/test_snapshot_differential.py``;
this module tests the cache data structure itself and the executor's
restore/capture mechanics on small programs.
"""

import random

import pytest

from repro.checker import Checker
from repro.core.policies import NonfairPolicy, nonfair_policy
from repro.engine.executor import (
    ExecutorConfig,
    GuidedChooser,
    RandomChooser,
    run_execution,
)
from repro.engine.results import Decision, Outcome
from repro.engine.snapshots import PrefixSnapshotCache
from repro.engine.strategies import explore_dfs
from repro.engine.strategies.base import next_dfs_guide
from repro.obs import Observer
from repro.runtime.api import pause
from repro.runtime.errors import ScheduleError
from repro.runtime.program import VMProgram
from repro.workloads.boundedbuffer import bounded_buffer_program
from repro.workloads.dining import dining_philosophers


def _decisions(indices):
    return [Decision("thread", i, 2, i) for i in indices]


def _entry(cache, indices, steps=None, signatures=None):
    decisions = _decisions(indices)
    cache.capture(decisions, steps if steps is not None else len(indices),
                  NonfairPolicy(), 0, 0, None, False, (), signatures, None)


def _key(entry):
    return tuple(d.index for d in entry.decisions[:entry.count])


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
        assert hit is not None and _key(hit) == (0, 1, 0)

    def test_diverging_entries_do_not_match(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0, 0])
        assert cache.lookup([0, 1, 0]) is None
        assert cache.misses == 1

    def test_key_longer_than_guide_does_not_match(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0, 1, 0])
        assert cache.lookup([0, 1]) is None

    def test_lookup_index_tracks_eviction_and_invalidation(self):
        # The index path kept with the stack is cut back to the entry a
        # lookup returns, so entries captured after it compare by their
        # own decisions, not by those of the entries popped before.
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        _entry(cache, [0, 0])
        assert _key(cache.lookup([0, 1, 0])) == (0,)  # (0, 0) popped
        _entry(cache, [0, 1])
        assert _key(cache.lookup([0, 1, 0])) == (0, 1)
        assert _key(cache.lookup([0, 0, 0])) == (0,)  # (0, 1) popped
        cache.clear()
        assert cache.lookup([0, 1, 0]) is None

    def test_capture_shares_the_execution_lists(self):
        # A capture keeps the live decision and signature lists with a
        # count, so later appends by the execution do not leak into it.
        cache = PrefixSnapshotCache(interval=1)
        decisions = _decisions([1, 0])
        signatures = ["s0", "s1"]
        cache.capture(decisions, 2, NonfairPolicy(), 0, 0, None, False,
                      (), signatures, None)
        decisions.append(Decision("thread", 1, 2, 1))
        signatures.append("s2")
        hit = cache.lookup([1, 0, 0])
        assert hit.decisions is decisions and hit.count == 2
        assert hit.signatures is signatures and hit.steps == 2


class TestCacheBounds:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            PrefixSnapshotCache(interval=0)

    def test_invalidate_not_prefix_of(self):
        # A lookup drops every entry that is not a prefix of its guide.
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        _entry(cache, [0, 0])
        _entry(cache, [0, 0, 1])
        assert _key(cache.lookup([0, 1])) == (0,)
        assert len(cache) == 1

    def test_clear_failure_counts(self):
        cache = PrefixSnapshotCache(interval=1)
        _entry(cache, [0])
        cache.clear(failure=True)
        assert len(cache) == 0 and cache.failures == 1


def _simulate(cache, guide, entry, depth, branching, captured):
    """One synthetic execution: restore from the looked-up ``entry``,
    follow the guide then first alternatives to ``depth``, capturing
    every ``interval`` decisions (one decision per step)."""
    decisions = [] if entry is None else entry.decisions[:entry.count]
    capture_at = len(decisions) + cache.interval
    while True:
        if len(decisions) == capture_at:
            cache.capture(decisions, len(decisions), NonfairPolicy(), 0, 0,
                          None, False, (), None, None)
            captured.add(tuple(d.index for d in decisions))
            capture_at += cache.interval
        if len(decisions) == depth:
            return decisions
        position = len(decisions)
        index = guide[position] if position < len(guide) else 0
        decisions.append(Decision("thread", index, branching, index))


def _check_stack(cache, guide, entry):
    """The returned entry is a prefix of the guide, and the stack is one
    path of such prefixes with the returned entry on top."""
    if entry is None:
        assert len(cache) == 0
        return
    assert entry.count <= len(guide)
    assert list(_key(entry)) == list(guide[:entry.count])
    counts = [e.count for e in cache._stack]
    assert counts == sorted(counts) and cache._stack[-1] is entry
    for below in cache._stack:
        assert _key(below) == _key(entry)[:below.count]


def _bfs_guides(depth, branching):
    guides, level = [], [[]]
    while level:
        guides.extend(level)
        level = [g + [i] for g in level if len(g) < depth
                 for i in range(branching)]
    return guides


class TestPrefixInvariant:
    """One cache driven through whole searches' guide sequences."""

    DEPTH, BRANCHING = 7, 3

    @pytest.mark.parametrize("interval", [1, 2, 3])
    def test_dfs_order_returns_the_deepest_captured_prefix(self, interval):
        cache = PrefixSnapshotCache(interval=interval)
        captured = set()
        guide, runs, hits = [], 0, 0
        while guide is not None:
            deepest = max((k for k in range(len(guide) + 1)
                           if tuple(guide[:k]) in captured), default=None)
            entry = cache.lookup(guide)
            _check_stack(cache, guide, entry)
            assert (None if entry is None else entry.count) == deepest
            decisions = _simulate(cache, guide, entry, self.DEPTH,
                                  self.BRANCHING, captured)
            guide = next_dfs_guide(decisions)
            runs += 1
            hits += deepest is not None
        assert runs == self.BRANCHING ** self.DEPTH
        assert cache.hits == hits > runs // 2

    @pytest.mark.parametrize("order", ["bfs", "shuffled"])
    @pytest.mark.parametrize("interval", [1, 2, 3])
    def test_other_orders_return_prefixes(self, order, interval):
        guides = _bfs_guides(self.DEPTH, self.BRANCHING)
        if order == "shuffled":
            random.Random(interval).shuffle(guides)
        cache = PrefixSnapshotCache(interval=interval)
        captured = set()
        for guide in guides:
            entry = cache.lookup(guide)
            _check_stack(cache, guide, entry)
            _simulate(cache, guide, entry, self.DEPTH, self.BRANCHING,
                      captured)
        assert cache.hits > 0 and cache.misses > 0


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
        config = ExecutorConfig(snapshot_interval=4)
        assert config.snapshot_cache  # the default
        cache = PrefixSnapshotCache.from_config(config, two_thread_program())
        assert cache is not None
        assert cache.interval == 4


class TestExecutorIntegration:
    def test_restored_run_matches_full_replay(self):
        program = two_thread_program()
        config = ExecutorConfig(snapshot_cache=True, snapshot_interval=2)
        cache = PrefixSnapshotCache(interval=2)
        guide = [1, 0, 1, 0, 1]
        cold = run_execution(program, NonfairPolicy(), GuidedChooser(guide),
                             config, snapshot_cache=cache)
        assert len(cache) > 0
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
        assert len(cache) > 0
        # Poison every cached entry so any restore diverges: a fabricated
        # decision (still index 0, so the guide matches) names a thread
        # that cannot be stepped.
        cache._stack[:] = [
            entry._replace(decisions=[Decision("thread", 0, 1, 999)]
                           * entry.count)
            for entry in cache._stack
        ]
        record = run_execution(program, NonfairPolicy(),
                               GuidedChooser(guide), config,
                               snapshot_cache=cache)
        assert record.outcome is Outcome.TERMINATED
        assert cache.failures == 1 and cache.hits == 1
        # The poisoned entries were dropped; the fallback full replay
        # repopulated the cache with fresh ones that restore cleanly.
        again = run_execution(program, NonfairPolicy(),
                              GuidedChooser(guide), config,
                              snapshot_cache=cache)
        assert cache.failures == 1 and cache.hits == 2
        assert again.trace == record.trace
        assert [d.chosen for d in again.decisions] == \
            [d.chosen for d in record.decisions]

    def test_pruner_disables_cache(self):
        program = two_thread_program()
        config = ExecutorConfig(snapshot_cache=True, snapshot_interval=1)
        cache = PrefixSnapshotCache(interval=1)
        run_execution(program, NonfairPolicy(), GuidedChooser([0, 0, 0]),
                      config, pruner=lambda inst, point: False,
                      snapshot_cache=cache)
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_unguided_execution_leaves_cache_alone(self):
        # Without a guide there is nothing to look up, so nothing is
        # captured either: the stack stays on the last looked-up path.
        program = two_thread_program()
        config = ExecutorConfig(snapshot_interval=1)
        cache = PrefixSnapshotCache(interval=1)
        run_execution(program, NonfairPolicy(),
                      RandomChooser(random.Random(0)), config,
                      snapshot_cache=cache)
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_fast_forward_steps_record_nothing(self):
        vm = two_thread_program().instantiate()
        assert vm.step(0, record=False) is None
        assert vm.step(1).operation  # a recorded step still describes
        vm.fast_forward(_decisions([0, 1]))
        assert vm.step_count == 4
        with pytest.raises(ScheduleError):
            vm.step(7, record=False)

    def test_dfs_with_cache_explores_same_tree(self):
        program = two_thread_program(steps=3)
        plain = explore_dfs(program, nonfair_policy(),
                            ExecutorConfig(snapshot_cache=False))
        cached = explore_dfs(
            program, nonfair_policy(),
            ExecutorConfig(snapshot_cache=True, snapshot_interval=2))
        assert cached.executions == plain.executions
        assert cached.transitions == plain.transitions
        assert cached.complete and plain.complete


class TestBranchPointCapture:
    """At spacing 1 every branch point is captured once, when DFS first
    reaches it, and every backtrack resumes from the branch point it
    bumps: only the bumped decision's own step runs through the loop."""

    @pytest.mark.parametrize("make,kwargs", [
        (lambda: dining_philosophers(3),
         dict(depth_bound=400, preemption_bound=1)),
        (lambda: bounded_buffer_program(items=2, consumers=1),
         dict(depth_bound=200, preemption_bound=1)),
    ], ids=["dining3", "bbuf-2-1"])
    def test_every_backtrack_resumes_where_it_branched(self, make, kwargs):
        observer = Observer()
        result = Checker(make(), snapshot_interval=1, observer=observer,
                         handle_signals=False, **kwargs).run()
        exploration = result.exploration
        assert result.ok and exploration.complete
        metrics = observer.metrics
        hits = metrics.counter("snapshot.hits").value
        replayed = metrics.counter("executions.replayed_steps").value
        captures = metrics.histogram("snapshot.capture.seconds").count
        assert hits == exploration.executions - 1 == replayed
        # A tree with L leaves has at most L - 1 branching nodes.
        assert 0 < captures <= exploration.executions - 1


class TestCostAccounting:
    def test_capture_and_restore_account_for_the_snapshot_phase(self):
        # Every perf_counter pair that feeds the "snapshot" phase timer
        # also feeds the capture or the restore histogram, so their
        # totals explain the phase total up to float rounding; the 10%
        # bound just keeps the test honest.  The hot-path bench workload
        # at a reduced execution cap.
        observer = Observer()
        Checker(bounded_buffer_program(items=2, consumers=2),
                depth_bound=200, preemption_bound=2, snapshot_interval=4,
                max_executions=120, stop_on_first_violation=False,
                stop_on_first_divergence=False, handle_signals=False,
                observer=observer).run()
        capture = observer.metrics.histogram("snapshot.capture.seconds")
        restore = observer.metrics.histogram("snapshot.restore.seconds")
        assert capture.count > 0 and restore.count > 0
        phase = observer.timers.totals.get("snapshot", 0.0)
        assert phase > 0
        assert capture.total + restore.total == pytest.approx(
            phase, rel=0.10)
