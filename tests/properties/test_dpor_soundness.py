"""Source-DPOR soundness over random programs (hypothesis).

Three claims, each over seeds drawn by hypothesis:

* on random *partitioned* systems (honest per-instruction footprints,
  forward-only control flow) DPOR reaches exactly the terminal states,
  deadlock states and violations of the stateful ground truth, with at
  most as many executions as unreduced DFS;
* on arbitrary random systems (no declared footprints — everything
  conservatively dependent) DPOR degrades gracefully: identical verdict
  inventory to DFS, never more executions;
* under the *fair* scheduler on good-samaritan spin-loop programs, DPOR
  and fair DFS agree on divergence reachability — the fairness-pruned
  blocking of a low-priority thread is never mistaken for a race
  partner, and reversals deferred by the fair policy are recovered at
  later nodes.

A fourth holds the race analysis itself to a reference: on random
traces, the per-resource forward pass — run whole, or continued from
the clocks of a prefix as the search runs it — computes the clocks and
races that a quadratic scan of every earlier step computes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import (
    DporStrategy,
    ExplorationLimits,
    explore_dfs,
)
from repro.engine.strategies.dpor import (
    _pending_races,
    _races,
    _vector_clocks,
)
from repro.engine.strategies.por import dependent
from repro.statespace import (
    TransitionSystemProgram,
    random_good_samaritan_system,
    random_partitioned_system,
    random_system,
)

from tests.helpers import dfs_coverage, dpor_coverage, ground_truth

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

LIMITS = ExplorationLimits(max_executions=50_000,
                           stop_on_first_violation=False,
                           stop_on_first_divergence=False)


class TestPartitionedSystems:
    @SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_dpor_matches_ground_truth(self, seed):
        program = TransitionSystemProgram(random_partitioned_system(seed))
        truth = ground_truth(program)
        dpor = dpor_coverage(program, depth_bound=200)
        assert dpor.complete and truth.complete
        assert dpor.terminal_states == truth.terminal_states
        assert dpor.deadlock_states == truth.deadlock_states
        assert dpor.violation_messages == truth.violation_messages
        assert dpor.states <= truth.states

    @SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_dpor_never_exceeds_dfs(self, seed):
        program = TransitionSystemProgram(random_partitioned_system(seed))
        dpor = dpor_coverage(program, depth_bound=200)
        dfs = dfs_coverage(program, depth_bound=200)
        assert dpor.executions <= dfs.executions
        assert dpor.terminal_states == dfs.terminal_states


class TestUndeclaredFootprints:
    @SETTINGS
    @given(seed=st.integers(0, 3_000))
    def test_conservative_dependence_stays_sound(self, seed):
        # random_system declares no footprints: every pair is dependent,
        # so the reduction cannot fire — but the machinery (races on
        # every adjacent pair, wakeup insertion, sleep sets) must still
        # terminate with the same verdicts as DFS.  Backward jumps make
        # executions unbounded; restrict to seeds where DFS exhausts the
        # bounded tree without truncation, since bounded DPOR only
        # guarantees exhaustiveness when no execution hits the bound.
        program = TransitionSystemProgram(random_system(seed))
        dfs = dfs_coverage(program, depth_bound=60, max_executions=4_000)
        if not dfs.complete:
            return
        dfs_raw = explore_dfs(
            TransitionSystemProgram(random_system(seed)), nonfair_policy(),
            ExecutorConfig(depth_bound=60, on_depth_exceeded="prune"),
            LIMITS)
        if dfs_raw.nonterminating_executions:
            return
        dpor = dpor_coverage(program, depth_bound=60)
        assert dpor.complete
        assert dpor.terminal_states == dfs.terminal_states
        assert dpor.deadlock_states == dfs.deadlock_states
        assert dpor.violation_messages == dfs.violation_messages
        assert dpor.executions <= dfs.executions


class TestFairSpinLoops:
    @SETTINGS
    @given(seed=st.integers(0, 2_000))
    def test_divergence_reachability_matches_fair_dfs(self, seed):
        # Good-samaritan systems loop forever through yielding
        # instructions; under the fair scheduler some interleavings
        # terminate and the rest classify as divergences at the bound.
        # DPOR composed with the fair policy must find a divergence iff
        # fair DFS does, and must reach every terminating interleaving's
        # verdict (same TERMINATED presence).
        system = random_good_samaritan_system(seed, n_threads=2, n_pcs=2)
        config = ExecutorConfig(depth_bound=40,
                                on_depth_exceeded="divergence")
        dfs = explore_dfs(TransitionSystemProgram(system), fair_policy(),
                          config, ExplorationLimits(
                              max_executions=3_000,
                              stop_on_first_violation=False,
                              stop_on_first_divergence=False))
        if dfs.limit_hit:
            return
        dpor = DporStrategy(
            TransitionSystemProgram(system), fair_policy(),
            limits=ExplorationLimits(max_executions=3_000,
                                     stop_on_first_violation=False,
                                     stop_on_first_divergence=False),
            config=config).explore()
        if dpor.limit_hit:
            return
        assert dpor.complete == dfs.complete
        assert ((dpor.outcomes[Outcome.DIVERGENCE] > 0)
                == (dfs.outcomes[Outcome.DIVERGENCE] > 0))
        assert ((dpor.outcomes[Outcome.TERMINATED] > 0)
                == (dfs.outcomes[Outcome.TERMINATED] > 0))
        assert dpor.executions <= dfs.executions


# ----------------------------------------------------------------------
# The race analysis against a quadratic reference
# ----------------------------------------------------------------------
def reference_vector_clocks(tids, resources):
    """Every step's clock by a scan of all earlier steps."""
    clocks = []
    last_of_thread = {}
    for j, tid in enumerate(tids):
        clock = {}
        prev = last_of_thread.get(tid)
        if prev is not None:  # program order
            clock.update(clocks[prev])
        for i in range(j - 1, -1, -1):
            if tids[i] == tid:
                continue
            if clock.get(tids[i], -1) >= i:
                continue  # already ordered transitively
            if dependent(resources[i], resources[j]):
                for t, v in clocks[i].items():
                    if clock.get(t, -1) < v:
                        clock[t] = v
                if clock.get(tids[i], -1) < i:
                    clock[tids[i]] = i
        clock[tid] = j
        clocks.append(clock)
        last_of_thread[tid] = j
    return clocks


def reference_races(tids, resources, clocks):
    """Dependent pairs that reach each other through no third step,
    found by scanning every earlier step."""
    races = []
    for j in range(len(tids)):
        covered = {}
        for i in range(j - 1, -1, -1):
            if clocks[j].get(tids[i], -1) < i:
                continue  # concurrent with j: no edge to reverse
            if covered.get(tids[i], -1) >= i:
                continue  # reaches j only through a later step
            if tids[i] != tids[j] and dependent(resources[i], resources[j]):
                races.append((i, j))
            for t, v in clocks[i].items():
                if covered.get(t, -1) < v:
                    covered[t] = v
    return races


def reference_pending_clock(tids, resources, clocks, u, res_u):
    """The clock of ``u``'s never-executed pending transition."""
    clock = {}
    last = None
    for k in range(len(tids) - 1, -1, -1):
        if tids[k] == u:
            last = k
            break
    if last is not None:
        clock.update(clocks[last])
    for i in range(len(tids) - 1, -1, -1):
        if tids[i] == u:
            continue
        if clock.get(tids[i], -1) >= i:
            continue
        if dependent(resources[i], res_u):
            for t, v in clocks[i].items():
                if clock.get(t, -1) < v:
                    clock[t] = v
            if clock.get(tids[i], -1) < i:
                clock[tids[i]] = i
    if last is not None:
        clock[u] = last
    return clock


def reference_pending_races(tids, resources, clocks, u, res_u):
    jclock = reference_pending_clock(tids, resources, clocks, u, res_u)
    partners = []
    covered = {}
    for i in range(len(tids) - 1, -1, -1):
        if jclock.get(tids[i], -1) < i:
            continue
        if covered.get(tids[i], -1) >= i:
            continue
        if tids[i] != u and dependent(resources[i], res_u):
            partners.append(i)
        for t, v in clocks[i].items():
            if covered.get(t, -1) < v:
                covered[t] = v
    return partners


FOOTPRINTS = st.one_of(
    st.none(), st.just(()),
    st.lists(st.integers(0, 4), min_size=1, max_size=2).map(tuple))


@st.composite
def traces(draw):
    """A random trace, a prefix length, and a pending transition."""
    threads = draw(st.integers(1, 4))
    steps = draw(st.lists(st.tuples(st.integers(0, threads - 1), FOOTPRINTS),
                          max_size=40))
    prefix = draw(st.integers(0, len(steps)))
    pending = (draw(st.integers(0, threads)), draw(FOOTPRINTS))
    return ([t for t, _ in steps], [r for _, r in steps], prefix, pending)


class TestRaceAnalysisAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(trace=traces())
    def test_forward_pass_matches_quadratic_scan(self, trace):
        tids, resources, prefix, (u, res_u) = trace
        clocks = reference_vector_clocks(tids, resources)
        races = reference_races(tids, resources, clocks)
        assert _vector_clocks(tids, resources) == clocks
        assert _races(tids, resources, list(clocks)) == races
        # Continued from a prefix's clocks, as after a replayed prefix,
        # and from none, as after a resume: the same clocks, and the
        # races whose later step lies past the prefix.
        later = [(i, j) for i, j in races if j >= prefix]
        for kept in (_vector_clocks(tids[:prefix], resources[:prefix]), []):
            assert _races(tids, resources, kept, prefix) == later
            assert kept == clocks
        assert _vector_clocks(
            tids, resources,
            _vector_clocks(tids[:prefix], resources[:prefix])) == clocks
        # The pending transition: the forward pass's clock for it as a
        # virtual last step (whose own entry is ``u``'s last executed
        # step) and its race partners.
        virtual = _vector_clocks(tids + [u], resources + [res_u])[-1]
        own = [k for k, t in enumerate(tids) if t == u]
        if own:
            virtual[u] = own[-1]
        else:
            del virtual[u]
        assert virtual == reference_pending_clock(tids, resources, clocks,
                                                  u, res_u)
        assert (_pending_races(tids, resources, clocks, u, res_u)
                == reference_pending_races(tids, resources, clocks, u, res_u))
