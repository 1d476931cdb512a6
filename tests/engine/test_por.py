"""Sleep-set partial-order reduction tests."""

from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import (
    ExplorationLimits,
    SleepSetStrategy,
    explore_dfs,
)
from repro.runtime.api import check
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar
from repro.sync.mutex import Mutex
from repro.workloads.dining import dining_philosophers

LIMITS = ExplorationLimits(stop_on_first_violation=False,
                           stop_on_first_divergence=False)


def independent_program(n=2):
    """n threads each taking and releasing a *private* lock: every
    interleaving is equivalent."""

    def setup(env):
        locks = [Mutex(name=f"m{i}") for i in range(n)]

        def worker(m):
            yield from m.acquire()
            yield from m.release()

        for i in range(n):
            env.spawn(worker, locks[i], name=f"w{i}")
        env.set_state_fn(lambda: tuple(m.owner_name() for m in locks))

    return VMProgram(setup, name=f"independent({n})")


def racy_program():
    def setup(env):
        x = SharedVar(0, name="x")

        def writer():
            yield from x.set(1)
            yield from x.set(2)

        def reader():
            value = yield from x.get()
            check(value != 1, "saw intermediate")

        env.spawn(writer, name="w")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="racy")


class TestReduction:
    def test_independent_threads_reduced(self):
        full = explore_dfs(independent_program(), nonfair_policy(),
                           ExecutorConfig(), LIMITS)
        por = SleepSetStrategy(independent_program(),
                               nonfair_policy(), limits=LIMITS).explore()
        full_terminal = full.outcomes[Outcome.TERMINATED]
        por_terminal = por.outcomes[Outcome.TERMINATED]
        assert por_terminal < full_terminal
        assert por.complete

    def test_reduction_grows_with_independence(self):
        por2 = SleepSetStrategy(independent_program(2),
                                nonfair_policy(), limits=LIMITS).explore()
        por3 = SleepSetStrategy(independent_program(3),
                                nonfair_policy(), limits=LIMITS).explore()
        full3 = explore_dfs(independent_program(3), nonfair_policy(),
                            ExecutorConfig(), LIMITS)
        saved3 = (full3.outcomes[Outcome.TERMINATED]
                  - por3.outcomes[Outcome.TERMINATED])
        assert saved3 > 0


class TestSoundness:
    def test_violations_preserved(self):
        por = SleepSetStrategy(racy_program(), nonfair_policy()).explore()
        assert por.found_violation

    def test_state_coverage_preserved_on_dining(self):
        full_cov = CoverageTracker()
        por_cov = CoverageTracker()
        explore_dfs(dining_philosophers(2), fair_policy(),
                    ExecutorConfig(depth_bound=300), LIMITS,
                    coverage=full_cov)
        SleepSetStrategy(dining_philosophers(2), fair_policy(),
                         depth_bound=300, limits=LIMITS,
                         coverage=por_cov).explore()
        assert full_cov.signatures() == por_cov.signatures()

    def test_deadlocks_preserved(self):
        def setup(env):
            a, b = Mutex(name="a"), Mutex(name="b")

            def left():
                yield from a.acquire()
                yield from b.acquire()
                yield from b.release()
                yield from a.release()

            def right():
                yield from b.acquire()
                yield from a.acquire()
                yield from a.release()
                yield from b.release()

            env.spawn(left, name="L")
            env.spawn(right, name="R")

        program = VMProgram(setup, name="deadlocky")
        por = SleepSetStrategy(program, nonfair_policy(),
                               limits=ExplorationLimits()).explore()
        assert por.found_violation or por.outcomes[Outcome.DEADLOCK] > 0


class TestIndependenceRelation:
    def test_resources_of_primitive_ops(self):
        from repro.sync.mutex import MutexAcquireOp

        lock = Mutex()
        other = Mutex()
        op1 = MutexAcquireOp(lock, None)
        op2 = MutexAcquireOp(other, None)
        op3 = MutexAcquireOp(lock, None)
        assert op1.resources() != op2.resources()
        assert op1.resources() == op3.resources()

    def test_local_ops_have_empty_resources(self):
        from repro.runtime.ops import ChooseOp, PauseOp, YieldOp

        assert YieldOp().resources() == ()
        assert PauseOp().resources() == ()
        assert ChooseOp(2).resources() == ()

    def test_unknown_ops_conservative(self):
        from repro.runtime.ops import CreateThreadOp, StartOp

        assert StartOp().resources() is None
        assert CreateThreadOp(lambda: None, ()).resources() is None
