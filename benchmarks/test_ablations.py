"""Ablation benchmarks for the design choices DESIGN.md calls out.

* ``k``-th-yield processing (end of Section 3): larger ``k`` weakens the
  priority updates — more executions for the same coverage, recovering
  soundness for states that need yielding executions.
* Preemption accounting (Section 4): counting fairness-forced switches
  against the context bound (the thing the paper says *not* to do) makes
  bounded search lose coverage.
* Round-robin fairness (Section 2): fair but not demonic — one schedule,
  terrible coverage; the reason the paper needs a *nondeterministic* fair
  scheduler.
"""

import dataclasses

from repro.bench.tables import format_table
from repro.core.policies import fair_policy, nonfair_policy, round_robin_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.strategies import ExplorationLimits, explore_dfs
from repro.statespace.stateful import stateful_search
from repro.workloads.dining import dining_philosophers
from repro.workloads.spinloop import spinloop

LIMITS = ExplorationLimits(max_executions=60_000, max_seconds=20.0,
                           stop_on_first_violation=False,
                           stop_on_first_divergence=False)


def coverage_with_policy(program_factory, policy_factory, *,
                         config=None) -> tuple:
    coverage = CoverageTracker()
    result = explore_dfs(
        program_factory(), policy_factory,
        config or ExecutorConfig(depth_bound=400),
        LIMITS, coverage=coverage,
    )
    return coverage.count, result.executions, result.limit_hit


class TestKYieldAblation:
    def test_k_parameter(self, benchmark, report):
        def run():
            truth = stateful_search(dining_philosophers(2),
                                    depth_bound=400).count
            rows = []
            for k in (1, 2, 3):
                states, executions, capped = coverage_with_policy(
                    lambda: dining_philosophers(2), fair_policy(k),
                )
                mark = "*" if capped else ""
                rows.append([f"k={k}", truth, states,
                             f"{executions}{mark}"])
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        report("ablation_kyield", format_table(
            ["policy", "total states", "states covered", "executions"],
            rows,
            title="Ablation — process every k-th yield "
                  "(dining philosophers 2)",
        ))
        # All k achieve full coverage here; the cost is extra executions.
        baseline_execs = int(rows[0][3].rstrip("*"))
        k3_execs = int(rows[2][3].rstrip("*"))
        assert k3_execs >= baseline_execs
        for row in rows:
            assert row[2] >= row[1]


def contended_program():
    """A thread deprioritized by fairness gets blocked mid-window when a
    lock release re-enables the edge's sink — exactly the switch the
    paper says must not be charged to the context bound."""
    from repro.runtime.api import pause, yield_now
    from repro.runtime.program import VMProgram
    from repro.sync.mutex import Mutex

    def setup(env):
        lock = Mutex(name="L")
        pcs = {"t": 0}

        def t():
            yield from yield_now()  # open t's window
            yield from lock.acquire()  # disables u: enters D(t)
            yield from yield_now()  # adds the edge (t, u)
            yield from lock.release()  # u re-enabled: t priority-blocked
            pcs["t"] = 1
            yield from pause("epilogue")
            pcs["t"] = 2

        def u():
            yield from lock.acquire()
            yield from lock.release()

        env.spawn(t, name="t")
        env.spawn(u, name="u")
        env.set_state_fn(lambda: (lock.owner_name(), pcs["t"]))

    return VMProgram(setup, name="contended")


class TestPreemptionAccountingAblation:
    def test_counting_fairness_preemptions_prunes_the_search(
            self, benchmark, report):
        from repro.engine.results import Outcome

        def run():
            rows = []
            raw = {}
            for counted in (False, True):
                coverage = CoverageTracker()
                config = ExecutorConfig(
                    depth_bound=200, preemption_bound=1,
                    count_fairness_preemptions=counted,
                )
                result = explore_dfs(
                    contended_program(), fair_policy(), config, LIMITS,
                    coverage=coverage,
                )
                label = ("counted (ablation)" if counted
                         else "not counted (paper)")
                pruned = result.outcomes[Outcome.DEPTH_PRUNED]
                rows.append([label, coverage.count,
                             result.outcomes[Outcome.TERMINATED], pruned])
                raw[counted] = (coverage.count, pruned)
            return rows, raw

        (rows, raw) = benchmark.pedantic(run, rounds=1, iterations=1)
        report("ablation_preemption_accounting", format_table(
            ["fairness-forced switches", "states covered",
             "terminated executions", "pruned executions"],
            rows,
            title="Ablation — counting fairness-forced switches against "
                  "the context bound (cb=1, lock-contention program)",
        ))
        # The paper's rule never prunes; the ablation does.
        assert raw[False][1] == 0
        assert raw[True][1] > 0
        assert raw[False][0] >= raw[True][0]


class TestRoundRobinAblation:
    def test_round_robin_is_fair_but_useless(self, benchmark, report):
        def run():
            truth = stateful_search(dining_philosophers(2),
                                    depth_bound=400).count
            rows = []
            results = {}
            for name, factory in [("fair demonic", fair_policy()),
                                  ("round-robin", round_robin_policy())]:
                states, executions, _ = coverage_with_policy(
                    lambda: dining_philosophers(2), factory,
                )
                rows.append([name, truth, states, executions])
                results[name] = states
            return rows, results

        rows, results = benchmark.pedantic(run, rounds=1, iterations=1)
        report("ablation_round_robin", format_table(
            ["scheduler", "total states", "states covered", "executions"],
            rows,
            title="Ablation — a fair but deterministic scheduler "
                  "(Section 2's round-robin remark)",
        ))
        assert results["round-robin"] < results["fair demonic"]
