"""Ablation: sleep-set partial-order reduction (Section 5 outlook).

Measures the fraction of executions saved by sleep sets on programs with
varying degrees of independence, under the fair scheduler — the
"reduce the set of all fair schedules" the paper projects.
"""

from repro.bench.tables import format_table
from repro.core.policies import fair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import (
    ExplorationLimits,
    SleepSetStrategy,
    explore_dfs,
)
from repro.runtime.program import VMProgram
from repro.sync.mutex import Mutex
from repro.workloads.dining import dining_philosophers

LIMITS = ExplorationLimits(max_executions=60_000, max_seconds=20.0,
                           stop_on_first_violation=False,
                           stop_on_first_divergence=False)


def lanes_program(n):
    """n fully independent lock/unlock threads (maximum reduction)."""

    def setup(env):
        locks = [Mutex(name=f"m{i}") for i in range(n)]

        def worker(m):
            yield from m.acquire()
            yield from m.release()

        for i in range(n):
            env.spawn(worker, locks[i], name=f"w{i}")
        env.set_state_fn(lambda: tuple(m.owner_name() for m in locks))

    return VMProgram(setup, name=f"lanes({n})")


def compare(program_factory):
    full_cov, por_cov = CoverageTracker(), CoverageTracker()
    full = explore_dfs(program_factory(), fair_policy(),
                       ExecutorConfig(depth_bound=300), LIMITS,
                       coverage=full_cov)
    por = SleepSetStrategy(program_factory(), fair_policy(),
                           depth_bound=300, limits=LIMITS,
                           coverage=por_cov).explore()
    return (full, por, full_cov, por_cov)


def test_ablation_sleep_sets(benchmark, report):
    def run():
        rows = []
        raw = []
        for name, factory in [
            ("lanes(3) — independent", lambda: lanes_program(3)),
            ("lanes(4) — independent", lambda: lanes_program(4)),
            ("dining(2) — contended", lambda: dining_philosophers(2)),
        ]:
            full, por, full_cov, por_cov = compare(factory)
            full_terminal = full.outcomes[Outcome.TERMINATED]
            por_terminal = por.outcomes[Outcome.TERMINATED]
            rows.append([
                name, full_terminal, por_terminal,
                f"{100 * (1 - por_terminal / max(full_terminal, 1)):.0f}%",
                "yes" if full_cov.signatures() == por_cov.signatures()
                else "NO",
            ])
            raw.append((name, full_terminal, por_terminal,
                        full_cov.signatures() == por_cov.signatures()))
        return rows, raw

    rows, raw = benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablation_por", format_table(
        ["program", "executions (full)", "executions (sleep sets)",
         "saved", "coverage preserved"],
        rows,
        title="Ablation — sleep-set POR under the fair scheduler",
    ))

    for name, full_terminal, por_terminal, preserved in raw:
        assert preserved, f"{name}: sleep sets lost states"
        assert por_terminal <= full_terminal
    # Independent lanes must show real reduction.
    assert raw[0][2] < raw[0][1]
