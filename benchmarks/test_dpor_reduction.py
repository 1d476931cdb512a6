"""Source-DPOR vs sleep sets: execution-count reduction (ROADMAP item 4).

Sleep sets prune redundant *transitions* but still visit every state of
the bounded tree; source-DPOR only creates branches where two executed
transitions actually raced.  This benchmark runs both reducers under the
fair scheduler on three workloads spanning the independence spectrum —
fully independent lock lanes, the ABBA deadlock pair, and the contended
dining philosophers — and records executions, transitions and wall time
per reducer in ``BENCH_dpor.json`` at the repo root.

The fair scheduler already prunes most of dining's spinning tree, so a
fourth row runs dining(2) under the nonfair scheduler, where the full
interleaving explosion is visible and DPOR's reduction reaches the
paper-scale two orders of magnitude.

The gates: on every workload DPOR must explore *strictly fewer*
executions than sleep sets while reaching the same verdict inventory
(deadlock found / violation found), and on nonfair dining(2) the
reduction must be at least 10x.  ``repro bench compare`` then guards the
recorded counts exactly (executions and transitions are deterministic)
and the ``speedup`` field — por executions over dpor executions —
within the regression tolerance.

Each row's search runs ``REPEATS`` times after a ``gc.collect()`` and
records the fastest run: a row takes a few milliseconds, so one garbage
collection or host pause inside a single timed run would read as a
regression.  The repeats must agree on executions and transitions.
"""

import gc
import json
import pathlib
import time

from repro.bench.experiments import bench_provenance
from repro.bench.tables import format_table
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.results import Outcome
from repro.engine.strategies import STRATEGIES, ExplorationLimits
from repro.runtime.program import VMProgram
from repro.sync.mutex import Mutex
from repro.workloads.dining import dining_philosophers

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DEPTH_BOUND = 300
LIMITS = ExplorationLimits(max_executions=60_000, max_seconds=60.0,
                           stop_on_first_violation=False,
                           stop_on_first_divergence=False)
#: Timed runs per row; the row records the fastest.
REPEATS = 3


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


def abba_program():
    """Opposite-order lock pair: the classic ABBA deadlock."""

    def setup(env):
        a, b = Mutex(name="a"), Mutex(name="b")

        def locker(first, second):
            yield from first.acquire()
            yield from second.acquire()
            yield from second.release()
            yield from first.release()

        env.spawn(locker, a, b, name="t0")
        env.spawn(locker, b, a, name="t1")
        env.set_state_fn(lambda: (a.owner_name(), b.owner_name()))

    return VMProgram(setup, name="abba")


WORKLOADS = [
    ("lanes(3)", lambda: lanes_program(3), "fair"),
    ("abba", abba_program, "fair"),
    ("dining(2)", lambda: dining_philosophers(2), "fair"),
    ("dining(2) nonfair", lambda: dining_philosophers(2), "nonfair"),
]


def run_reducer(reducer, factory, policy):
    factory_fn = fair_policy if policy == "fair" else nonfair_policy
    seconds = float("inf")
    totals = set()
    for _ in range(REPEATS):
        gc.collect()
        started = time.perf_counter()
        result = STRATEGIES[reducer](
            factory(), factory_fn(), depth_bound=DEPTH_BOUND,
            limits=LIMITS).explore()
        seconds = min(seconds, time.perf_counter() - started)
        totals.add((result.executions, result.transitions))
    assert len(totals) == 1, (
        f"{reducer}: executions/transitions varied across repeats: {totals}")
    return {
        "strategy": reducer,
        "seconds": round(seconds, 3),
        "ok": result.complete,
        "executions": result.executions,
        "transitions": result.transitions,
        "deadlocks": result.outcomes[Outcome.DEADLOCK],
        "violations": result.outcomes[Outcome.VIOLATION],
    }


def test_dpor_reduction(benchmark, report, scale):
    def sweep():
        entries = []
        for name, factory, policy in WORKLOADS:
            por = run_reducer("por", factory, policy)
            dpor = run_reducer("dpor", factory, policy)
            dpor["speedup"] = round(
                por["executions"] / max(dpor["executions"], 1), 2)
            for row in (por, dpor):
                entries.append({
                    "program": name,
                    "depth_bound": DEPTH_BOUND,
                    "policy": policy,
                    **row,
                })
        return entries

    entries = benchmark.pedantic(sweep, rounds=1, iterations=1)

    payload = {
        "bench": "dpor_reduction",
        "scale": scale,
        **bench_provenance(),
        "entries": entries,
    }
    (REPO_ROOT / "BENCH_dpor.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    rows = [[e["program"], e["policy"], e["strategy"], f"{e['seconds']:.2f}",
             e["executions"], e["transitions"], e["deadlocks"],
             e["violations"], e.get("speedup", "")]
            for e in entries]
    report("dpor_reduction", format_table(
        ["program", "policy", "reducer", "seconds", "executions",
         "transitions", "deadlocks", "violations", "reduction"],
        rows,
        title="Source-DPOR vs sleep sets — identical verdicts enforced",
    ))

    by_key = {(e["program"], e["strategy"]): e for e in entries}
    for name, _, _ in WORKLOADS:
        por, dpor = by_key[(name, "por")], by_key[(name, "dpor")]
        assert por["ok"] and dpor["ok"], f"{name}: reducer hit a limit"
        assert (dpor["deadlocks"] > 0) == (por["deadlocks"] > 0), (
            f"{name}: deadlock verdict diverged")
        assert (dpor["violations"] > 0) == (por["violations"] > 0), (
            f"{name}: violation verdict diverged")
        assert dpor["executions"] < por["executions"], (
            f"{name}: no reduction ({dpor['executions']} vs "
            f"{por['executions']})")
    dining = by_key[("dining(2) nonfair", "dpor")]
    assert dining["speedup"] >= 10, (
        f"dining(2) nonfair: reduction {dining['speedup']}x < 10x")
