"""Exploration hot path: prefix replay cost with the snapshot cache.

Guided stateless search re-executes every decision prefix from the
initial state; ``docs/performance.md`` describes the prefix-snapshot
cache that fast-forwards those prefixes instead.  This benchmark runs
DFS sweeps with the cache off and on — identical verdicts, executions
and transitions are enforced inside :func:`hotpath_replay`, which raises
on any mismatch — and records both runs' replay counters in
``BENCH_hotpath.json`` at the repo root.  Two rows are gated:

* the bounded buffer at spacing 4, many short executions:
  ``executions.replayed_steps`` must drop by at least 2× (the step win);
* the prefix-heavy row, Fig 1's livelock (``dining_philosophers_livelock(2)``)
  at depth 400 with captures at least 16 transitions apart: fair DFS
  runs every execution to the depth bound, so nearly all of its
  transitions replay a guided prefix, as in the fair-livelock anchor
  test.

On both rows cache-on must strictly beat cache-off in **wall-clock
seconds**.  Each side is its fastest of five runs, alternating with the
other side on the *same* machine in the same process, so host speed
cancels out; cross-machine drift is gated
separately via the ``cache_speedup`` ratio in ``repro bench compare``.
The work-stealing queue joins, ungated, at full scale.
"""

import json
import pathlib

from repro.bench.experiments import bench_provenance, hotpath_replay
from repro.bench.tables import format_table
from repro.workloads.boundedbuffer import bounded_buffer_program
from repro.workloads.dining import dining_philosophers_livelock
from repro.workloads.wsq import work_stealing_queue

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_hotpath_replay(benchmark, report, scale):
    def sweep():
        entries = [
            hotpath_replay(
                lambda: bounded_buffer_program(items=2, consumers=2),
                depth_bound=200, preemption_bound=2,
                snapshot_interval=4, max_executions=250,
            ),
            hotpath_replay(
                lambda: dining_philosophers_livelock(2),
                depth_bound=400, preemption_bound=None,
                snapshot_interval=16,  # captures >= 16 transitions apart
                max_executions=200,
            ),
        ]
        if scale == "full":
            entries.append(hotpath_replay(
                lambda: work_stealing_queue(items=1, stealers=1),
                depth_bound=200, preemption_bound=2,
                snapshot_interval=4, max_executions=500,
            ))
        return entries

    entries = benchmark.pedantic(sweep, rounds=1, iterations=1)

    payload = {
        "bench": "hotpath_replay",
        "scale": scale,
        **bench_provenance(),
        "entries": entries,
    }
    bench_path = REPO_ROOT / "BENCH_hotpath.json"
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")

    rows = []
    for entry in entries:
        for run in entry["runs"]:
            rows.append([
                entry["program"],
                "on" if run["snapshot_cache"] else "off",
                f"{run['seconds']:.2f}",
                run["replayed_steps"],
                run["restored_steps"],
                run["snapshot_hits"],
            ])
        rows.append([entry["program"], "reduction",
                     f"{entry['replayed_reduction']}x steps / "
                     f"{entry['cache_speedup']}x seconds", "", "", ""])
    report("hotpath_replay", format_table(
        ["program", "cache", "seconds", "replayed", "restored", "hits"],
        rows,
        title="Prefix replay cost — snapshot cache off vs on "
              "(identical totals enforced)",
    ))

    assert entries[0]["replayed_reduction"] >= 2.0, (
        f"{entries[0]['program']}: replayed-steps reduction "
        f"{entries[0]['replayed_reduction']}x < 2x with the snapshot cache"
    )
    for gated in entries[:2]:
        runs = {run["snapshot_cache"]: run for run in gated["runs"]}
        assert runs[True]["seconds"] < runs[False]["seconds"], (
            f"{gated['program']}: snapshot cache lost in wall-clock — "
            f"{runs[True]['seconds']:.3f}s on vs "
            f"{runs[False]['seconds']:.3f}s off "
            f"(cache_speedup {gated['cache_speedup']}x)"
        )
