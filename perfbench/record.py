"""Run the benchmark over several seeds and record how steady it is.

    python3 perfbench/record.py --runs 1                # one run of each
    python3 perfbench/record.py --runs 10               # every workload
    python3 perfbench/record.py --runs 5 --workload dpor-dining3
    python3 perfbench/record.py --runs 10 --traced --write

For each workload it makes one run per seed (1..runs), as ``run.py``
would, and prints, for every end-to-end metric, the median of the runs,
the distance between their first and third quartiles as a share of the
median (the spread), and the metric's bound from ``BENCHMARK.json``; a
spread at or above a third of its bound is flagged.  ``--traced`` adds one traced run per
workload.  ``--write`` stores everything in ``perfbench/baseline.json``
with each workload's reason, expected verdict and totals, the seed
argument and the host provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import measure  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402


def spread(values) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def provenance() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.experiments import bench_provenance

    return bench_provenance()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w.name for w in WORKLOADS]
    seeds = list(range(1, args.runs + 1))
    recorded = []
    steady = True
    for name in names:
        workload = BY_NAME[name]
        results = [measure(workload, seed=seed, seconds=bench["run_seconds"])
                   for seed in seeds]
        failed = sum(r["failed"] for r in results)
        print(f"{name}: {len(results)} runs, "
              f"{sum(r['attempted'] for r in results)} searches, "
              f"{failed} failed")
        metrics = {}
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            flag = "" if stats["spread"] < bound / 3 else "  <-- not steady"
            steady = steady and (not flag or metric == "setup_s")
            print(f"  {metric:<20} median {stats['median']:>12.6g} "
                  f"{stats['unit']:<4} spread {stats['spread']:7.2%} "
                  f"(bound {bound:.0%}){flag}")
            metrics[metric] = stats
        entry = dict(
            asdict(workload),
            seed_argument="--seed N is passed to Checker(seed=N); the "
                          "explored tree does not depend on it",
            seeds=seeds,
            failed=failed,
            metrics=metrics,
            # Per run: how many searches it made, the fastest (which it
            # reports) and their median.
            searches=[{"count": len(s), "fastest": min(s),
                       "median": statistics.median(s)}
                      for s in (r["samples"]["searches"] for r in results)],
        )
        if args.traced:
            traced = measure(workload, seed=seeds[0], trace=True)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        recorded.append(entry)
        steady = steady and failed == 0
    if args.write:
        doc = {"bench": "perfbench", "run_seconds": bench["run_seconds"],
               "provenance": provenance(), "workloads": recorded}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
