#!/usr/bin/env python
"""Profiling: where does the search spend its time?

Runs one counted DFS sweep with the deep-profiling layer attached and
shows the two views docs/profiling.md describes:

* the decision-tree cost profile — which choice-tree prefixes burn the
  wall clock, as folded stacks for flamegraph.pl/speedscope;
* the snapshot-cache cost — capture and restore seconds, which
  together make up the ``snapshot`` phase timer.

This script writes no file.  The CLI keeps the folded stacks in one
(``--metrics-json`` carries the capture and restore histograms):

    python -m repro check repro.workloads.dining:dining_philosophers \\
        -a 2 --profile-out profile.folded
    flamegraph.pl profile.folded > profile.svg

Run:  python examples/profiling_demo.py
"""

from repro import Checker
from repro.obs import Observer
from repro.obs.profile import DecisionProfiler
from repro.workloads.dining import dining_philosophers


def main():
    profiler = DecisionProfiler()
    observer = Observer(profiler=profiler)
    result = Checker(dining_philosophers(2), depth_bound=300,
                     stop_on_first_violation=False,
                     stop_on_first_divergence=False,
                     handle_signals=False,
                     observer=observer).run()
    print(f"verdict: {'PASS' if result.ok else 'FAIL'} "
          f"({result.exploration.executions} executions)")

    print("\nhottest decision prefixes (subtree seconds):")
    for prefix, seconds in profiler.hottest(5):
        frames = "root" + "".join(f";{i}" for i in prefix)
        print(f"  {frames:<24} {seconds * 1e3:8.2f}ms")

    folded = profiler.to_folded().splitlines()
    print(f"\nfolded stacks: {len(folded)} lines "
          f"(--profile-out FILE writes them), the first three:")
    for line in folded[:3]:
        print(f"  {line}")

    capture = observer.metrics.histogram("snapshot.capture.seconds")
    restore = observer.metrics.histogram("snapshot.restore.seconds")
    print(f"\nsnapshot cache: {capture.count} captures "
          f"({capture.total * 1e3:.2f}ms) and {restore.count} restores "
          f"({restore.total * 1e3:.2f}ms) make up the "
          f"{observer.timers.seconds('snapshot') * 1e3:.2f}ms snapshot phase")


if __name__ == "__main__":
    main()
