#!/usr/bin/env python
"""Profiling: where does the search spend its time?

Runs one counted DFS sweep with the deep-profiling layer attached and
shows the three views docs/profiling.md describes:

* the decision-tree cost profile — which choice-tree prefixes burn the
  wall clock (exported as folded stacks for flamegraph.pl/speedscope);
* the span timeline — what the process was doing and when (exported as
  Chrome trace-event JSON for Perfetto / chrome://tracing);
* the snapshot-cache cost — capture and restore seconds, which
  together make up the ``snapshot`` phase timer.

The same data is available from the CLI (``--metrics-json`` carries the
capture and restore histograms):

    python -m repro check repro.workloads.dining:dining_philosophers \\
        -a 2 --profile-out profile.folded --chrome-trace trace.json

Run:  python examples/profiling_demo.py
"""

import json
import tempfile

from repro import Checker
from repro.obs import Observer
from repro.obs.profile import DecisionProfiler, write_chrome_trace
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

    with tempfile.NamedTemporaryFile(suffix=".folded", delete=False) as f:
        folded_path = f.name
    with open(folded_path, "w", encoding="utf-8") as f:
        f.write(profiler.to_folded())
    print(f"\nfolded stacks written to {folded_path}")
    print("  render: flamegraph.pl " + folded_path + " > profile.svg")

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        trace_path = f.name
    write_chrome_trace(trace_path, observer.spans.spans,
                       timers=observer.timers.to_dict(),
                       lane_names=observer.spans.lane_names)
    with open(trace_path, encoding="utf-8") as f:
        events = len(json.load(f)["traceEvents"])
    print(f"chrome trace ({events} events) written to {trace_path}")
    print("  open in https://ui.perfetto.dev or chrome://tracing")

    capture = observer.metrics.histogram("snapshot.capture.seconds")
    restore = observer.metrics.histogram("snapshot.restore.seconds")
    print(f"\nsnapshot cache: {capture.count} captures "
          f"({capture.total * 1e3:.2f}ms) and {restore.count} restores "
          f"({restore.total * 1e3:.2f}ms) make up the "
          f"{observer.timers.seconds('snapshot') * 1e3:.2f}ms snapshot phase")


if __name__ == "__main__":
    main()
