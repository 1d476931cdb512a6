"""Profiling and trace analysis for the exploration engine.

The observer answers *what* a search did (events, counters, phase
totals); this package answers *where the time went*:

* :class:`DecisionProfiler` — sampling-free cost attribution to
  decision-sequence prefixes of the search tree, exportable as
  folded-stack text for flamegraph/speedscope
  (:meth:`DecisionProfiler.to_folded`);
* :func:`compare_bench` — benchmark regression comparison with
  noise tolerances (``repro bench compare``).

See ``docs/profiling.md`` for the workflows.
"""

from repro.obs.profile.bench_compare import (
    BenchComparison,
    ComparedValue,
    compare_bench,
    load_bench,
)
from repro.obs.profile.decision_profiler import DecisionNode, DecisionProfiler

__all__ = [
    "BenchComparison",
    "ComparedValue",
    "DecisionNode",
    "DecisionProfiler",
    "compare_bench",
    "load_bench",
]
