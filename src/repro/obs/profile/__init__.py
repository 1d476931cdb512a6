"""Profiling and trace analysis for the exploration engine.

The observer answers *what* a search did (events, counters, phase
totals); this package answers *where the time went*:

* :class:`DecisionProfiler` — sampling-free cost attribution to
  decision-sequence prefixes of the search tree, exportable as
  folded-stack text for flamegraph/speedscope
  (:meth:`DecisionProfiler.to_folded`);
* :class:`SpanRecorder` + :func:`write_chrome_trace` — wall-clock span
  timelines (shard lifecycle, worker activity, phase totals) merged into
  one Chrome trace-event JSON viewable in Perfetto;
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
from repro.obs.profile.chrome_trace import (
    chrome_trace_document,
    write_chrome_trace,
)
from repro.obs.profile.decision_profiler import DecisionNode, DecisionProfiler
from repro.obs.profile.spans import Span, SpanRecorder

__all__ = [
    "BenchComparison",
    "ComparedValue",
    "DecisionNode",
    "DecisionProfiler",
    "Span",
    "SpanRecorder",
    "chrome_trace_document",
    "compare_bench",
    "load_bench",
    "write_chrome_trace",
]
