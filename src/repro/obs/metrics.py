"""Metrics registry: counters, gauges and histograms with JSON export.

The registry is the shared numeric vocabulary of the checker and the
benchmark harness: the engine populates it through
:class:`repro.obs.observer.Observer`, ``--metrics-json`` dumps it, and
:mod:`repro.bench.experiments` records its experiment timings into the
same structure so benchmark output and checker telemetry share one
schema.

Metric names are dotted lowercase (``divergence.livelock``,
``states.new``).  All three instrument types are allocation-free on the
update path (plain attribute arithmetic under a per-instrument lock).

Thread safety: instruments are updated concurrently when several
checks share one registry from different threads of a process, and
``value += amount`` is a read-modify-write that loses increments
between bytecodes.  Every mutation therefore holds a per-instrument
lock; reads of a single int/float attribute stay lock-free (atomic
under the GIL), while multi-field reads (histogram export) lock to see
a consistent snapshot.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Dict, Optional


class Counter:
    """Monotonically increasing integer (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that goes up and down (last write wins; thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        """Atomic read-modify-write (``set(value + amount)`` races)."""
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Running distribution summary with exponential (base-2) buckets.

    Tracks count/sum/min/max exactly and bucket counts keyed by
    ``floor(log2(value))`` for a cheap shape estimate — enough to answer
    "how big do schedulable sets get" without storing samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket exponent -> observations with floor(log2(v)) == exponent
        #: (values <= 0 land in the sentinel bucket None).
        self.buckets: Dict[Optional[int], int] = {}
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        exponent = math.floor(math.log2(value)) if value > 0 else None
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def _snapshot(self):
        """A consistent (count, total, min, max, buckets) view."""
        with self._lock:
            return (self.count, self.total, self.min, self.max,
                    dict(self.buckets))

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        The estimate walks the cumulative bucket counts and interpolates
        linearly inside the matching base-2 bucket ``[2^e, 2^(e+1))``
        (the sentinel ``<=0`` bucket interpolates over ``[min, 0]``).
        Exact only at bucket edges; the error is bounded by the bucket
        width, which is all a shape summary needs.  The estimate is
        clamped to the exact ``[min, max]`` so p0/p100 are always right.
        """
        count, _, low_bound, high_bound, buckets = self._snapshot()
        return _estimate_percentile(q, count, low_bound, high_bound, buckets)

    def to_dict(self) -> Dict[str, object]:
        count, total, min_v, max_v, buckets = self._snapshot()
        return {
            "count": count,
            "sum": total,
            "min": min_v,
            "max": max_v,
            "mean": total / count if count else None,
            "p50": _estimate_percentile(50, count, min_v, max_v, buckets),
            "p95": _estimate_percentile(95, count, min_v, max_v, buckets),
            "p99": _estimate_percentile(99, count, min_v, max_v, buckets),
            "buckets": {
                ("<=0" if exp is None else f"2^{exp}"): n
                for exp, n in sorted(
                    buckets.items(),
                    key=lambda item: (-math.inf if item[0] is None
                                      else item[0]),
                )
            },
        }

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} count={self.count} "
                f"mean={self.mean}>")


def _estimate_percentile(q: float, count: int, min_v: Optional[float],
                         max_v: Optional[float],
                         buckets: Dict[Optional[int], int]
                         ) -> Optional[float]:
    """Percentile estimate over a bucket snapshot (see ``percentile``)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    if count == 0:
        return None
    rank = q / 100.0 * count
    cumulative = 0
    ordered = sorted(
        buckets.items(),
        key=lambda item: (-math.inf if item[0] is None else item[0]),
    )
    for exponent, samples in ordered:
        if samples and cumulative + samples >= rank:
            fraction = max(rank - cumulative, 0.0) / samples
            if exponent is None:
                low, high = min(min_v, 0.0), 0.0
            else:
                low, high = 2.0 ** exponent, 2.0 ** (exponent + 1)
            estimate = low + fraction * (high - low)
            return min(max(estimate, min_v), max_v)
        cumulative += samples
    return max_v


class TimerHandle:
    """Context manager returned by :meth:`MetricsRegistry.timer`.

    Measures one wall-clock span, records it into the registry histogram
    ``<name>.seconds`` and keeps the duration on ``.seconds`` so callers
    (the benchmark harness) can report the same number they exported.
    """

    __slots__ = ("_histogram", "_start", "seconds")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "TimerHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        self._histogram.record(self.seconds)


class MetricsRegistry:
    """Named metrics, created on first use; one flat namespace.

    Get-or-create is guarded by a registry lock so two threads asking
    for the same name always share one instrument (an unlocked race
    would hand each thread its own ``Counter`` and silently drop one
    side's increments when the second insert wins).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) --------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(name)
                if metric is None:
                    metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(name)
                if metric is None:
                    metric = self._histograms[name] = Histogram(name)
        return metric

    def timer(self, name: str) -> TimerHandle:
        """Time a ``with`` block into the histogram ``<name>.seconds``."""
        return TimerHandle(self.histogram(f"{name}.seconds"))

    # -- introspection & export ----------------------------------------
    def has_counter(self, name: str) -> bool:
        """True when the counter already exists (without creating it)."""
        return name in self._counters

    def __len__(self) -> int:
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))

    def names(self) -> list:
        with self._lock:
            return sorted(
                list(self._counters) + list(self._gauges)
                + list(self._histograms)
            )

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {name: metric.value for name, metric in counters},
            "gauges": {name: metric.value for name, metric in gauges},
            "histograms": {name: metric.to_dict()
                           for name, metric in histograms},
        }

    def dump_json(self, path: str, *, extra: Optional[Dict[str, object]] = None) -> str:
        """Write the registry (plus optional extra sections) as JSON."""
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        return path

    def summary(self) -> str:
        """Human-readable listing for ``--stats`` output."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines = []
        if counters:
            lines.append("counters:")
            for name, metric in counters:
                lines.append(f"  {name:<32} {metric.value}")
        if gauges:
            lines.append("gauges:")
            for name, metric in gauges:
                lines.append(f"  {name:<32} {metric.value:g}")
        if histograms:
            lines.append("histograms:")
            for name, metric in histograms:
                mean = metric.mean
                lines.append(
                    f"  {name:<32} count={metric.count} "
                    f"min={metric.min:g} mean={mean:.4g} max={metric.max:g}"
                    if metric.count else f"  {name:<32} count=0"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
