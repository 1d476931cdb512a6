"""Thread-safety hammer for the metrics registry.

Checks running on several threads of one process may share one
:class:`MetricsRegistry`, so counters, gauges, histograms, and the
registry's get-or-create paths must tolerate concurrent mutation
without losing updates or corrupting state.
"""

import threading

from repro.obs import MetricsRegistry

THREADS = 8
ITERATIONS = 2_000


def hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()
        worker(index)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestCounterConcurrency:
    def test_no_lost_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        hammer(lambda i: [counter.inc() for _ in range(ITERATIONS)])
        assert counter.value == THREADS * ITERATIONS

    def test_weighted_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        hammer(lambda i: [counter.inc(3) for _ in range(ITERATIONS)])
        assert counter.value == 3 * THREADS * ITERATIONS


class TestGaugeConcurrency:
    def test_add_is_atomic(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("wall")
        hammer(lambda i: [gauge.add(1.0) for _ in range(ITERATIONS)])
        assert gauge.value == THREADS * ITERATIONS

    def test_set_last_write_wins_but_never_corrupts(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("level")
        hammer(lambda i: [gauge.set(float(i)) for _ in range(ITERATIONS)])
        assert gauge.value in {float(i) for i in range(THREADS)}


class TestHistogramConcurrency:
    def test_count_and_total_consistent(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wait")
        hammer(lambda i: [hist.record(i + 1) for _ in range(ITERATIONS)])
        assert hist.count == THREADS * ITERATIONS
        assert hist.total == sum((i + 1) * ITERATIONS
                                 for i in range(THREADS))
        assert hist.min == 1
        assert hist.max == THREADS

    def test_percentile_readable_during_writes(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    hist.percentile(0.5)
                    hist.to_dict()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        hammer(lambda i: [hist.record(v % 97) for v in range(ITERATIONS)])
        stop.set()
        thread.join()
        assert errors == []
        assert hist.count == THREADS * ITERATIONS


class TestRegistryConcurrency:
    def test_get_or_create_returns_one_instance(self):
        registry = MetricsRegistry()
        seen = [None] * THREADS

        def worker(index):
            for n in range(200):
                counter = registry.counter(f"c{n}")
                counter.inc()
            seen[index] = registry.counter("c0")

        hammer(worker)
        assert len(registry.names()) == 200
        assert all(c is seen[0] for c in seen)
        # Every increment to every counter survived: each of the 200
        # counters was bumped once per worker per round.
        assert registry.counter("c7").value == THREADS

    def test_mixed_kinds_and_snapshots_under_load(self):
        registry = MetricsRegistry()
        errors = []

        def worker(index):
            try:
                for n in range(500):
                    registry.counter(f"count.{n % 17}").inc()
                    registry.gauge(f"gauge.{n % 5}").add(0.5)
                    registry.histogram("h").record(n)
                    if n % 50 == 0:
                        registry.to_dict()
                        registry.summary()
                        len(registry)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        hammer(worker)
        assert errors == []
        assert registry.histogram("h").count == THREADS * 500
        total = sum(registry.counter(f"count.{n}").value
                    for n in range(17))
        assert total == THREADS * 500
