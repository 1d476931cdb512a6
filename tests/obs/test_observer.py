"""Observer integration: the engine populates metrics, timers and events."""

import io

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.replay import replay_schedule
from repro.engine.executor import ExecutorConfig
from repro.engine.results import Outcome
from repro.engine.strategies import (
    ExplorationLimits,
    explore_dfs,
    explore_dfs_sleepsets,
)
from repro.obs import (
    Backtrack,
    CollectingSink,
    DivergenceClassified,
    ExecutionFinished,
    ExecutionStarted,
    ExplorationFinished,
    ExplorationStarted,
    IcbSweep,
    JsonlTraceWriter,
    Observer,
    Preemption,
    PrefixRestored,
    ProgressReporter,
    SchedulingDecision,
    ViolationFound,
    read_jsonl,
    schedule_from_events,
)
from repro.runtime.api import check as rt_check
from repro.runtime.api import choose as rt_choose
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar
from repro.workloads.dining import (
    dining_philosophers,
    dining_philosophers_livelock,
)
from repro.workloads.wsq import work_stealing_queue


def racy_program():
    """Two threads; one interleaving trips the assertion."""
    def setup(env):
        x = SharedVar(0, name="x")

        def writer():
            yield from x.set(1)
            yield from x.set(2)

        def reader():
            value = yield from x.get()
            rt_check(value != 1, "saw intermediate")

        env.spawn(writer, name="w")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="racy")


class TestDfsTelemetry:
    def test_counters_match_exploration_result(self):
        observer = Observer()
        result = explore_dfs(racy_program(), nonfair_policy(),
                             observer=observer)
        counters = observer.metrics.to_dict()["counters"]
        assert counters["executions"] == result.executions
        assert counters["transitions"] == result.transitions
        assert counters["violations"] == 1
        assert counters["backtracks"] == result.executions - 1
        assert counters["decisions.thread"] > 0

    def test_phase_timers_cover_the_loop(self):
        observer = Observer()
        explore_dfs(racy_program(), fair_policy(), observer=observer)
        assert observer.timers.seconds("policy") > 0
        assert observer.timers.seconds("schedule") > 0
        assert observer.timers.seconds("execute") > 0
        assert "policy" in observer.timers.summary()

    def test_event_stream_shape(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = explore_dfs(racy_program(), nonfair_policy(),
                             observer=observer)
        assert len(sink.of_type(ExplorationStarted)) == 1
        assert len(sink.of_type(ExplorationFinished)) == 1
        assert len(sink.of_type(ExecutionStarted)) == result.executions
        assert len(sink.of_type(ExecutionFinished)) == result.executions
        assert len(sink.of_type(ViolationFound)) == 1
        assert sink.of_type(SchedulingDecision)

    def test_trace_is_replay_compatible(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = explore_dfs(racy_program(), nonfair_policy(),
                             observer=observer)
        guide = schedule_from_events(sink.events)
        assert guide == result.violations[0].schedule
        replayed = replay_schedule(racy_program(), guide, nonfair_policy(),
                                   ExecutorConfig())
        assert replayed.outcome is Outcome.VIOLATION

    def test_priority_relation_sampled_under_fair_policy(self):
        observer = Observer()
        explore_dfs(dining_philosophers(2), fair_policy(),
                    ExecutorConfig(depth_bound=300), observer=observer)
        hist = observer.metrics.histogram("priority_relation_size")
        assert hist.count > 0
        assert hist.max > 0  # deprioritization edges do appear

    def test_fresh_observer_adds_no_sink_events(self):
        observer = Observer()
        explore_dfs(racy_program(), nonfair_policy(), observer=observer)
        assert observer.sink is None  # metrics-only mode is valid


class TestDivergenceTelemetry:
    def test_livelock_classified_and_counted(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        Checker(dining_philosophers_livelock(2), depth_bound=400,
                observer=observer).run()
        counters = observer.metrics.to_dict()["counters"]
        assert counters["divergences"] == 1
        assert counters["divergence.livelock"] == 1
        events = sink.of_type(DivergenceClassified)
        assert len(events) == 1
        assert events[0].kind == "livelock"
        assert observer.timers.seconds("classify") > 0


class TestRestoredPrefixTrace:
    """With the snapshot cache on (the default), an execution's first
    decisions are restored, not made; the trace must still carry them,
    or the guide read back from it replays a different execution."""

    @pytest.mark.parametrize("make,depth,outcome", [
        (lambda: work_stealing_queue(3, 1, 2), 200, Outcome.VIOLATION),
        (lambda: dining_philosophers_livelock(2), 400, Outcome.DIVERGENCE),
    ], ids=["wsq-3-1-2", "livelock-dining2"])
    def test_jsonl_trace_replays_the_whole_counterexample(
            self, make, depth, outcome):
        buffer = io.StringIO()
        observer = Observer(sink=JsonlTraceWriter(buffer))
        result = Checker(make(), depth_bound=depth, observer=observer,
                         handle_signals=False).run()
        exploration = result.exploration
        record = (exploration.violations or exploration.divergences)[0]
        events = list(read_jsonl(io.StringIO(buffer.getvalue())))
        restored = [e for e in events if isinstance(e, PrefixRestored)]
        assert restored and all(e.indices for e in restored)
        guide = schedule_from_events(events)
        assert guide == list(record.schedule)
        replayed = replay_schedule(make(), guide, fair_policy(),
                                   ExecutorConfig(depth_bound=depth))
        assert replayed.outcome is outcome
        assert replayed.steps == record.steps


def choosing_program():
    """Two threads that each pick a value, then race to write it."""
    def setup(env):
        x = SharedVar(0, name="x")

        def worker():
            value = yield from rt_choose(2)
            yield from x.set(value)
            yield from x.set(value + 1)

        env.spawn(worker, name="a")
        env.spawn(worker, name="b")

    return VMProgram(setup, name="choosing")


class TestCountersIgnoreTheCache:
    """A restored prefix's decisions and preemptions count as a replay
    would count them, so the counters read the same with the snapshot
    cache on and off, and each preemption still has its event."""

    @pytest.mark.parametrize("make,depth", [
        (lambda: dining_philosophers(3), 400),
        (choosing_program, 50),
    ], ids=["dining3", "choose"])
    def test_counters_equal_with_cache_on_and_off(self, make, depth):
        counters = {}
        for cached in (True, False):
            sink = CollectingSink()
            observer = Observer(sink=sink)
            Checker(make(), depth_bound=depth, preemption_bound=1,
                    snapshot_cache=cached, observer=observer,
                    handle_signals=False).run()
            counters[cached] = {
                name: observer.metrics.counter(name).value
                for name in ("decisions.thread", "decisions.data",
                             "preemptions", "snapshot.hits")}
            assert (counters[cached]["preemptions"]
                    == len(sink.of_type(Preemption)))
        on, off = counters[True], counters[False]
        assert on.pop("snapshot.hits") > 0
        off.pop("snapshot.hits")
        assert on == off
        assert off["decisions.thread"] > 0 and off["preemptions"] > 0


class TestPreemptionTelemetry:
    def test_preemptions_counted_when_bounded(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = explore_dfs(
            racy_program(), nonfair_policy(),
            ExecutorConfig(preemption_bound=2), observer=observer,
        )
        total = sum(r.preemptions for e in (result.violations,)
                    for r in e)
        counters = observer.metrics.to_dict()["counters"]
        assert counters["preemptions"] == len(sink.of_type(Preemption))
        assert counters["preemptions"] >= total


class TestIcbTelemetry:
    def test_sweep_events_via_checker(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        Checker(racy_program(), strategy="icb", preemption_bound=2,
                fairness=False, observer=observer).run()
        sweeps = sink.of_type(IcbSweep)
        assert sweeps
        assert [e.bound for e in sweeps] == sorted(e.bound for e in sweeps)
        assert observer.metrics.counter("icb.sweeps").value == len(sweeps)


class TestCoverageTelemetry:
    def test_states_new_and_revisited(self):
        observer = Observer()
        coverage = CoverageTracker(observer=observer)
        explore_dfs(dining_philosophers(2), fair_policy(),
                    ExecutorConfig(depth_bound=300), coverage=coverage,
                    observer=observer)
        counters = observer.metrics.to_dict()["counters"]
        assert counters["states.new"] == coverage.count
        assert counters["states.revisited"] > 0


class TestSleepSetTelemetry:
    def test_por_strategy_reports(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        result = explore_dfs_sleepsets(racy_program(), nonfair_policy(),
                                       observer=observer)
        counters = observer.metrics.to_dict()["counters"]
        assert counters["executions"] == result.executions
        assert len(sink.of_type(ExecutionStarted)) == result.executions
        assert observer.timers.seconds("execute") > 0


class TestTelemetryParity:
    """The reducers emit dfs's core telemetry: decision-profiler nodes, a
    replayed prefix on guided backtracks, and trace steps named by task."""

    def run(self, strategy):
        from repro.engine.strategies import STRATEGIES
        from repro.obs.profile import DecisionProfiler

        observer = Observer(profiler=DecisionProfiler())
        records = []
        search = STRATEGIES[strategy].create(
            dining_philosophers(2), fair_policy(),
            ExecutorConfig(depth_bound=200), ExplorationLimits(),
            observer=observer, listener=records.append)
        return search.explore(), observer, records

    @pytest.mark.parametrize("strategy", ["dfs", "por", "dpor"])
    def test_reducers_match_dfs(self, strategy):
        result, observer, records = self.run(strategy)
        profiler = observer.profiler
        assert profiler.executions == result.executions > 1
        assert profiler.nodes > 1
        replayed = observer.metrics.counter("executions.replayed_steps")
        assert replayed.value > 0
        names = {step.thread_name
                 for record in records for step in record.trace}
        assert names == {"Phil1", "Phil2"}


class TestBacktrackEvents:
    def test_depths_are_recorded(self):
        sink = CollectingSink()
        observer = Observer(sink=sink)
        explore_dfs(racy_program(), nonfair_policy(),
                    limits=ExplorationLimits(stop_on_first_violation=False),
                    observer=observer)
        events = sink.of_type(Backtrack)
        assert events
        assert all(e.depth >= 1 for e in events)


class TestProgress:
    def test_reporter_rate_limits(self):
        fake_now = [0.0]
        stream = io.StringIO()
        reporter = ProgressReporter(interval_seconds=1.0, stream=stream,
                                    clock=lambda: fake_now[0])
        assert reporter.maybe_report(1, 10)
        assert not reporter.maybe_report(2, 20)  # too soon
        fake_now[0] = 1.5
        assert reporter.maybe_report(3, 30, violations=1)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert "executions=3" in lines[1]
        assert "violations=1" in lines[1]

    def test_observer_emits_final_progress_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(interval_seconds=1e9, stream=stream)
        observer = Observer(progress=reporter)
        explore_dfs(racy_program(), nonfair_policy(), observer=observer)
        # The interval suppresses per-execution lines, but the end of the
        # exploration always reports.
        assert "[progress]" in stream.getvalue()


class TestObserverReports:
    def test_summary_and_json(self, tmp_path):
        observer = Observer()
        explore_dfs(racy_program(), fair_policy(), observer=observer)
        text = observer.summary()
        assert "phase timings" in text
        assert "executions" in text
        path = observer.dump_json(str(tmp_path / "m.json"))
        import json

        data = json.loads(open(path).read())
        assert data["counters"]["executions"] >= 1
        assert "policy" in data["phases"]

    def test_rates_exported(self):
        observer = Observer()
        explore_dfs(racy_program(), nonfair_policy(), observer=observer)
        gauges = observer.metrics.to_dict()["gauges"]
        assert gauges["wall.seconds"] > 0
        assert gauges["rate.executions_per_second"] > 0
        assert gauges["rate.transitions_per_second"] > 0
