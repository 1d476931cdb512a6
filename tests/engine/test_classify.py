"""Divergence classifier tests on synthetic traces."""

from repro.engine.classify import classify_divergence
from repro.core.model import StepInfo
from repro.engine.results import DivergenceKind


def step(tid, yielded=False, enabled=("t", "u")):
    return StepInfo(tid=tid, thread_name=str(tid), operation="op",
                    yielded=yielded, enabled_before=frozenset(enabled),
                    enabled_after=frozenset())


class TestLivelock:
    def test_all_threads_running_and_yielding(self):
        trace = []
        for _ in range(50):
            trace.append(step("t", yielded=False))
            trace.append(step("t", yielded=True))
            trace.append(step("u", yielded=False))
            trace.append(step("u", yielded=True))
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.LIVELOCK
        assert set(report.culprits) == {"t", "u"}

    def test_single_thread_livelock(self):
        # A lone thread spinning *with* yields while nothing else is
        # enabled: fair nontermination.
        trace = [step("t", yielded=(i % 2 == 0), enabled=("t",))
                 for i in range(100)]
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.LIVELOCK


class TestGoodSamaritan:
    def test_spinning_thread_without_yields(self):
        trace = [step("u", yielded=False) for _ in range(100)]
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.GOOD_SAMARITAN_VIOLATION
        assert report.culprits == ("u",)
        assert "without yielding" in report.detail

    def test_mixed_spinner_blamed_not_yielders(self):
        trace = []
        for _ in range(40):
            trace.append(step("u", yielded=False))  # spinner
            trace.append(step("t", yielded=True))  # good samaritan
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.GOOD_SAMARITAN_VIOLATION
        assert report.culprits == ("u",)

    def test_threshold_respected(self):
        # A thread scheduled just a few times without yielding is not
        # blamed (it may simply be finishing up).
        trace = [step("t", yielded=True) for _ in range(60)]
        trace += [step("u", yielded=False) for _ in range(3)]
        trace += [step("t", yielded=True) for _ in range(60)]
        report = classify_divergence(trace, gs_schedule_threshold=8)
        assert report.kind is not DivergenceKind.GOOD_SAMARITAN_VIOLATION


class TestUnfair:
    def test_starved_enabled_thread(self):
        # u runs (yielding, so not a GS violation) while t stays enabled
        # and never scheduled: an unfair schedule, not a program error.
        trace = [step("u", yielded=True, enabled=("t", "u"))
                 for _ in range(100)]
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.UNFAIR
        assert report.culprits == ("t",)

    def test_empty_trace(self):
        report = classify_divergence([])
        assert report.kind is DivergenceKind.UNFAIR
        assert report.window == 0

    def test_thread_disabled_mid_window_not_starved(self):
        # t is enabled early in the window but blocks (or finishes)
        # partway through and never re-enables: it left the race on its
        # own, so blaming the scheduler for starving it is wrong.  The
        # yielding survivor is a livelock, not an unfair schedule.
        trace = [step("u", yielded=True, enabled=("t", "u"))
                 for _ in range(30)]
        trace += [step("u", yielded=True, enabled=("u",))
                  for _ in range(70)]
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.LIVELOCK

    def test_thread_starved_through_window_end(self):
        # Still enabled in the trailing part of the window and never
        # scheduled anywhere in it: genuinely starved.
        trace = [step("u", yielded=True, enabled=("u",))
                 for _ in range(30)]
        trace += [step("u", yielded=True, enabled=("t", "u"))
                  for _ in range(70)]
        report = classify_divergence(trace)
        assert report.kind is DivergenceKind.UNFAIR
        assert report.culprits == ("t",)


class TestWindowing:
    def test_only_suffix_analyzed(self):
        # Early unfairness followed by a long livelock suffix: the
        # classifier must judge the suffix.
        trace = [step("u", yielded=True) for _ in range(500)]
        for _ in range(200):
            trace.append(step("t", yielded=True))
            trace.append(step("u", yielded=True))
        report = classify_divergence(trace, window=256)
        assert report.kind is DivergenceKind.LIVELOCK
        assert report.window == 256
