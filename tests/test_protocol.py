import numpy as np
import pytest

from maintseg.costs import SegmentCost
from maintseg.detectors import DetectorConfig
from maintseg.protocol import Alert, Verdict, classify, run_streaming, run_streaming_trace

from conftest import make_cycle

NEVER_FIRES = DetectorConfig("PELT", penalty=1e12, min_size=2)
PELT_L2 = DetectorConfig("PELT", cost=SegmentCost("l2"), penalty=1.0, min_size=2)


def two_regime_cycle(n=35, change=26, base=0.2, level=3.0):
    samples = np.full((n, 1), base)
    samples[change:] = level
    return make_cycle(samples)


class TestRunStreaming:
    def test_never_firing_detector(self):
        cycle = make_cycle(np.zeros(40))
        assert run_streaming(cycle, NEVER_FIRES, 7) is None

    def test_first_fire_window_recorded(self):
        cycle = make_cycle(np.zeros(100))
        calls = []

        def stub(window, config):
            calls.append(window.end_index)
            return 3 if window.end_index >= 14 else None

        alert = run_streaming(cycle, NEVER_FIRES, 7, detector=stub)
        assert alert == Alert(step_end_index=14, change_point_index=3, a=14)
        assert calls == [7, 14]  # stopped immediately at the first alert

    def test_pelt_fires_on_second_to_last_window(self):
        # constant 0.2 until sample 26, then 3.0: windows 7..21 are flat, the
        # 28-window sees the regime change
        cycle = two_regime_cycle(n=35, change=26)
        alert = run_streaming(cycle, PELT_L2, 7)
        assert alert is not None
        assert alert.step_end_index == 28 == cycle.n - 7
        assert alert.change_point_index == 26
        assert alert.a == 28

    def test_changepoint_timing_mode(self):
        cycle = two_regime_cycle(n=35, change=26)
        alert = run_streaming(cycle, PELT_L2, 7, alert_at="changepoint")
        assert alert.a == alert.change_point_index == 26

    def test_bad_timing_mode(self):
        # rejected before the first window, also when no window would fire
        cycle = two_regime_cycle()
        for config in (PELT_L2, NEVER_FIRES):
            with pytest.raises(ValueError):
                run_streaming(cycle, config, 7, alert_at="nonsense")

    def test_window_budget(self):
        # at most ceil(n / T) windows are ever evaluated
        cycle = make_cycle(np.zeros(100))
        calls = []

        def stub(window, config):
            calls.append(window.end_index)
            return None

        assert run_streaming(cycle, NEVER_FIRES, 7, detector=stub) is None
        assert len(calls) == 15  # ceil(100 / 7)

    def test_trace_rows_match_windows_evaluated(self):
        cycle = two_regime_cycle(n=35, change=26)
        alert, trace = run_streaming_trace(cycle, PELT_L2, 7)
        assert alert is not None
        assert [t.end_index for t in trace] == [7, 14, 21, 28]
        assert trace[-1].fired and not any(t.fired for t in trace[:-1])

        _, full_trace = run_streaming_trace(cycle, NEVER_FIRES, 7)
        assert [t.end_index for t in full_trace] == [7, 14, 21, 28, 35]


class TestAlertType:
    def test_change_point_must_precede_window_end(self):
        with pytest.raises(ValueError):
            Alert(step_end_index=10, change_point_index=10, a=10)
        with pytest.raises(ValueError):
            Alert(step_end_index=10, change_point_index=-1, a=10)


def alert_at(a):
    return Alert(step_end_index=max(a, 1), change_point_index=max(a, 1) - 1, a=a)


class TestClassify:
    # n=100, pp=14, rd=1: TP interval is [85, 99)
    @pytest.mark.parametrize("a,expected", [
        (90, Verdict.TP),
        (85, Verdict.TP),   # inclusive lower boundary
        (98, Verdict.TP),
        (84, Verdict.FP),   # just before the padding
        (50, Verdict.FP),   # early alert
        (0, Verdict.FP),
        (99, Verdict.FP),   # a = n - rd belongs to the responsive duration
        (100, Verdict.FP),
    ])
    def test_paper_rule_cases(self, a, expected):
        assert classify(alert_at(a), 100, 14, 1) is expected

    def test_no_alert_is_fn(self):
        assert classify(None, 100, 14, 1) is Verdict.FN

    def test_degenerate_short_cycle_follows_inequalities(self):
        # n <= pp + rd clips the interval: [n-(pp+rd), n-rd) = [-5, 9)
        assert classify(alert_at(5), 10, 14, 1) is Verdict.TP
        assert classify(alert_at(9), 10, 14, 1) is Verdict.FP

    def test_three_regions_partition_the_axis(self):
        n, pp, rd = 60, 10, 2
        for a in range(0, n + 1):
            verdict = classify(alert_at(a), n, pp, rd)
            if n - (pp + rd) <= a < n - rd:
                assert verdict is Verdict.TP
            else:
                assert verdict is Verdict.FP

    def test_shrinking_pp_only_degrades(self):
        # a TP can become FP when pp shrinks, never the reverse
        n, rd = 100, 1
        for a in range(0, n):
            for pp_large, pp_small in ((20, 10), (14, 7)):
                big = classify(alert_at(a), n, pp_large, rd)
                small = classify(alert_at(a), n, pp_small, rd)
                if big is Verdict.FP:
                    assert small is Verdict.FP
                if small is Verdict.TP:
                    assert big is Verdict.TP
