import numpy as np
import pytest

from maintseg.costs import SegmentCost
from maintseg.detectors import METHODS, DetectorConfig
from maintseg.protocol import (ALERT_TIMINGS, Alert, Verdict, classify, replay, run_streaming,
                               run_streaming_trace)
from maintseg.sweep import build_grid, default_grid
from maintseg.synth import SynthSpec, generate_corpus

from conftest import make_cycle, two_regime_series

NEVER_FIRES = DetectorConfig("PELT", penalty=1e12, min_size=2)
PELT_L2 = DetectorConfig("PELT", cost=SegmentCost("l2"), penalty=1.0, min_size=2)
DEFAULT_GRID = build_grid(default_grid())


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


def _settings(config):
    """Every setting of a config but its penalty or threshold."""
    if config.method == "FLUSS":
        return {("FLUSS", config.m, config.znorm, config.channel_rule)}
    return {(config.method, config.cost.label, config.min_size, config.znorm)}


def _values(config):
    """Each setting of a config on its own."""
    if config.method == "FLUSS":
        return {("m", config.m), ("znorm", "FLUSS", config.znorm),
                ("channel_rule", config.channel_rule)}
    return {(config.method, config.cost.label), ("min_size", config.min_size),
            ("znorm", config.method, config.znorm)}


class TestReplay:
    # every 11th default-grid config has every combination of settings but
    # the swept penalty or threshold; every 23rd has each setting's values
    @pytest.mark.parametrize("every,cover", [(11, _settings), (23, _values)])
    def test_sampled_grids_cover_the_default_grid(self, every, cover):
        assert set().union(*map(cover, DEFAULT_GRID[::every])) == \
            set().union(*map(cover, DEFAULT_GRID))

    @pytest.mark.parametrize("alert_at", ALERT_TIMINGS)
    @pytest.mark.parametrize("hourly,step,every", [(False, 7, 11), (True, 48, 23)],
                             ids=["daily", "hourly"])
    def test_equals_one_run_per_config(self, hourly, step, every, alert_at):
        n = 240 if hourly else 90
        spec = SynthSpec(n_days_min=n, n_days_max=n, period_hours=1.0 if hourly else 24.0,
                         change_offset_days=n // 4)
        (cycle,) = generate_corpus(n, 1, spec)
        if not hourly:  # a periodic channel whose regime change FLUSS finds
            cycle = make_cycle(np.column_stack([cycle.samples,
                                                two_regime_series(n, 60) + 2.0]))
        configs = DEFAULT_GRID[::every]
        expected = [run_streaming(cycle, c, step, alert_at) for c in configs]
        assert replay(cycle, configs, step, alert_at) == expected
        assert {c.method for c, alert in zip(configs, expected) if alert} == set(METHODS)
        assert None in expected

    def test_failed_config_stops_alone(self):
        cycle = two_regime_cycle(n=35, change=26)
        broken = DetectorConfig("BINSEG", penalty=1.0)
        ends = []

        def flaky(window, config):
            if config is broken:
                raise RuntimeError("detector failed")
            ends.append(window.end_index)
            return 26 if window.end_index == 28 else None

        first, failure, third = replay(cycle, [PELT_L2, broken, NEVER_FIRES], 7,
                                       detector=flaky)
        assert first == third == Alert(step_end_index=28, change_point_index=26, a=28)
        assert isinstance(failure, RuntimeError)
        assert ends == [7, 7, 14, 14, 21, 21, 28, 28]
        with pytest.raises(RuntimeError, match="detector failed"):
            run_streaming(cycle, broken, 7, detector=flaky)

    def test_window_memo_released_before_the_next_window(self):
        cycle = two_regime_cycle(n=35, change=26)
        seen = []

        def remembering(window, config):
            seen.append(dict(window._memo))
            window._memo[config.config_id] = window.end_index
            return None

        replay(cycle, [PELT_L2, NEVER_FIRES], 14, detector=remembering)
        assert seen == [{}, {PELT_L2.config_id: 14}, {}, {PELT_L2.config_id: 28},
                        {}, {PELT_L2.config_id: 35}]


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
