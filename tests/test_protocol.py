import gc
import os
import pickle
import weakref

import numpy as np
import pytest

import maintseg.detectors as detectors_mod
import maintseg.protocol as protocol_mod
from maintseg.costs import CostCache, SegmentCost
from maintseg.core import BusinessParams, prefix_windows
from maintseg.detectors import METHODS, DetectorConfig, cycle_level
from maintseg.protocol import (ALERT_TIMINGS, Alert, Verdict, classify, replay, run_streaming,
                               run_streaming_trace)
from maintseg.sweep import _evaluate_family, build_grid, default_grid
from maintseg.synth import SynthSpec, generate_corpus

from conftest import make_cycle, oracle_replay, per_window, two_regime_series

NEVER_FIRES = DetectorConfig("PELT", penalty=1e12, min_size=2)
PELT_L2 = DetectorConfig("PELT", cost=SegmentCost("l2"), penalty=1.0, min_size=2)
DEFAULT_GRID = build_grid(default_grid())
GRID_PENALTIES = default_grid().methods["PELT"].penalties


def two_regime_cycle(n=35, change=26, base=0.2, level=3.0):
    samples = np.full((n, 1), base)
    samples[change:] = level
    return make_cycle(samples)


class TestRunStreaming:
    def test_never_firing_detector(self):
        cycle = make_cycle(np.zeros(40))
        assert run_streaming(cycle, NEVER_FIRES, 7) is None

    def test_first_fire_window_recorded(self, monkeypatch):
        cycle = make_cycle(np.zeros(100))
        calls = []

        def stub(window, config, axis, sums):
            calls.append(window.end_index)
            return np.full(axis.size, 3 if window.end_index >= 14 else -1)

        monkeypatch.setattr(protocol_mod, "_change_points", stub)
        alert = run_streaming(cycle, NEVER_FIRES, 7)
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

    def test_window_budget(self, monkeypatch):
        # at most ceil(n / T) windows are ever evaluated
        cycle = make_cycle(np.zeros(100))
        calls = []

        def stub(window, config, axis, sums):
            calls.append(window.end_index)
            return np.full(axis.size, -1)

        monkeypatch.setattr(protocol_mod, "_change_points", stub)
        assert run_streaming(cycle, NEVER_FIRES, 7) is None
        assert len(calls) == 15  # ceil(100 / 7)

    def test_trace_rows_match_windows_evaluated(self):
        cycle = two_regime_cycle(n=35, change=26)
        alert, trace = run_streaming_trace(cycle, PELT_L2, 7)
        assert alert is not None
        assert [t.end_index for t in trace] == [7, 14, 21, 28]
        assert trace[-1].fired and not any(t.fired for t in trace[:-1])

        _, full_trace = run_streaming_trace(cycle, NEVER_FIRES, 7)
        assert [t.end_index for t in full_trace] == [7, 14, 21, 28, 35]

    @pytest.mark.parametrize("alert_at", ALERT_TIMINGS)
    def test_trace_alerts_equal_the_replay(self, alert_at):
        # the trace detects each window with detect_with_score, one config
        # at a time (PELT and KCPD in the replay's batches of windows); its
        # alerts are the replay's, its scores one solve per window's
        spec = SynthSpec(n_days_min=90, n_days_max=90, change_offset_days=22)
        (cycle,) = generate_corpus(90, 1, spec)
        cycle = make_cycle(np.column_stack([cycle.samples, two_regime_series(90, 60) + 2.0]))
        configs = DEFAULT_GRID[::29]
        traced = [run_streaming_trace(cycle, c, 7, alert_at) for c in configs]
        assert [alert for alert, _ in traced] == replay(cycle, configs, 7, alert_at)
        assert {c.method for c, (alert, _) in zip(configs, traced) if alert} == set(METHODS)
        windows = {w.end_index: w for w in prefix_windows(cycle, 7)}
        for config, (_, trace) in zip(configs, traced):
            for row in trace:
                cp, score = detectors_mod.detect_with_score(windows[row.end_index], config)
                assert (row.change_point, row.score) == (cp, score)
        with pytest.raises(ValueError):
            run_streaming_trace(cycle, configs[0], 7, alert_at="nonsense")


_ORACLE: dict = {}


def _oracle_once(window, config):
    """:func:`per_window`, computed once per (cycle, window, config): a
    detection does not depend on the alert timing."""
    key = (window.cycle.key, window.cycle.n, window.end_index, config)
    if key not in _ORACLE:
        _ORACLE[key] = per_window(window, config)
    return _ORACLE[key]


def alert_at_window(end, cp):
    return Alert(step_end_index=end, change_point_index=cp, a=end)


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
    def test_equals_one_run_per_config(self, hourly, step, every, alert_at, monkeypatch):
        n = 240 if hourly else 90
        spec = SynthSpec(n_days_min=n, n_days_max=n, period_hours=1.0 if hourly else 24.0,
                         change_offset_days=n // 4)
        (cycle,) = generate_corpus(n, 1, spec)
        if not hourly:  # a periodic channel whose regime change FLUSS finds
            cycle = make_cycle(np.column_stack([cycle.samples,
                                                two_regime_series(n, 60) + 2.0]))
        configs = DEFAULT_GRID[::every]
        detected = []
        real = protocol_mod._change_points

        def noting(window, config, axis, sums):
            detected.append((window.end_index, config))
            return real(window, config, axis, sums)

        expected = oracle_replay(cycle, configs, step, alert_at)
        monkeypatch.setattr(protocol_mod, "_change_points", noting)
        assert replay(cycle, configs, step, alert_at) == expected
        monkeypatch.undo()
        assert [run_streaming(cycle, c, step, alert_at) for c in configs] == expected
        assert {c.method for c, alert in zip(configs, expected) if alert} == set(METHODS)
        assert None in expected
        # cycle-level tables and PELT programs serve more than one window
        for method in ("PELT", "BINSEG", "BOTTOMUP"):
            assert len({end for end, c in detected
                        if c.method == method and cycle_level(c)}) >= 2

    @pytest.mark.parametrize("alert_at", ALERT_TIMINGS)
    def test_whole_penalty_axes_equal_one_run_per_config(self, alert_at):
        # every penalty of a solve key runs on one window, so each window's
        # first config of a key solves the penalties of all that still run
        spec = SynthSpec(n_days_min=49, n_days_max=49, change_offset_days=14)
        (cycle,) = generate_corpus(5, 1, spec)
        configs = [c for c in DEFAULT_GRID
                   if c.method != "FLUSS" and c.cost.label in ("l1", "rbf")
                   or c.method == "KCPD" and c.cost.label == "rbf:0.1"]
        assert len(configs) == 4 * 2 * 12 * 3 * 2
        expected = oracle_replay(cycle, configs, 7, alert_at)
        assert replay(cycle, configs, 7, alert_at) == expected
        assert [run_streaming(cycle, c, 7, alert_at) for c in configs] == expected
        # configs stop at different windows, so later windows solve fewer penalties
        assert len({alert.step_end_index for alert in expected if alert}) >= 3
        assert None in expected

    @pytest.mark.parametrize("alert_at", ALERT_TIMINGS)
    def test_zero_and_repeated_penalties_equal_one_run_per_config(self, alert_at):
        # a key's penalty axis unsorted, with 0.0, -0.0 and repeats: each
        # config reads its own penalty's last breakpoint
        spec = SynthSpec(n_days_min=60, n_days_max=60, change_offset_days=20)
        (cycle,) = generate_corpus(9, 1, spec)
        configs = [DetectorConfig(method, cost=SegmentCost(label), penalty=p, min_size=2,
                                  znorm=znorm)
                   for method, label in (("PELT", "l2"), ("BINSEG", "l1"), ("BOTTOMUP", "l2"),
                                         ("KCPD", "rbf"), ("PELT", "rbf"))
                   for znorm in (False, True) for p in (5.0, 0.0, 1e9, -0.0, 0.5, 5.0, 0.0)]
        expected = oracle_replay(cycle, configs, 7, alert_at)
        assert replay(cycle, configs, 7, alert_at) == expected
        assert None in expected and len({a.step_end_index for a in expected if a}) >= 2

    @pytest.mark.parametrize("alert_at", ALERT_TIMINGS)
    def test_batched_windows_equal_one_run_per_config(self, alert_at):
        # the per-window families (znorm on, median-bandwidth rbf, KCPD) at
        # every cost, min_size and znorm setting and a third of the penalty
        # axis, over ten hourly windows: batches of 1, 2, 4 and 3 windows
        spec = SynthSpec(n_days_min=240, n_days_max=240, period_hours=1.0,
                         change_offset_days=60)
        (cycle,) = generate_corpus(5, 1, spec)
        configs = [c for c in DEFAULT_GRID if c.method != "FLUSS" and not cycle_level(c)
                   and c.penalty in GRID_PENALTIES[::3]]
        assert {c.method for c in configs} == set(METHODS) - {"FLUSS"}
        assert len(configs) == 828 // 3
        expected = oracle_replay(cycle, configs, 24, alert_at, _oracle_once)
        assert replay(cycle, configs, 24, alert_at) == expected
        # configs stop in several batches, and some never fire
        assert len({alert.step_end_index for alert in expected if alert}) >= 4
        assert None in expected

    def test_batch_builds_no_tables_past_twice_the_firing_window(self, monkeypatch):
        # a solve at the i-th window covers windows i..2i: a config that fires
        # on the k-th window (0-based) has tables built for at most 2k + 1
        cycle = two_regime_cycle(n=70, change=26)
        built = []

        class Counted(CostCache):
            def __init__(self, signal, spec=None):
                super().__init__(signal, spec)
                built.append(self.n)

        monkeypatch.setattr(detectors_mod, "CostCache", Counted)
        rbf = DetectorConfig("PELT", cost=SegmentCost("rbf", gamma=1.0), penalty=1.0,
                             min_size=2)
        for step, fires in ((28, 28), (9, 36), (3, 30), (7, 28)):
            built.clear()
            (alert,) = replay(cycle, [rbf], step)
            assert alert == alert_at_window(fires, 26)
            ends = [w.end_index for w in prefix_windows(cycle, step)]
            k = ends.index(fires)
            assert built == ends[:len(built)] and k < len(built) <= 2 * k + 1
        assert len(built) == 2 * k + 1  # step 7 fires on window 3: batches of 1, 2 and 4
        built.clear()
        assert replay(cycle, [rbf], 28) == [alert_at_window(28, 26)]
        assert built == [28]  # fires on its first window: that window's tables only

    def test_batch_cells_stay_within_the_budget(self, monkeypatch):
        # a step-1 replay of a long cycle: the batches grow to the cell
        # budget, never past it, and always hold their first window; the
        # windows shorter than 2 * min_size need no program
        cycle = make_cycle(np.random.default_rng(4).gamma(2.0, size=(300, 2)))
        batches = []
        class Noting(detectors_mod._PeltProgram):
            def __init__(self, penalties, min_size, caches, ns):
                batches.append(list(ns))
                assert ns == [c.n for c in caches]  # each window's own tables
                cells = sum((n + 1) * (n + 1 + len(penalties)) for n in ns)
                assert len(ns) == 1 or cells <= detectors_mod._BATCH_CELLS
                super().__init__(penalties, min_size, caches, ns)

        monkeypatch.setattr(detectors_mod, "_PeltProgram", Noting)
        never = DetectorConfig("PELT", cost=SegmentCost("rbf", gamma=1.0), penalty=1e12,
                               min_size=2)
        assert replay(cycle, [never], 1) == [None]
        assert [n for batch in batches for n in batch] == list(range(4, 301))
        assert max(map(len, batches)) > 8  # doubling, then cut by the budget
        assert batches[-1][-1] == 300 and len(batches[-1]) < 150

    def test_cycle_level_family_is_one_solve_per_cycle(self, monkeypatch):
        # a cycle-level PELT family is solved once per cycle, at its first
        # window, over the cycle's tables; each window's entry is read only
        # for the segments that end past the window before it, as a dynamic
        # program advanced window by window reads them
        spec = SynthSpec(n_days_min=240, n_days_max=240, period_hours=1.0,
                         change_offset_days=60)
        (cycle,) = generate_corpus(5, 1, spec)
        configs = [c for c in DEFAULT_GRID if c.method == "PELT" and cycle_level(c)
                   and c.penalty in GRID_PENALTIES[2::3]]
        expected = oracle_replay(cycle, configs, 24, detector=_oracle_once)
        assert None in expected and len({a.step_end_index for a in expected if a}) >= 2
        ends = [w.end_index for w in prefix_windows(cycle, 24)]
        reads, solves = [], []

        class Noted(CostCache):
            def values(self, starts, stops):
                reads.append((self.n, np.broadcast_to(stops, np.shape(starts)).tolist()))
                return super().values(starts, stops)

        class Noting(detectors_mod._PeltProgram):
            def __init__(self, penalties, min_size, caches, ns):
                solves.append((caches[0].spec.label, min_size, list(ns)))
                # every window reads the cycle's tables themselves
                assert all(c is caches[-1] for c in caches) and caches[-1].n == cycle.n
                super().__init__(penalties, min_size, caches, ns)

        monkeypatch.setattr(detectors_mod, "CostCache", Noted)
        monkeypatch.setattr(detectors_mod, "_PeltProgram", Noting)
        assert replay(cycle, configs, 24) == expected
        keys = {(c.cost.label, c.min_size) for c in configs}
        assert sorted(solves) == sorted((*key, ends) for key in keys)
        assert {n for n, _ in reads} == {cycle.n}
        before = dict(zip(ends, [0, *ends]))  # each window's end -> the one before it
        for _, stops in reads:  # a read's segments end inside one window's columns
            end = ends[np.searchsorted(ends, min(stops))]
            assert before[end] < min(stops) and max(stops) <= end

    def test_cycle_level_solve_stops_at_the_first_alert(self, monkeypatch):
        # one config that fires early, as `maintseg evaluate` replays it:
        # its one solve covers every window but reads no cost past the
        # window it fires on
        spec = SynthSpec(n_days_min=240, n_days_max=240, period_hours=1.0,
                         change_offset_days=60)
        (cycle,) = generate_corpus(5, 1, spec)
        stops, solves = [], []

        class Noted(CostCache):
            def values(self, starts, ends):
                stops.append(int(np.max(ends)))
                return super().values(starts, ends)

        class Noting(detectors_mod._PeltProgram):
            def __init__(self, *args):
                solves.append(args)
                super().__init__(*args)

        for label in ("l1", "l2", "normal"):
            config = DetectorConfig("PELT", cost=SegmentCost(label), penalty=0.01, min_size=2)
            (expected,) = oracle_replay(cycle, [config], 24, detector=_oracle_once)
            assert expected is not None and expected.step_end_index < cycle.n
            with monkeypatch.context() as patch:
                patch.setattr(detectors_mod, "CostCache", Noted)
                patch.setattr(detectors_mod, "_PeltProgram", Noting)
                stops[:], solves[:] = [], []
                assert replay(cycle, [config], 24) == [expected]
            assert len(solves) == 1 and max(stops) == expected.step_end_index
            with monkeypatch.context() as patch:  # the same one solve in a trace
                patch.setattr(detectors_mod, "CostCache", Noted)
                patch.setattr(detectors_mod, "_PeltProgram", Noting)
                stops[:], solves[:] = [], []
                assert run_streaming_trace(cycle, config, 24)[0] == expected
            assert len(solves) == 1 and max(stops) == expected.step_end_index

    def test_trace_solves_in_the_replays_batches(self, monkeypatch):
        # a trace's PELT or KCPD config makes the replay's programs: one per
        # cycle when cycle-level, the doubling batches otherwise, firing or not
        spec = SynthSpec(n_days_min=240, n_days_max=240, period_hours=1.0,
                         change_offset_days=60)
        (cycle,) = generate_corpus(5, 1, spec)
        solves = []

        class Noting(detectors_mod._PeltProgram):
            def __init__(self, *args):
                solves.append(list(args[3]))
                super().__init__(*args)

        monkeypatch.setattr(detectors_mod, "_PeltProgram", Noting)
        for config in (NEVER_FIRES, PELT_L2,
                       DetectorConfig("PELT", cost=SegmentCost("l1"), penalty=1e12, min_size=3),
                       DetectorConfig("PELT", penalty=1e12, min_size=2, znorm=True),
                       DetectorConfig("KCPD", penalty=1e12, min_size=2)):
            solves[:] = []
            (alert,) = replay(cycle, [config], 24)
            replayed = solves[:]
            solves[:] = []
            traced, trace = run_streaming_trace(cycle, config, 24)
            assert (traced, solves) == (alert, replayed)
            assert len(solves) == 1 or not cycle_level(config)
            assert len(trace) == len(prefix_windows(cycle, 24)) or alert

    @pytest.mark.parametrize("where", ["values", "build"])
    def test_failed_tables_fail_their_window_only(self, where, monkeypatch):
        # tables that fail at one window's length fail the configs still
        # running there, as the per-window oracle does; configs that stop
        # earlier keep their alerts, and no other window fails
        spec = SynthSpec(n_days_min=98, n_days_max=98, change_offset_days=30)
        (cycle,) = generate_corpus(5, 1, spec)
        configs = [c for c in DEFAULT_GRID if c.method != "FLUSS" and not cycle_level(c)
                   and c.cost.label in ("rbf", "l2") and c.min_size == 2]

        class Failing(CostCache):
            def __init__(self, signal, spec=None):
                if where == "build" and len(signal) == 63:
                    raise RuntimeError("no tables at 63")
                super().__init__(signal, spec)

            def values(self, starts, ends):
                if self.n == 63:
                    raise RuntimeError("no costs at 63")
                return super().values(starts, ends)

        monkeypatch.setattr(detectors_mod, "CostCache", Failing)

        def outcome(alert):
            return repr(alert) if isinstance(alert, Exception) else alert

        for alert_at in ALERT_TIMINGS:
            expected = list(map(outcome, oracle_replay(cycle, configs, 7, alert_at)))
            assert list(map(outcome, replay(cycle, configs, 7, alert_at))) == expected
            # alerts on the first window and on the one before the failure,
            # whose batch was cut; every other config fails at 63
            assert {a.step_end_index for a in expected if isinstance(a, Alert)} == {7, 56}
            assert {a for a in expected if not isinstance(a, Alert)} == \
                {repr(RuntimeError(f"no {'tables' if where == 'build' else 'costs'} at 63"))}

    def test_failed_key_stops_alone(self, monkeypatch):
        # PELT_L2 and NEVER_FIRES share a solve key, so one call per window
        # answers both; the failing BINSEG key stops on its first window
        cycle = two_regime_cycle(n=35, change=26)
        broken = DetectorConfig("BINSEG", penalty=1.0)
        ends = []

        def flaky(window, config, axis, sums):
            if config is broken:
                raise RuntimeError("detector failed")
            ends.append(window.end_index)
            return np.full(axis.size, 26 if window.end_index == 28 else -1)

        monkeypatch.setattr(protocol_mod, "_change_points", flaky)
        first, failure, third = replay(cycle, [PELT_L2, broken, NEVER_FIRES], 7)
        assert first == third == Alert(step_end_index=28, change_point_index=26, a=28)
        assert isinstance(failure, RuntimeError)
        assert ends == [7, 14, 21, 28]
        with pytest.raises(RuntimeError, match="detector failed"):
            run_streaming(cycle, broken, 7)

    def test_window_memo_released_before_the_next_window(self, monkeypatch):
        cycle = two_regime_cycle(n=35, change=26)
        seen = []

        def remembering(window, config, axis, sums):
            seen.append(dict(window._memo))
            window._memo[config.method] = window.end_index
            return np.full(axis.size, -1)

        monkeypatch.setattr(protocol_mod, "_change_points", remembering)
        replay(cycle, [PELT_L2, DetectorConfig("BINSEG", penalty=1e12)], 14)
        # each window starts with an empty memo (both keys run on every window)
        assert seen == [{}, {"PELT": 14}, {}, {"PELT": 28}, {}, {"PELT": 35}]

    def test_cycle_tables_released_when_replay_returns(self, monkeypatch):
        # the tables built over the whole cycle, and those a batch built
        # ahead for windows the replay never reaches, are dropped with the
        # replay, also when a failed config's traceback outlives it
        cycle = two_regime_cycle(n=35, change=26)
        built = []

        class Noted(CostCache):
            def __init__(self, signal, spec=None):
                super().__init__(signal, spec)
                built.append((len(self.signal), weakref.ref(self)))

        real = protocol_mod._change_points

        def failing(window, config, axis, sums):
            cps = real(window, config, axis, sums)
            if config is PELT_L2 and window.end_index == 21:
                raise RuntimeError("after the solve")
            return cps

        monkeypatch.setattr(detectors_mod, "CostCache", Noted)
        monkeypatch.setattr(protocol_mod, "_change_points", failing)
        rbf = DetectorConfig("PELT", cost=SegmentCost("rbf", gamma=1.0), penalty=1.0,
                             min_size=2)
        gc.disable()  # a reference cycle through the traceback must not matter
        try:
            never = DetectorConfig("PELT", penalty=1e12, min_size=3)  # another solve key
            outcomes = replay(cycle, [PELT_L2, never,
                                      DetectorConfig("BINSEG", cost=SegmentCost("l1"),
                                                     penalty=1e12)], 7)
            assert isinstance(outcomes[0], RuntimeError) and outcomes[1:] == [None, None]
            assert [n for n, _ in built] == [35, 35]  # one per cost, over the cycle
            assert [ref() for _, ref in built] == [None, None]
            built.clear()
            # a per-window family that fires early: its last batch, windows
            # 16..31 of a step-1 replay, built tables past the firing window
            outcomes = replay(cycle, [PELT_L2, rbf], 1)
            assert isinstance(outcomes[0], RuntimeError)
            assert outcomes[1] == alert_at_window(28, 26)
            assert [n for n, _ in built] == [35, *range(1, 32)]
            assert [ref() for _, ref in built] == [None] * 32
        finally:
            gc.enable()

    def test_family_task_pickles_without_tables(self):
        # a sweep task is what a worker process receives: the cycle and the
        # configs, never tables, before or after it is evaluated
        cycle = two_regime_cycle(n=35, change=26)
        task = (cycle, [PELT_L2, NEVER_FIRES], BusinessParams(), 7, "window-end")
        before = pickle.dumps(task)
        assert b"CostCache" not in before and len(before) < 2000
        records = _evaluate_family(task)
        assert [r.verdict for r in records] == [Verdict.TP, Verdict.FN]
        assert pickle.dumps(task) == before


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


@pytest.mark.skipif(not os.environ.get("MAINTSEG_RUN_SLOW"),
                    reason="half-minute oracle run; set MAINTSEG_RUN_SLOW=1")
def test_default_grid_equals_per_window_oracle():
    # the whole shipped grid on 3 seeded cycles, at both alert timings
    for cycle in generate_corpus(11, 3, SynthSpec()):
        for alert_at in ALERT_TIMINGS:
            assert replay(cycle, DEFAULT_GRID, 7, alert_at) == \
                oracle_replay(cycle, DEFAULT_GRID, 7, alert_at)


@pytest.mark.skipif(not os.environ.get("MAINTSEG_RUN_SLOW"),
                    reason="minute-long oracle run; set MAINTSEG_RUN_SLOW=1")
def test_hourly_default_grid_equals_per_window_oracle():
    # the whole shipped grid on one 240-bucket hourly cycle in steps of 12
    # buckets: 20 windows, so batches of up to 10, at both alert timings
    spec = SynthSpec(n_days_min=240, n_days_max=240, period_hours=1.0, change_offset_days=60)
    (cycle,) = generate_corpus(13, 1, spec)
    for alert_at in ALERT_TIMINGS:
        assert replay(cycle, DEFAULT_GRID, 12, alert_at) == \
            oracle_replay(cycle, DEFAULT_GRID, 12, alert_at)
