"""Acceptance gate: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with -s to see them on success)."""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import maintseg.protocol as protocol_mod
from maintseg.core import BusinessParams, znormalize
from maintseg.costs import SegmentCost
from maintseg.detectors import DetectorConfig, detect, matrix_profile, pelt
from maintseg.ingest import (
    CodeGroupingConfig,
    LogFormat,
    build_cycles,
    dataset_stats,
    default_grouping,
    parse_event_log,
)
from maintseg.metrics import best_average_config, best_per_sample, e_score
from maintseg.protocol import Alert, Verdict, classify, run_streaming
from maintseg.sweep import run_sweep, sweep_summary
from maintseg.synth import SynthSpec, generate_corpus

from conftest import exhaustive_segmentation, make_cycle, mp_brute_force

PARAMS = BusinessParams(rd=1.0, pp=14.0, s=0.2)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_pelt_oracle_equivalence():
    with criterion(1, "pelt equals exhaustive oracle"):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for case in range(200):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 3.0))
            if rng.random() < 0.4:
                x[int(rng.integers(0, n)):] += float(rng.uniform(2.0, 6.0))
            spec = SegmentCost("l2" if case % 2 == 0 else "rbf")
            beta = float(rng.uniform(0.0, 6.0))
            min_size = int(rng.integers(1, 4))
            seg = pelt(x, spec, beta, min_size)
            oracle_cost, oracle_sets = exhaustive_segmentation(x, spec, beta, min_size)
            assert abs(seg.total_cost - oracle_cost) < 1e-9, (case, seg, oracle_cost)
            assert seg.breakpoints in oracle_sets, (case, seg.breakpoints, oracle_sets)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_matrix_profile_oracle_equivalence():
    with criterion(2, "matrix profile equals brute force"):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        for case in range(50):
            m = int(rng.choice([4, 8, 16]))
            n = int(rng.integers(m + (m + 1) // 2 + 2, 257))
            x = rng.normal(size=n)
            if case % 5 == 0:
                lo = int(rng.integers(0, n - m))
                x[lo:lo + m] = x[0]  # constant stretch exercises degenerate windows
            profile, index = matrix_profile(x, m)
            bf_profile, bf_index = mp_brute_force(x, m)
            # neighborless positions (m large relative to n) are inf on both sides
            finite = np.isfinite(bf_profile)
            assert np.array_equal(np.isfinite(profile), finite), case
            assert np.abs(profile[finite] - bf_profile[finite]).max() < 1e-9, case
            disagree = finite & (index != bf_index)
            # indices must agree wherever the achieved distances differ by > 1e-6
            assert np.all(np.abs(profile[disagree] - bf_profile[disagree]) <= 1e-6), case
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_e_score_contract():
    with criterion(3, "E_s boundaries, continuity, monotonicity"):
        grid = [(100, 14, 1, 0.2), (100, 14, 1, 1.0), (60, 10, 2, 0.5),
                (200, 30, 0, 0.2), (40, 14, 1, 0.05)]
        for n, pp, rd, s in grid:
            boundary = n - (rd + pp)
            # first two cases of the scoring rule are exact
            assert e_score(n - rd, n, pp, rd, s) == 0.0
            assert e_score(n - rd + 0.5, n, pp, rd, s) == 0.0
            assert e_score(boundary, n, pp, rd, s) == 1.0
            assert e_score(n - rd - 1e-9, n, pp, rd, s) == 1.0
            # continuity at the padding boundary within 1e-9: the ramp limit is 1
            assert abs(e_score(boundary - 1e-12, n, pp, rd, s) - 1.0) < 1e-9
            # monotone non-decreasing in a up to the responsive duration
            xs = np.linspace(0.0, n - rd - 1e-6, 300)
            values = [e_score(float(a), n, pp, rd, s) for a in xs]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_criterion_4_verdict_table():
    with criterion(4, "nine-case verdict table"):
        def at(a):
            return Alert(step_end_index=max(a, 1), change_point_index=max(a, 1) - 1, a=a)

        cases = [
            (at(85), 100, 14, 1, Verdict.TP),   # inclusive padding start
            (at(90), 100, 14, 1, Verdict.TP),   # inside the padding
            (at(98), 100, 14, 1, Verdict.TP),   # last padding sample
            (at(84), 100, 14, 1, Verdict.FP),   # just before the padding
            (at(50), 100, 14, 1, Verdict.FP),   # early alert
            (at(99), 100, 14, 1, Verdict.FP),   # a = n - rd
            (at(100), 100, 14, 1, Verdict.FP),  # at the failure
            (None, 100, 14, 1, Verdict.FN),     # no alert at all
            (at(5), 10, 14, 1, Verdict.TP),     # clipped interval, literal inequalities
        ]
        assert len(cases) == 9
        for alert, n, pp, rd, expected in cases:
            assert classify(alert, n, pp, rd) is expected, (alert, expected)


def test_criterion_5_first_alert_semantics():
    with criterion(5, "first alert stops the stream"):
        cycle = make_cycle(np.zeros(70))
        calls = []

        def fires_on_3_and_5(window, config, axis, sums):
            calls.append(window.end_index)
            return np.full(axis.size, 1 if len(calls) in (3, 5) else -1)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol_mod, "_change_points", fires_on_3_and_5)
            alert = run_streaming(cycle, DetectorConfig("PELT", penalty=1.0), step=7)
        assert alert is not None
        assert alert.step_end_index == 21  # the third window
        assert calls == [7, 14, 21]  # later windows provably not evaluated


def test_criterion_6_synthetic_end_to_end():
    with criterion(6, "synthetic corpus recall/precision"):
        cycles = generate_corpus(seed=2024, n_cycles=50,
                                 spec=SynthSpec(change_offset_days=10))
        tuned = DetectorConfig("PELT", cost=SegmentCost("l2"), penalty=5.0, min_size=2)
        never = DetectorConfig("PELT", penalty=1e12, min_size=2)
        table = run_sweep(cycles, [tuned, never], PARAMS)
        by_config = {}
        for r in table.records:
            by_config.setdefault(r.config_id, []).append(r)

        from maintseg.metrics import aggregate
        tuned_agg = aggregate(by_config[tuned.config_id])
        assert tuned_agg.recall >= 0.9, tuned_agg
        assert tuned_agg.precision >= 0.9, tuned_agg
        never_agg = aggregate(by_config[never.config_id])
        assert never_agg.recall == 0.0


def test_criterion_7_dominance():
    with criterion(7, "best-per-sample dominates best-average"):
        cycles = generate_corpus(seed=5, n_cycles=12,
                                 spec=SynthSpec(n_days_min=30, n_days_max=60))
        configs = [
            DetectorConfig("PELT", penalty=5.0, min_size=2),
            DetectorConfig("PELT", penalty=50.0, min_size=2),
            DetectorConfig("BINSEG", penalty=5.0, min_size=2),
            DetectorConfig("BOTTOMUP", penalty=5.0, min_size=2),
            DetectorConfig("KCPD", penalty=1.0, min_size=2),
            DetectorConfig("FLUSS", threshold=0.45, m=7, znorm=True),
        ]
        table = run_sweep(cycles, configs, PARAMS)
        best = best_per_sample(table.records)
        _, best_avg = best_average_config(table.records)
        assert best.mean_e >= best_avg.mean_e  # exact inequality, no tolerance
        entries = sweep_summary(table.records, PARAMS, [7, 14, 21])
        for entry in entries:
            assert entry["best_per_sample_mean"] >= entry["best_average_mean"]


def test_criterion_8_znorm_affine_invariance():
    with criterion(8, "z-norm affine invariance"):
        rng = np.random.default_rng(99)
        for scale, offset in [(2.5, 17.0), (0.3, -4.0), (1000.0, 12345.0)]:
            x = rng.normal(size=220)
            p1, _ = matrix_profile(x, 8)
            p2, _ = matrix_profile(scale * x + offset, 8)
            assert np.abs(p1 - p2).max() < 1e-6

            w = rng.normal(size=(80, 2))
            w[50:] += 4.0
            cfg = DetectorConfig("PELT", cost=SegmentCost("l2"), penalty=1.0,
                                 min_size=2, znorm=True)
            assert detect(w, cfg) == detect(scale * w + offset, cfg)
            # whole segmentations agree, not just the last breakpoint
            a = pelt(znormalize(w), SegmentCost("l2"), 1.0, 2)
            b = pelt(znormalize(scale * w + offset), SegmentCost("l2"), 1.0, 2)
            assert a.breakpoints == b.breakpoints
            assert abs(a.total_cost - b.total_cost) < 1e-6


def test_criterion_9_dataset_reproduction():
    data = os.environ.get("MAINTSEG_ATM_DATA")
    if not data:
        pytest.skip("[acceptance] criterion 9 (ATM dataset reproduction): SKIPPED "
                    "- set MAINTSEG_ATM_DATA to the raw event log to enable")
    with criterion(9, "ATM dataset reproduction"):
        fmt_path = os.environ.get("MAINTSEG_ATM_FORMAT")
        grouping_path = os.environ.get("MAINTSEG_ATM_GROUPING")
        fmt = (LogFormat.from_json(Path(fmt_path).read_text())
               if fmt_path else LogFormat())
        grouping = (CodeGroupingConfig.from_json(Path(grouping_path).read_text())
                    if grouping_path else default_grouping())
        parsed = parse_event_log(data, fmt)
        result = build_cycles(parsed.records, grouping, ii_days=1.0)
        stats = dataset_stats(result.cycles, result.withdrawal_daily)
        assert stats.total_cycles == 292
        assert stats.total_atms == 156
        assert result.n_codes_seen == 284

        configs = [
            DetectorConfig("PELT", penalty=1.0, min_size=2),
            DetectorConfig("PELT", penalty=1.0, min_size=2, znorm=True),
            DetectorConfig("BINSEG", penalty=1.0, min_size=2, znorm=True),
            DetectorConfig("BOTTOMUP", penalty=1.0, min_size=2, znorm=True),
            DetectorConfig("KCPD", penalty=1.0, min_size=2, znorm=True),
            DetectorConfig("FLUSS", threshold=0.45, m=7, znorm=True),
            DetectorConfig("FLUSS", threshold=0.5, m=7, znorm=True),
        ]
        table = run_sweep(result.cycles, configs, PARAMS, workers=4)
        entries = sweep_summary(table.records, PARAMS, [7, 14, 21])
        assert len(entries) == 3

        best = best_per_sample(table.records)
        scored = [b for b in best.per_cycle if b.e > 0]
        fluss_znorm_wins = sum(
            1 for b in scored
            if b.config_id.startswith("FLUSS") and b.config_id.split("/")[5] == "1")
        assert fluss_znorm_wins > len(scored) / 2, (fluss_znorm_wins, len(scored))


def test_criterion_10_sweep_determinism():
    with criterion(10, "worker-count determinism"):
        cycles = generate_corpus(seed=31, n_cycles=8,
                                 spec=SynthSpec(n_days_min=30, n_days_max=50))
        configs = [
            DetectorConfig("PELT", penalty=5.0, min_size=2),
            DetectorConfig("BINSEG", penalty=5.0, min_size=2),
            DetectorConfig("FLUSS", threshold=0.45, m=7, znorm=True),
        ]
        t1 = run_sweep(cycles, configs, PARAMS, workers=1)
        t8 = run_sweep(cycles, configs, PARAMS, workers=8)
        assert t1.records == t8.records  # canonically sorted, fully identical
        assert t1.fingerprint == t8.fingerprint
