import itertools
from dataclasses import replace

import numpy as np
import pytest

import maintseg.detectors as detectors_mod
from maintseg.core import Window, znormalize
from maintseg.costs import PREFIX_KINDS, CostCache, SegmentCost, cost_from_label
from maintseg.detectors import (
    DetectorConfig,
    Segmentation,
    binseg,
    bottomup,
    detect,
    detect_with_score,
    fluss_cac,
    kcpd,
    matrix_profile,
    pelt,
)
from maintseg.sweep import default_grid

from conftest import (GatheredPeltProgram, exhaustive_segmentation, make_cycle, mp_brute_force,
                      mp_diagonal_sweep, two_regime_series)

STEP_FIXTURE = np.array([0.0] * 5 + [10.0] * 5)
TWO_STEP_FIXTURE = np.array([0.0] * 5 + [10.0] * 5 + [0.0] * 5)
L2 = SegmentCost("l2")


class TestDetectorConfig:
    def test_segmentation_defaults(self):
        cfg = DetectorConfig("PELT", penalty=1.0)
        assert cfg.cost == SegmentCost("l2")
        assert cfg.min_size == 2

    def test_kcpd_requires_rbf(self):
        assert DetectorConfig("KCPD", penalty=1.0).cost.kind == "rbf"
        with pytest.raises(ValueError):
            DetectorConfig("KCPD", penalty=1.0, cost=SegmentCost("l2"))

    def test_fluss_fields(self):
        cfg = DetectorConfig("FLUSS", threshold=0.45, m=7)
        assert cfg.channel_rule == "any"
        with pytest.raises(ValueError):
            DetectorConfig("FLUSS", threshold=1.5, m=7)
        with pytest.raises(ValueError):
            DetectorConfig("FLUSS", threshold=0.4, m=2)
        with pytest.raises(ValueError):
            DetectorConfig("FLUSS", threshold=0.4, m=7, penalty=1.0)

    def test_irrelevant_fields_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig("PELT", penalty=1.0, threshold=0.4)
        with pytest.raises(ValueError):
            DetectorConfig("PELT")  # penalty missing
        with pytest.raises(ValueError):
            DetectorConfig("PELT", penalty=-1.0)

    @pytest.mark.parametrize("method", ["PELT", "BINSEG", "BOTTOMUP", "KCPD"])
    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_penalty_rejected(self, method, penalty):
        with pytest.raises(ValueError, match=f"finite penalty >= 0, got {penalty!r}"):
            DetectorConfig(method, penalty=penalty)

    @pytest.mark.parametrize("cfg", [
        DetectorConfig("PELT", penalty=0.046415888336127774, min_size=3),
        DetectorConfig("BINSEG", cost=SegmentCost("l1"), penalty=2.0, znorm=True),
        DetectorConfig("BOTTOMUP", cost=SegmentCost("normal"), penalty=10.0),
        DetectorConfig("KCPD", cost=SegmentCost("rbf", gamma=0.1), penalty=5.0),
        DetectorConfig("FLUSS", threshold=0.315, m=14, znorm=True, channel_rule="sum"),
    ])
    def test_id_round_trip_is_exact(self, cfg):
        assert DetectorConfig.from_id(cfg.config_id) == cfg

    @pytest.mark.parametrize("config_id, reason", [
        ("PELT/l2/5.0/two/-/0/-", "invalid literal for int"),
        ("FLUSS/-/0.3/-/seven/1/any", "invalid literal for int"),
        ("PELT/l3/5.0/2/-/0/-", "unknown cost kind 'l3'"),
        ("PELT/l2/5.0/2/-/x/-", "invalid literal for int"),
        ("PELT/l2/-1.0/2/-/0/-", "finite penalty"),
        ("PELT/l2/5.0/2/-/0", ""),
    ])
    def test_malformed_id_is_named(self, config_id, reason):
        with pytest.raises(ValueError, match=rf"^malformed config id '{config_id}'.*{reason}"):
            DetectorConfig.from_id(config_id)

    def test_id_field_layout(self):
        cfg = DetectorConfig("PELT", penalty=5.0, min_size=2)
        assert cfg.config_id == "PELT/l2/5.0/2/-/0/-"
        cfg = DetectorConfig("FLUSS", threshold=0.45, m=7, znorm=True)
        assert cfg.config_id == "FLUSS/-/0.45/-/7/1/any"


class TestPelt:
    def test_constant_signal_no_breakpoints(self):
        seg = pelt(np.full(20, 2.0), L2, 0.5, 1)
        assert seg.breakpoints == ()

    def test_single_step_found(self):
        seg = pelt(STEP_FIXTURE, L2, 1.0, 1)
        assert seg.breakpoints == (5,)
        oracle_cost, oracle_sets = exhaustive_segmentation(STEP_FIXTURE, L2, 1.0, 1)
        assert seg.total_cost == pytest.approx(oracle_cost, abs=1e-9)
        assert seg.breakpoints in oracle_sets

    def test_huge_penalty_suppresses_everything(self, rng):
        x = rng.normal(size=30) * 10
        assert pelt(x, L2, 1e12, 1).breakpoints == ()

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            pelt(STEP_FIXTURE, L2, -1.0, 1)

    def test_short_signal_returns_empty(self):
        seg = pelt(np.array([1.0, 2.0]), L2, 1.0, 3)
        assert seg.breakpoints == ()

    @pytest.mark.parametrize("kind", ["l2", "rbf"])
    def test_matches_exhaustive_oracle(self, kind, rng):
        spec = SegmentCost(kind)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            if rng.random() < 0.4:
                x[int(rng.integers(0, n)):] += 4.0
            beta = float(rng.uniform(0.01, 5.0))
            min_size = int(rng.integers(1, 4))
            seg = pelt(x, spec, beta, min_size)
            oracle_cost, oracle_sets = exhaustive_segmentation(x, spec, beta, min_size)
            assert seg.total_cost == pytest.approx(oracle_cost, abs=1e-9)
            assert seg.breakpoints in oracle_sets

    @pytest.mark.parametrize("kind", ["l1", "l2", "normal", "rbf"])
    def test_matches_exhaustive_oracle_at_min_size_one(self, kind, rng):
        spec = SegmentCost(kind)
        for _ in range(150):
            n = int(rng.integers(2, 13))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            if rng.random() < 0.4:
                x[int(rng.integers(0, n)):] += 4.0
            beta = float(rng.uniform(0.01, 5.0))
            seg = pelt(x, spec, beta, 1)
            oracle_cost, oracle_sets = exhaustive_segmentation(x, spec, beta, 1)
            # the cached normal cost takes covariances from prefix sums, whose
            # cancellation is ~1e-14 against eps = 1e-6 on one-sample segments
            assert seg.total_cost == pytest.approx(oracle_cost, rel=1e-9, abs=1e-9)
            assert seg.breakpoints in oracle_sets

    def test_penalty_monotonicity(self, rng):
        # more penalty can never mean more breakpoints
        for _ in range(10):
            x = rng.normal(size=40)
            x[15:] += 3.0
            x[30:] -= 5.0
            counts = [len(pelt(x, L2, b, 2).breakpoints)
                      for b in (0.01, 0.1, 1.0, 10.0, 100.0)]
            assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))

    def test_breakpoint_spacing_respects_min_size(self, rng):
        x = rng.normal(size=60)
        x[17:] += 6.0
        x[41:] -= 6.0
        for min_size in (1, 3, 7):
            seg = pelt(x, L2, 0.5, min_size)
            bounds = [0, *seg.breakpoints, 60]
            assert all(b - a >= min_size for a, b in zip(bounds, bounds[1:]))


class TestBinseg:
    def test_single_step(self):
        assert binseg(STEP_FIXTURE, L2, 1.0, 1).breakpoints == (5,)

    def test_constant(self):
        assert binseg(np.full(12, 1.0), L2, 1.0, 1).breakpoints == ()

    def test_two_changes_recovered_as_set(self):
        seg = binseg(TWO_STEP_FIXTURE, L2, 1.0, 1)
        assert set(seg.breakpoints) == {5, 10}

    def test_gain_must_strictly_exceed_penalty(self):
        # splitting the step signal at 5 gains exactly 250
        assert binseg(STEP_FIXTURE, L2, 250.0, 1).breakpoints == ()
        assert binseg(STEP_FIXTURE, L2, 249.999, 1).breakpoints == (5,)


class TestBottomup:
    def test_constant_merges_to_nothing(self):
        assert bottomup(np.zeros(20), L2, 1.0, 3).breakpoints == ()
        assert bottomup(np.zeros(20), L2, 0.0, 3).breakpoints == ()

    def test_single_step(self):
        assert bottomup(STEP_FIXTURE, L2, 1.0, 1).breakpoints == (5,)

    def test_zero_penalty_keeps_initial_grid_on_generic_signal(self, rng):
        # every merge strictly increases cost, and the stopping rule is strict
        x = rng.normal(size=20)
        seg = bottomup(x, L2, 0.0, 3)
        assert seg.breakpoints == (3, 6, 9, 12, 15)

    def test_initial_grid_respects_min_size_at_the_tail(self):
        # n=10, min_size=3: grid [3, 6]; 9 would leave a 1-sample tail
        x = np.asarray([0.0, 9.0] * 5)
        seg = bottomup(x, L2, 0.0, 3)
        assert seg.breakpoints == (3, 6)


class TestKcpd:
    def test_definitional_equivalence_with_pelt(self, rng):
        for _ in range(10):
            x = rng.normal(size=(int(rng.integers(6, 40)), 2))
            beta = float(rng.uniform(0.05, 2.0))
            a = kcpd(x, beta, 2)
            b = pelt(x, SegmentCost("rbf"), beta, 2)
            assert a.breakpoints == b.breakpoints
            assert a.total_cost == pytest.approx(b.total_cost, rel=1e-12)

    def test_block_clusters_recovered(self, rng):
        blocks = [rng.normal(0, 0.1, size=(5, 2)) + (8.0 if i % 2 else 0.0)
                  for i in range(4)]
        x = np.vstack(blocks)
        seg = kcpd(x, 0.05, 2)
        assert set(seg.breakpoints) == {5, 10, 15}

    def test_rejects_non_rbf_kernel(self):
        with pytest.raises(ValueError):
            kcpd(STEP_FIXTURE, 1.0, 1, kernel=SegmentCost("l2"))


class TestMethodOrdering:
    def test_exact_method_lower_bounds_greedy_methods(self, rng):
        for _ in range(15):
            n = int(rng.integers(10, 50))
            x = rng.normal(size=n)
            if rng.random() < 0.5:
                x[n // 2:] += rng.uniform(1, 5)
            beta = float(rng.uniform(0.05, 10.0))
            p = pelt(x, L2, beta, 2).total_cost
            assert p <= binseg(x, L2, beta, 2).total_cost + 1e-9
            assert p <= bottomup(x, L2, beta, 2).total_cost + 1e-9


class TestMatrixProfile:
    def test_repeated_pattern_has_near_zero_profile(self):
        t = np.arange(128, dtype=float)
        x = np.sin(2 * np.pi * t / 64.0)  # two identical noiseless periods
        profile, _ = matrix_profile(x, 32)
        assert profile.min() < 1e-5

    def test_matches_brute_force(self, rng):
        for _ in range(6):
            n = int(rng.integers(40, 160))
            m = int(rng.choice([4, 8, 16]))
            x = rng.normal(size=n)
            profile, index = matrix_profile(x, m)
            bf_profile, bf_index = mp_brute_force(x, m)
            np.testing.assert_allclose(profile, bf_profile, atol=1e-9)
            for i in range(len(profile)):
                if index[i] != bf_index[i]:
                    assert abs(profile[i] - bf_profile[i]) <= 1e-6

    def test_degenerate_windows_convention(self):
        # constant stretches are zero vectors: 0 to each other, sqrt(m) to others
        x = np.concatenate([np.full(20, 2.0), np.random.default_rng(0).normal(size=30)])
        m = 6
        profile, index = mp_brute_force(x, m)
        fast_profile, _ = matrix_profile(x, m)
        np.testing.assert_allclose(fast_profile, profile, atol=1e-9)
        assert fast_profile[0] == pytest.approx(0.0, abs=1e-12)  # two flat windows match

    @pytest.mark.parametrize("m", [3, 5, 7, 14, 24])
    @pytest.mark.parametrize("data", ["continuous", "eighths", "count-ratio", "partly-flat"])
    def test_bitwise_the_diagonal_sweep(self, m, data, rng):
        # profile bits and index equal the one-diagonal-at-a-time kernel's,
        # so ties in quantized data resolve as they always have; n runs from
        # the shortest admissible series across several blocks of diagonals
        shortest = m + (m + 1) // 2 + 1  # n - shortest + 1 diagonals
        for n in sorted({shortest, shortest + 1, shortest + 2, 11 * m, shortest + 63,
                         shortest + 64, shortest + 127, shortest + 128, 200, 361}):
            x = {"continuous": lambda: rng.normal(size=n),
                 "eighths": lambda: np.round(rng.normal(size=n) * 8) / 8,
                 "count-ratio": lambda: rng.poisson(2, n) / np.maximum(rng.poisson(3, n), 1),
                 "partly-flat": lambda: np.concatenate(
                     [np.full(n // 3, 0.25), np.round(rng.normal(size=n - n // 3) * 8) / 8]),
                 }[data]()
            profile, index = matrix_profile(x, m)
            want_profile, want_index = mp_diagonal_sweep(x, m)
            assert profile.tobytes() == want_profile.tobytes(), n
            assert index.tolist() == want_index.tolist(), n

    def test_invalid_series_rejected(self):
        with pytest.raises(ValueError):
            matrix_profile(np.zeros(10), 8)  # needs m + ceil(m/2) + 1 = 13
        for bad in (np.nan, np.inf):
            x = np.arange(20.0)
            x[7] = bad
            with pytest.raises(ValueError, match="finite"):
                matrix_profile(x, 5)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=180)
        p1, _ = matrix_profile(x, 8)
        p2, _ = matrix_profile(2.5 * x + 17.0, 8)
        np.testing.assert_allclose(p1, p2, atol=1e-6)


class TestFlussCac:
    def test_uncrossed_boundary_is_the_minimum(self):
        # two self-contained arc blocks: nothing spans the boundary at 50,
        # so the curve dips to exactly 0 there
        n_sub = 100
        idx = np.empty(n_sub, dtype=int)
        for i in range(50):
            idx[i] = i + 2 if i < 48 else i - 2
        for i in range(50, 100):
            idx[i] = i + 2 if i < 98 else i - 2
        cac = fluss_cac(idx, m=2, n_sub=n_sub)
        assert np.all(cac >= 0.0) and np.all(cac <= 1.0)
        pos = 10 + int(np.argmin(cac[10:-10]))
        assert 48 <= pos <= 50
        assert cac[pos] == 0.0

    def test_uniform_random_arcs_keep_interior_high(self):
        m = 5
        n_sub = 300
        excl = (m + 1) // 2
        for seed in range(30):
            rng = np.random.default_rng(seed)
            idx = np.empty(n_sub, dtype=int)
            for i in range(n_sub):
                admissible = np.concatenate([
                    np.arange(0, max(i - excl, 0)),
                    np.arange(min(i + excl + 1, n_sub), n_sub)])
                idx[i] = rng.choice(admissible)
            cac = fluss_cac(idx, m, n_sub)
            assert cac[5 * m: n_sub - 5 * m].min() >= 0.6

    def test_edges_are_masked(self):
        idx = np.zeros(80, dtype=int)
        idx[:40] = 79
        cac = fluss_cac(idx, m=3, n_sub=80)
        assert np.all(cac[:15] == 1.0)
        assert np.all(cac[-15:] == 1.0)


def fluss(threshold, m, channel_rule="any"):
    return DetectorConfig("FLUSS", threshold=threshold, m=m, channel_rule=channel_rule)


class TestFlussAlert:
    def test_flat_window_never_alerts(self):
        assert detect(np.full((120, 2), 3.0), fluss(0.6, 7)) is None

    def test_two_regime_alert_lands_near_change(self):
        m = 8
        for seed in range(3):
            x = two_regime_series(n=160, change=80, seed=seed)
            pos = detect(x[:, None], fluss(0.45, m))
            assert pos is not None
            assert abs(pos - 80) <= m

    def test_zero_threshold_never_alerts(self):
        x = two_regime_series()
        assert detect(x[:, None], fluss(0.0, 8)) is None

    def test_short_window_degrades_to_no_alert(self):
        assert detect(np.random.default_rng(0).normal(size=(10, 1)), fluss(0.6, 7)) is None

    def test_sum_rule_averages_channels(self):
        regime = two_regime_series(n=160, change=80, seed=1)
        flat = np.full(160, 1.0)
        window = np.column_stack([regime, flat])
        any_pos = detect(window, fluss(0.45, 8, "any"))
        assert any_pos is not None
        # averaged with a flat channel the dip is halved: 0.45 threshold misses it
        assert detect(window, fluss(0.45, 8, "sum")) is None


class TestDetect:
    def test_constant_window_pelt_none(self):
        cfg = DetectorConfig("PELT", penalty=1.0, min_size=1)
        assert detect(np.full((30, 2), 1.0), cfg) is None

    def test_single_change_window(self):
        cfg = DetectorConfig("PELT", cost=L2, penalty=1.0, min_size=1)
        assert detect(STEP_FIXTURE[:, None], cfg) == 5

    def test_returns_last_breakpoint(self):
        cfg = DetectorConfig("PELT", cost=L2, penalty=1.0, min_size=1)
        assert detect(TWO_STEP_FIXTURE[:, None], cfg) == 10

    def test_znorm_flag_does_not_move_the_l2_breakpoint(self):
        on = DetectorConfig("PELT", cost=L2, penalty=1.0, min_size=1, znorm=True)
        off = DetectorConfig("PELT", cost=L2, penalty=1.0, min_size=1, znorm=False)
        assert detect(STEP_FIXTURE[:, None], on) == detect(STEP_FIXTURE[:, None], off) == 5

    def test_deterministic(self, rng):
        x = rng.normal(size=(60, 2))
        x[40:] += 2.0
        for cfg in (DetectorConfig("BINSEG", penalty=0.5),
                    DetectorConfig("BOTTOMUP", penalty=0.5),
                    DetectorConfig("KCPD", penalty=0.5),
                    DetectorConfig("FLUSS", threshold=0.45, m=5)):
            assert detect(x, cfg) == detect(x.copy(), cfg)

    def test_kcpd_reads_the_pelt_solve_of_its_window(self, rng, monkeypatch):
        x = np.abs(rng.normal(1.0, 0.2, size=(40, 2)))
        x[28:] += 3.0
        window = Window(make_cycle(x), 40)
        solves = []
        real = detectors_mod.kcpd
        monkeypatch.setattr(detectors_mod, "kcpd",
                            lambda *args: solves.append(args) or real(*args))
        pelt_rbf = DetectorConfig("PELT", cost=SegmentCost("rbf"), penalty=0.5, min_size=3)
        kcpd_rbf = DetectorConfig("KCPD", penalty=0.5, min_size=3)
        assert detect(window, pelt_rbf) == detect(window, kcpd_rbf) == 28
        assert solves == []
        # another penalty, min_size, bandwidth or znorm setting is another solve
        others = [replace(kcpd_rbf, penalty=0.6), replace(kcpd_rbf, min_size=2),
                  replace(kcpd_rbf, cost=SegmentCost("rbf", gamma=1.0)),
                  replace(kcpd_rbf, znorm=True)]
        for i, other in enumerate(others, 1):
            assert detect(window, other) == detect(x, other)
            assert len(solves) == 2 * i
        # without a window memo (or on a fresh window) KCPD solves itself
        assert detect(x, kcpd_rbf) == detect(Window(window.cycle, 40), kcpd_rbf) == 28
        assert len(solves) == 2 * len(others) + 2

    def test_segmenters_accept_a_prebuilt_cache(self, rng):
        x = rng.normal(size=(30, 2))
        x[18:] += 2.0
        for kind in ("l1", "l2", "normal", "rbf"):
            spec = SegmentCost(kind)
            cache = CostCache(x, spec)
            for solver in (pelt, binseg, bottomup):
                assert solver(cache, spec, 0.5, 2) == solver(x, spec, 0.5, 2)
            with pytest.raises(ValueError):
                pelt(cache, SegmentCost("l2" if kind != "l2" else "l1"), 0.5, 2)
        cache = CostCache(x, SegmentCost("rbf"))
        assert kcpd(cache, 0.5, 2) == kcpd(x, 0.5, 2)

    def test_score_channel(self):
        cfg = DetectorConfig("FLUSS", threshold=0.45, m=8)
        x = two_regime_series()[:, None]
        cp, score = detect_with_score(x, cfg)
        assert cp is not None and score < 0.45
        flat_cp, flat_score = detect_with_score(np.full((120, 1), 2.0), cfg)
        assert flat_cp is None and flat_score == 1.0


# the default grid's penalties, shuffled, with duplicates and 0.0
GRID_PENALTIES = default_grid().methods["PELT"].penalties
PENALTY_PATH = [GRID_PENALTIES[i] for i in (6, 2, 11, 0, 9, 4, 7, 1, 10, 3, 8, 5)]
PENALTY_PATH[3:3] = [0.0, PENALTY_PATH[5], 0.0]


def _exactly(segs):
    return [(s.breakpoints, repr(s.total_cost)) for s in segs]


def _shifting_signal(rng, n=48):
    x = np.abs(rng.normal(1.0, 0.3, size=(n, 2)))
    for start, level in ((10, 1.5), (22, 0.4), (31, 4.0), (40, 2.0)):
        x[start:, start % 2] += level
    return x


class TestPenaltyPath:
    @pytest.mark.parametrize("min_size", [1, 2, 3, 7])
    @pytest.mark.parametrize("label", ["l1", "l2", "normal", "rbf", "rbf:0.1", "rbf:10.0"])
    @pytest.mark.parametrize("solver", [pelt, binseg, bottomup], ids=["pelt", "binseg", "bottomup"])
    def test_sequence_equals_one_solve_per_penalty(self, solver, label, min_size, rng):
        spec = cost_from_label(label)
        x = _shifting_signal(rng)
        for signal in (x, np.round(x, 1), x[:2 * min_size - 1]):  # ties; n < 2 * min_size
            path = solver(signal, spec, PENALTY_PATH, min_size)
            assert _exactly(path) == _exactly(solver(signal, spec, p, min_size)
                                              for p in PENALTY_PATH)
        # the path is not one answer repeated
        assert len({s.breakpoints for s in solver(x, spec, PENALTY_PATH, min_size)}) >= 2

    @pytest.mark.parametrize("min_size", [1, 2, 3, 7])
    def test_kcpd_sequence_equals_one_solve_per_penalty(self, min_size, rng):
        x = _shifting_signal(rng)
        for kernel in (None, SegmentCost("rbf", gamma=0.1)):
            assert _exactly(kcpd(x, PENALTY_PATH, min_size, kernel)) == \
                _exactly(kcpd(x, p, min_size, kernel) for p in PENALTY_PATH)

    @pytest.mark.parametrize("min_size", [1, 2, 3, 7])
    @pytest.mark.parametrize("znorm", [False, True], ids=["raw", "znorm"])
    @pytest.mark.parametrize("label", ["l1", "l2", "normal", "rbf", "rbf:0.1"])
    def test_window_rows_equal_one_solve_per_window(self, label, znorm, min_size, rng):
        # one lockstep program over (window, penalty) rows, as a replay's
        # batch solves its windows: each window's own tables (z-normalized
        # per window, or with a median bandwidth of its own), windows
        # shorter than 2 * min_size, equal lengths and a final partial
        # window. Where the cost has prefixes, also the prefixes of one
        # cache, as a replay solves a cycle-level family (whose l1 table the
        # whole cache's queries may have filled first), and those prefixes
        # mixed with windows' own tables
        spec = cost_from_label(label)
        x = _shifting_signal(rng, n=47)
        ends = sorted([1, 2 * min_size - 1, 2 * min_size, 7, 14, 21, 28, 28, 35, 42, 47])
        for signal in (x, np.round(x, 1)):
            windows = [znormalize(signal[:e]) if znorm else signal[:e] for e in ends]
            inputs = [[CostCache(w, spec) for w in windows]]
            if not znorm and spec.kind in PREFIX_KINDS:
                fresh, filled = CostCache(signal, spec), CostCache(signal, spec)
                pelt(filled, spec, PENALTY_PATH[::4], min_size)
                filled.values(np.arange(47), 47)
                inputs += [[fresh.prefix(e) for e in ends], [filled.prefix(e) for e in ends],
                           [CostCache(signal[:e], spec) if k % 3 else fresh.prefix(e)
                            for k, e in enumerate(ends)]]
            for caches in inputs:
                got = pelt(caches, spec, PENALTY_PATH, min_size)
                assert len(got) == len(windows)
                for w, segs in zip(windows, got):
                    assert _exactly(segs) == _exactly(pelt(CostCache(w, spec), spec,
                                                           PENALTY_PATH, min_size))
                # later windows read subsets of the program's penalties
                long = [c for c in caches if c.n >= 2 * min_size]
                program = detectors_mod._PeltProgram(np.unique(PENALTY_PATH), min_size, long)
                program.advance()
                for w, cache in enumerate(long):
                    subset = PENALTY_PATH[w % 5::2]
                    assert _exactly(program.segmentations(np.array(subset), w)) == \
                        _exactly(pelt(CostCache(cache.signal, spec), spec, subset, min_size))

    @pytest.mark.parametrize("min_size", [1, 2, 3, 7])
    @pytest.mark.parametrize("label", ["l1", "l2", "normal"])
    def test_prefixes_of_one_cache_equal_one_solve_per_prefix(self, label, min_size, rng):
        # growing prefixes of one cache, as a replay solves a cycle-level
        # family: one set of rows, each prefix read only for the segments
        # that end past the prefix before it, and each prefix under fewer
        # penalties than the rows hold
        spec = cost_from_label(label)
        x = _shifting_signal(rng, n=80)
        ends = [1, 2 * min_size - 1, 2 * min_size, 17, 30, 30, 45, 66, 79, 80]
        subsets = [PENALTY_PATH, PENALTY_PATH, PENALTY_PATH, PENALTY_PATH[4:], PENALTY_PATH[9:],
                   PENALTY_PATH[9:], [0.25, 3.0], PENALTY_PATH[:3], [3.0], PENALTY_PATH]
        reads: list = []

        class Noted(CostCache):
            def values(self, starts, stops):
                reads.append((self.n, np.broadcast_to(stops, np.shape(starts)).tolist()))
                return super().values(starts, stops)

        for signal in (x, np.round(x, 1)):
            whole, reads[:] = Noted(signal, spec), []
            prefixes = [whole.prefix(e) for e in ends]
            got = pelt(prefixes, spec, PENALTY_PATH, min_size)
            assert [_exactly(segs) for segs in got] == \
                [_exactly(pelt(signal[:e], spec, PENALTY_PATH, min_size)) for e in ends]
            long = sorted({e for e in ends if e >= 2 * min_size})
            before = dict(zip(long, [0, *long]))  # each long prefix's end -> the one before it
            for n, stops in reads:
                assert (before[n] < min(stops) and max(stops) <= n) if n in before \
                    else stops == [n]
            program = detectors_mod._PeltProgram(np.unique([*PENALTY_PATH, 0.25, 3.0]),
                                                 min_size, [c for c in prefixes if c.n in before])
            program.advance()
            for w, cache in enumerate(program.caches):
                subset = subsets[ends.index(cache.n)]
                assert _exactly(program.segmentations(np.array(subset), w)) == \
                    _exactly(pelt(signal[:cache.n], spec, subset, min_size))

    def test_window_rows_stop_before_a_window_that_fails(self, rng):
        # a window whose costs fail to read ends the result before it; when
        # it is the first, its error propagates. Windows 3 and 19 fail: 3 is
        # shorter than 2 * min_size and reads one cost, 19 is solved. The
        # same holds for prefixes of one cache, which share their rows
        x = _shifting_signal(rng, n=40)

        class Failing(CostCache):
            def values(self, starts, ends):
                if self.n in (3, 19):
                    raise RuntimeError(f"window {self.n}")
                return super().values(starts, ends)

        ends = [2, 3, 10, 12, 19, 30, 40]
        whole = Failing(x, L2)
        for caches in ([Failing(x[:e], L2) for e in ends], [whole.prefix(e) for e in ends]):
            for windows, solved in ((caches, [2]), (caches[2:], [10, 12]), (caches[:1], [2])):
                assert [_exactly(segs) for segs in pelt(windows, L2, PENALTY_PATH, 2)] == \
                    [_exactly(pelt(x[:e], L2, PENALTY_PATH, 2)) for e in solved]
            for first in (caches[1:], caches[4:]):
                with pytest.raises(RuntimeError, match=f"window {first[0].n}"):
                    pelt(first, L2, PENALTY_PATH, 2)

    @pytest.mark.parametrize("min_size", [1, 3])
    @pytest.mark.parametrize("label", ["l1", "l2", "normal", "rbf"])
    def test_window_rows_stop_after_every_penalty_broke(self, label, min_size, rng):
        # the list form stops after the first entry by which every penalty
        # has found a breakpoint in some entry; with a penalty that never
        # breaks, it solves every entry. Prefixes of one cache read no cost
        # past that entry's end, and windows' own tables at most the rest
        # of its block of columns
        spec = cost_from_label(label)
        x = rng.normal(size=(80, 2))
        x[50:] += 4.0
        ends = [2 * min_size - 1, 10, 20, 30, 40, 50, 55, 60, 70, 80]
        stops: list = []

        class Noted(CostCache):
            def values(self, starts, ends):
                stops.append(int(np.max(ends)))
                return super().values(starts, ends)

        inputs = [(lambda: [Noted(x[:e], spec) for e in ends], detectors_mod._PELT_BLOCK - 1)]
        if spec.kind in PREFIX_KINDS:
            inputs.append((lambda: [whole.prefix(e) for whole in [Noted(x, spec)] for e in ends],
                           0))
        for penalties in ([0.01, 5.0], [0.01, 5.0, 1e9]):
            full = [pelt(x[:e], spec, penalties, min_size) for e in ends]
            broke = np.logical_or.accumulate([[bool(s.breakpoints) for s in segs]
                                              for segs in full])
            last = next((k for k, row in enumerate(broke) if row.all()), len(ends) - 1)
            assert (0 < last < len(ends) - 1) == (len(penalties) == 2)
            for make, ahead in inputs:
                stops[:] = []
                got = pelt(make(), spec, penalties, min_size)
                assert [_exactly(segs) for segs in got] == \
                    [_exactly(segs) for segs in full[:last + 1]]
                assert ends[last] <= max(stops) <= ends[last] + ahead

    def test_windows_must_not_shrink(self, rng):
        x = _shifting_signal(rng)
        with pytest.raises(ValueError):
            pelt([x[:20], x[:10]], L2, 1.0, 2)

    def test_one_entry_sequence_is_the_float_form(self, rng):
        x = _shifting_signal(rng)
        for solver in (pelt, binseg, bottomup):
            assert solver(x, L2, [0.5], 2) == [solver(x, L2, 0.5, 2)]
            assert solver(x, L2, np.array([0.5, 2.0]), 2) == solver(x, L2, (0.5, 2.0), 2)

    @pytest.mark.parametrize("penalty", [[], [1.0, -0.5], -0.5, [[1.0]], float("nan"),
                                         float("inf"), [1.0, float("inf")]])
    def test_bad_penalties_rejected(self, penalty):
        for solver in (pelt, binseg, bottomup):
            with pytest.raises(ValueError):
                solver(STEP_FIXTURE, L2, penalty, 1)
        with pytest.raises(ValueError):
            kcpd(STEP_FIXTURE, penalty, 1)


def _noted(reads: list, fails_at: int | None = None):
    """A cache class that notes each read (n, starts, ends) in ``reads`` and
    raises on any read of a cache of n = ``fails_at``."""
    class Noted(CostCache):
        def values(self, starts, ends):
            if self.n == fails_at:
                raise RuntimeError(f"window {self.n}")
            reads.append((self.n, np.asarray(starts).tolist(), np.asarray(ends).tolist()))
            return super().values(starts, ends)
    return Noted


class TestPeltProgram:
    @pytest.mark.parametrize("min_size", [1, 2, 3, 7])
    @pytest.mark.parametrize("label", ["l1", "l2", "normal", "rbf", "rbf:0.1"])
    def test_dense_step_is_bitwise_the_gathered_walk(self, label, min_size, rng):
        # F, prev, each segmentation and every cost read equal the gathered
        # column walk's (conftest.GatheredPeltProgram) on continuous,
        # 1/8-quantized and partly flat signals; over one cache, the
        # prefixes of one cache, per-window caches of different n (a
        # replay's batch) and the two mixed; under penalties from 0 to above
        # the whole signal's cost. A cache whose reads fail partway down the
        # list stops both programs at the same cache and column
        spec = cost_from_label(label)
        x = _shifting_signal(rng, n=70)
        flat = x.copy()
        flat[12:30], flat[45:] = flat[12], 2.0
        # windows of their own are z-normalized, as in a replay's batch of
        # znorm windows, every other one reversed in time, so that their
        # rows keep different starts; each min_size has a window that ends
        # a column before a block of columns starts
        ends = [2 * min_size, 19, 33, 33, 38, 50, 64, 70]

        def own(make, signal, k, e):
            return make(znormalize(signal[:e][::1 - 2 * (k % 2)]))

        shapes = {"one": lambda make, signal: [make(signal)],
                  "own": lambda make, signal: [own(make, signal, k, e)
                                               for k, e in enumerate(ends)],
                  # a quiet window that ends a column before a block starts
                  # keeps starts that the window after it has pruned: the
                  # block still reads them
                  "quiet": lambda make, signal: [make(0.1 * signal[:min_size + 15]),
                                                 make(signal)]}
        if spec.kind in PREFIX_KINDS:
            shapes["prefixes"] = lambda make, signal: [
                whole.prefix(e) for whole in [make(signal)] for e in ends]
            shapes["mixed"] = lambda make, signal: [
                own(make, signal, k, e) if k % 3 else whole.prefix(e)
                for whole in [make(signal)] for k, e in enumerate(ends)]
        stopped = 0  # the runs that a failed read stopped
        for signal in (x, np.round(x * 8) / 8, flat):
            whole_cost = float(CostCache(signal, spec).values([0], [signal.shape[0]])[0])
            wide = np.unique([0.0, 0.01, 0.5, 2.0, 10.0, 2 * abs(whole_cost) + 1])
            for (name, shape), fails_at in itertools.product(shapes.items(), (None, 50)):
                # a penalty above the whole cost keeps every start alive
                for penalties in (wide, np.array([2.0, 4.0])):
                    runs = []
                    for kind in (detectors_mod._PeltProgram, GatheredPeltProgram):
                        reads: list = []
                        program = kind(penalties, min_size,
                                       shape(_noted(reads, fails_at), signal))
                        runs.append((program.advance(), program.solved, reads, program))
                    (ok, solved, reads, dense), (old_ok, old_solved, old_reads, old) = runs
                    assert (ok, solved) == (old_ok, old_solved), name
                    assert ok or solved == ends.index(fails_at), name
                    stopped += not ok
                    assert reads == old_reads, name
                    assert dense.F.tobytes() == old.F.tobytes(), name
                    assert dense.prev.tobytes() == old.prev.tobytes(), name
                    for w in range(solved):
                        assert _exactly(dense.segmentations(penalties, w)) == \
                            _exactly(old.segmentations(penalties, w)), name
        assert stopped > 0


class TestSegmentationType:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            Segmentation((5, 5), 0.0)
        with pytest.raises(ValueError):
            Segmentation((7, 3), 0.0)
