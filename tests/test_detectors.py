from dataclasses import replace

import numpy as np
import pytest

import maintseg.detectors as detectors_mod
from maintseg.core import Window
from maintseg.costs import CostCache, SegmentCost
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

from conftest import exhaustive_segmentation, make_cycle, mp_brute_force, two_regime_series

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

    @pytest.mark.parametrize("cfg", [
        DetectorConfig("PELT", penalty=0.046415888336127774, min_size=3),
        DetectorConfig("BINSEG", cost=SegmentCost("l1"), penalty=2.0, znorm=True),
        DetectorConfig("BOTTOMUP", cost=SegmentCost("normal"), penalty=10.0),
        DetectorConfig("KCPD", cost=SegmentCost("rbf", gamma=0.1), penalty=5.0),
        DetectorConfig("FLUSS", threshold=0.315, m=14, znorm=True, channel_rule="sum"),
    ])
    def test_id_round_trip_is_exact(self, cfg):
        assert DetectorConfig.from_id(cfg.config_id) == cfg

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

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            matrix_profile(np.zeros(10), 8)  # needs m + ceil(m/2) + 1 = 13

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


class TestSegmentationType:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            Segmentation((5, 5), 0.0)
        with pytest.raises(ValueError):
            Segmentation((7, 3), 0.0)
