import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maintseg.core import BusinessParams
from maintseg.metrics import (
    CycleBest,
    EvaluationRecord,
    IncompleteGridError,
    aggregate,
    best_average_config,
    best_per_sample,
    e_score,
    model_stability,
)
from maintseg.protocol import Alert, Verdict

PARAMS = BusinessParams()


class TestEScore:
    def test_inside_responsive_duration_is_zero(self):
        assert e_score(99, 100, 14, 1, 0.2) == 0.0
        assert e_score(100, 100, 14, 1, 0.2) == 0.0

    def test_inside_padding_is_one(self):
        assert e_score(90, 100, 14, 1, 0.2) == 1.0
        assert e_score(85, 100, 14, 1, 0.2) == 1.0  # inclusive boundary
        assert e_score(98, 100, 14, 1, 0.2) == 1.0

    def test_no_alert_is_zero(self):
        assert e_score(None, 100, 14, 1, 0.2) == 0.0

    def test_early_alert_value(self):
        # (e^(0.2*50) - 1) / (e^(0.2*85) - 1)
        got = e_score(50, 100, 14, 1, 0.2)
        assert got == pytest.approx(9.1184060392696e-04, rel=1e-9)

    def test_small_s_approaches_linear_ramp(self):
        assert e_score(50, 100, 14, 1, 1e-8) == pytest.approx(50 / 85, rel=1e-6)

    def test_continuous_at_padding_boundary(self):
        boundary = 100 - (1 + 14)
        below = e_score(boundary - 1e-9, 100, 14, 1, 0.2)
        assert abs(below - 1.0) < 1e-9

    def test_monotone_nondecreasing_in_a(self):
        grid = np.linspace(0, 99.0, 400)
        values = [e_score(float(a), 100, 14, 1, 0.2) for a in grid]
        for lo, hi, a_lo, a_hi in zip(values, values[1:], grid, grid[1:]):
            if a_hi < 99:  # score drops to 0 inside the responsive duration
                assert hi >= lo - 1e-12

    def test_strictly_decreasing_in_s_before_padding(self):
        values = [e_score(50, 100, 14, 1, s) for s in (0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_log_space_path_matches_mpmath(self):
        mpmath.mp.dps = 60
        for a, n, pp, rd, s in [(4900, 5000, 14, 1, 0.5),
                                (4000, 4200, 30, 2, 0.9),
                                (990, 1200, 100, 5, 1.2)]:
            exact = (mpmath.exp(s * a) - 1) / (mpmath.exp(s * (n - (rd + pp))) - 1)
            mine = e_score(a, n, pp, rd, s)
            assert float(abs(mpmath.mpf(mine) - exact) / exact) < 1e-12

    def test_bounds(self):
        for a in (None, 0, 1, 30, 84, 85, 99, 100):
            v = e_score(a, 100, 14, 1, 0.2)
            assert 0.0 <= v <= 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            e_score(1, 0, 14, 1, 0.2)
        with pytest.raises(ValueError):
            e_score(1, 100, 14, 1, 0.0)
        with pytest.raises(ValueError):
            e_score(1, 100, 0, 1, 0.2)
        with pytest.raises(ValueError):
            e_score(1, 100, 14, -1, 0.2)
        with pytest.raises(ValueError):
            e_score(-5, 100, 14, 1, 0.2)

    @given(st.integers(0, 400), st.integers(20, 400), st.floats(0.01, 2.0))
    @settings(max_examples=80)
    def test_always_in_unit_interval(self, a, n, s):
        v = e_score(min(a, n), n, 14, 1, s)
        assert 0.0 <= v <= 1.0


def record(atm="a", idx=0, config="PELT/l2/1.0/2/-/0/-", verdict=Verdict.FN,
           a=None, e=0.0, n=100):
    alert = None if a is None else Alert(step_end_index=max(a, 1),
                                         change_point_index=max(a, 1) - 1, a=a)
    return EvaluationRecord(atm_id=atm, cycle_index=idx, config_id=config,
                            verdict=verdict, alert=alert, e=e, n=n, params=PARAMS)


class TestEvaluationRecord:
    def test_fn_requires_absent_alert_and_zero_score(self):
        with pytest.raises(ValueError):
            record(verdict=Verdict.FN, a=5)
        with pytest.raises(ValueError):
            record(verdict=Verdict.FN, e=0.3)

    def test_tp_scores_exactly_one(self):
        record(verdict=Verdict.TP, a=90, e=1.0)
        with pytest.raises(ValueError):
            record(verdict=Verdict.TP, a=90, e=0.9)

    def test_score_bounds(self):
        with pytest.raises(ValueError):
            record(verdict=Verdict.FP, a=5, e=1.5)


class TestAggregate:
    def test_all_tp(self):
        records = [record(idx=i, verdict=Verdict.TP, a=90, e=1.0) for i in range(3)]
        agg = aggregate(records)
        assert (agg.mean_e, agg.precision, agg.recall) == (1.0, 1.0, 1.0)

    def test_mixed_counts(self):
        records = [record(idx=0, verdict=Verdict.TP, a=90, e=1.0),
                   record(idx=1, verdict=Verdict.FP, a=5, e=0.01),
                   record(idx=2, verdict=Verdict.FN),
                   record(idx=3, verdict=Verdict.FN)]
        agg = aggregate(records)
        assert agg.precision == pytest.approx(0.5)
        assert agg.recall == pytest.approx(1 / 3)
        assert (agg.tp, agg.fp, agg.fn) == (1, 1, 2)

    def test_mean_score(self):
        records = [record(idx=0, verdict=Verdict.TP, a=90, e=1.0),
                   record(idx=1, verdict=Verdict.FN),
                   record(idx=2, verdict=Verdict.FP, a=5, e=0.5)]
        assert aggregate(records).mean_e == pytest.approx(0.5)

    def test_no_predicted_positives_flagged(self):
        agg = aggregate([record(verdict=Verdict.FN)])
        assert agg.precision == 0.0
        assert not agg.precision_defined

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


CONFIG_A = "BINSEG/l2/1.0/2/-/0/-"
CONFIG_B = "PELT/l2/1.0/2/-/0/-"


class TestBestAverageConfig:
    def test_higher_mean_wins(self):
        records = [record(config=CONFIG_A, verdict=Verdict.FP, a=5, e=0.3),
                   record(config=CONFIG_B, verdict=Verdict.FP, a=5, e=0.4)]
        best_id, agg = best_average_config(records)
        assert best_id == CONFIG_B and agg.mean_e == pytest.approx(0.4)

    def test_tie_broken_by_precision(self):
        records = [record(idx=0, config=CONFIG_A, verdict=Verdict.FP, a=5, e=0.5),
                   record(idx=1, config=CONFIG_A, verdict=Verdict.FP, a=6, e=0.5),
                   record(idx=0, config=CONFIG_B, verdict=Verdict.TP, a=90, e=1.0),
                   record(idx=1, config=CONFIG_B, verdict=Verdict.FP, a=6, e=0.0)]
        best_id, _ = best_average_config(records)
        assert best_id == CONFIG_B  # same mean 0.5, precision 0.5 beats 0

    def test_single_config(self):
        records = [record(config=CONFIG_A, verdict=Verdict.FN)]
        assert best_average_config(records)[0] == CONFIG_A


class TestBestPerSample:
    def test_per_cycle_maximum(self):
        configs = [CONFIG_A, CONFIG_B, "KCPD/rbf/1.0/2/-/0/-"]
        scores = [0.0, 0.4, 1.0]
        records = []
        for cfg, e in zip(configs, scores):
            verdict = (Verdict.FN if e == 0.0 else
                       Verdict.TP if e == 1.0 else Verdict.FP)
            records.append(record(config=cfg, verdict=verdict,
                                  a=None if e == 0 else (90 if e == 1.0 else 5), e=e))
        best = best_per_sample(records)
        assert best.mean_e == 1.0
        assert best.per_cycle[0].config_id == "KCPD/rbf/1.0/2/-/0/-"

    def test_dominates_best_average(self):
        rng = np.random.default_rng(0)
        records = []
        for cfg in (CONFIG_A, CONFIG_B):
            for idx in range(6):
                e = float(rng.uniform(0, 0.9))
                records.append(record(idx=idx, config=cfg, verdict=Verdict.FP, a=5, e=e))
        best = best_per_sample(records)
        _, best_avg = best_average_config(records)
        assert best.mean_e >= best_avg.mean_e  # exact inequality, no tolerance

    def test_single_config_equals_aggregate(self):
        records = [record(idx=i, config=CONFIG_A, verdict=Verdict.FP, a=5, e=0.25)
                   for i in range(4)]
        assert best_per_sample(records).mean_e == aggregate(records).mean_e

    def test_incomplete_grid_rejected(self):
        records = [record(idx=0, config=CONFIG_A, verdict=Verdict.FN),
                   record(idx=1, config=CONFIG_A, verdict=Verdict.FN),
                   record(idx=0, config=CONFIG_B, verdict=Verdict.FN)]
        with pytest.raises(IncompleteGridError):
            best_per_sample(records)


def best(atm, idx, method):
    return CycleBest(atm_id=atm, cycle_index=idx, e=1.0,
                     config_id=f"{method}/l2/1.0/2/-/0/-")


class TestModelStability:
    def test_same_model_counts_toward_both(self):
        per_cycle = [best("a", i, "PELT") for i in range(3)]
        stats = model_stability(per_cycle)
        assert stats.same_model_fraction == 1.0
        assert stats.one_change_fraction == 1.0

    def test_one_change_only(self):
        per_cycle = [best("a", 0, "PELT"), best("a", 1, "FLUSS"), best("a", 2, "FLUSS")]
        stats = model_stability(per_cycle)
        assert stats.same_model_fraction == 0.0
        assert stats.one_change_fraction == 1.0

    def test_two_changes_count_nowhere(self):
        per_cycle = [best("a", 0, "PELT"), best("a", 1, "FLUSS"),
                     best("a", 2, "PELT"), best("a", 3, "FLUSS")]
        stats = model_stability(per_cycle)
        assert stats.same_model_fraction == 0.0
        assert stats.one_change_fraction == 0.0

    def test_known_half_split(self):
        per_cycle = [best("a", 0, "PELT"), best("a", 1, "PELT"),
                     best("b", 0, "PELT"), best("b", 1, "KCPD"),
                     best("c", 0, "BINSEG")]  # single-cycle machines don't count
        stats = model_stability(per_cycle)
        assert stats.same_model_fraction == 0.5
        assert stats.n_atms_multi_cycle == 2
        assert stats.n_atms_over_two_cycles == 0

    def test_a_model_is_a_method_not_a_config(self):
        per_cycle = [
            CycleBest("a", 0, 1.0, "PELT/l2/1.0/2/-/0/-"),
            CycleBest("a", 1, 1.0, "PELT/l2/2.0/2/-/0/-"),
        ]
        assert model_stability(per_cycle).same_model_fraction == 1.0
