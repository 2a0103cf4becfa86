import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maintseg.costs import CostCache, SegmentCost, cost, cost_from_label, rbf_bandwidth_median

from conftest import direct_cost


class TestCostValues:
    def test_l2_constant_segment_is_zero(self):
        assert cost(np.full(6, 3.3), 0, 6, SegmentCost("l2")) == pytest.approx(0.0, abs=1e-12)

    def test_l2_hand_value(self):
        # mean 2, sum (x-2)^2 = 4 * 4
        assert cost(np.array([0.0, 0.0, 4.0, 4.0]), 0, 4, SegmentCost("l2")) == pytest.approx(16.0)

    def test_l1_hand_value(self):
        # median 1, sum |x - 1| = 1 + 0 + 0 + 9
        x = np.array([0.0, 1.0, 1.0, 10.0])
        assert cost(x, 0, 4, SegmentCost("l1")) == pytest.approx(10.0)

    def test_rbf_single_point_is_zero(self):
        assert cost(np.array([2.5]), 0, 1, SegmentCost("rbf", gamma=1.0)) == pytest.approx(0.0)

    def test_rbf_hand_value(self):
        # two points at distance 2, gamma=1: 2 - (2 + 2 e^-4)/2
        x = np.array([0.0, 2.0])
        expected = 2.0 - (2.0 + 2.0 * np.exp(-4.0)) / 2.0
        assert cost(x, 0, 2, SegmentCost("rbf", gamma=1.0)) == pytest.approx(expected, abs=1e-12)

    def test_normal_matches_direct_formula(self, rng):
        x = rng.normal(size=(12, 3))
        spec = SegmentCost("normal")
        got = cost(x, 2, 10, spec)
        seg = x[2:10]
        cov = np.cov(seg.T, bias=True) + 1e-6 * np.eye(3)
        expected = 8 * np.log(np.linalg.det(cov))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_invalid_segments_rejected(self):
        x = np.zeros(5)
        cache = CostCache(x, SegmentCost("l2"))
        for a, b in [(2, 2), (3, 1), (-1, 2), (0, 6)]:
            with pytest.raises(ValueError):
                cache.value(a, b)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SegmentCost("huber")
        with pytest.raises(ValueError):
            SegmentCost("rbf", gamma=0.0)

    def test_label_round_trip(self):
        for spec in (SegmentCost("l2"), SegmentCost("l1"), SegmentCost("normal"),
                     SegmentCost("rbf"), SegmentCost("rbf", gamma=0.25)):
            assert cost_from_label(spec.label) == spec


class TestBandwidthHeuristic:
    def test_two_points_distance_two(self):
        assert rbf_bandwidth_median(np.array([0.0, 2.0])) == pytest.approx(0.25)

    def test_identical_points_fall_back_to_one(self):
        assert rbf_bandwidth_median(np.full(10, 7.0)) == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            rbf_bandwidth_median(np.array([1.0]))

    @given(st.integers(2, 60), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_always_positive(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        assert rbf_bandwidth_median(x) > 0


class TestCacheAgreesWithDirectEvaluation:
    """The O(1) cached queries are checked against freshly computed costs."""

    @pytest.mark.parametrize("kind", ["l1", "l2", "normal", "rbf"])
    def test_random_segments(self, kind, rng):
        x = rng.normal(size=(40, 2))
        spec = SegmentCost(kind, gamma=0.5 if kind == "rbf" else None)
        cache = CostCache(x, spec)
        for _ in range(50):
            a = int(rng.integers(0, 39))
            b = int(rng.integers(a + 1, 41))
            direct = direct_cost(x, a, b, spec)
            assert cache.value(a, b) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("kind", ["l1", "l2", "normal", "rbf"])
    def test_vectorized_matches_scalar(self, kind, rng):
        x = rng.normal(size=(30, 3))
        cache = CostCache(x, SegmentCost(kind))
        starts = rng.integers(0, 29, size=40)
        ends = starts + rng.integers(1, 31 - starts)
        vals = cache.values(starts, ends)
        assert vals.shape == (40,)
        for a, b, v in zip(starts, ends, vals):
            assert v == cache.value(int(a), int(b))
        # a scalar start or end is shared by every segment
        assert list(cache.values(starts, 30)) == [cache.value(int(a), 30) for a in starts]
        assert list(cache.values(0, ends)) == [cache.value(0, int(b)) for b in ends]

    def test_l1_table_answers_as_a_fresh_cache(self, rng):
        # the lazily filled l1 table returns bitwise the median it would
        # compute, after any mix of overlapping earlier queries
        x = rng.normal(size=(30, 3))
        shared = CostCache(x, SegmentCost("l1"))
        for _ in range(20):
            starts = rng.integers(0, 29, size=15)
            ends = starts + rng.integers(1, 31 - starts)
            shared.values(starts, ends)
            shared.values(starts, 30)
            shared.values(0, ends)
        starts = np.repeat(np.arange(30), 2)[::3]
        for end in (int(e) for e in rng.integers(1, 31, size=10)):
            ok = starts < end
            assert list(shared.values(starts[ok], end)) == \
                list(CostCache(x, SegmentCost("l1")).values(starts[ok], end))
        a, b = np.triu_indices(31, k=1)
        assert list(shared.values(a, b)) == list(CostCache(x, SegmentCost("l1")).values(a, b))

    @pytest.mark.parametrize("n,d", [(1, 1), (9, 1), (40, 3), (64, 4)])
    def test_l1_table_is_bitwise_the_segment_median_cost(self, n, d, rng):
        x = np.round(rng.normal(size=(n, d)), 1)  # ties within segments too
        a, b = np.triu_indices(n + 1, k=1)
        got = CostCache(x, SegmentCost("l1")).values(a, b)
        assert list(got) == [np.abs(x[s:e] - np.median(x[s:e], axis=0)).sum()
                             for s, e in zip(a, b)]

    def test_invalid_batches_rejected(self):
        cache = CostCache(np.zeros(5), SegmentCost("l2"))
        for starts, ends in [([0, 2], [3, 2]), ([0, -1], [3, 2]), ([0, 1], [3, 6]), ([4], 3)]:
            with pytest.raises(ValueError):
                cache.values(np.array(starts), np.array(ends))
        assert cache.values(np.array([], dtype=int), 5).shape == (0,)


class TestCostProperties:
    @pytest.mark.parametrize("kind", ["l1", "l2", "normal", "rbf"])
    def test_splitting_never_increases_cost(self, kind, rng):
        # the additivity bound that makes penalized segmentation meaningful
        spec = SegmentCost(kind)
        for _ in range(30):
            x = rng.normal(size=(int(rng.integers(4, 30)), int(rng.integers(1, 4))))
            cache = CostCache(x, spec)
            n = x.shape[0]
            a = int(rng.integers(0, n - 2))
            b = int(rng.integers(a + 2, n + 1))
            m = int(rng.integers(a + 1, b))
            assert cache.value(a, m) + cache.value(m, b) <= cache.value(a, b) + 1e-9

    @pytest.mark.parametrize("kind", ["l1", "l2", "normal", "rbf"])
    def test_order_reversal_invariance(self, kind, rng):
        x = rng.normal(size=(15, 2))
        spec = SegmentCost(kind, gamma=1.0 if kind == "rbf" else None)
        forward = cost(x, 3, 12, spec)
        backward = cost(x[::-1], 15 - 12, 15 - 3, spec)
        assert forward == pytest.approx(backward, rel=1e-9)
