import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maintseg import costs
from maintseg.costs import CostCache, SegmentCost, cost_from_label, rbf_bandwidth_median

from conftest import direct_cost


class TestCostValues:
    def test_l2_constant_segment_is_zero(self):
        cache = CostCache(np.full(6, 3.3), SegmentCost("l2"))
        assert cache.values([0], [6])[0] == pytest.approx(0.0, abs=1e-12)

    def test_l2_hand_value(self):
        # mean 2, sum (x-2)^2 = 4 * 4
        cache = CostCache(np.array([0.0, 0.0, 4.0, 4.0]), SegmentCost("l2"))
        assert cache.values([0], [4])[0] == pytest.approx(16.0)

    def test_l1_hand_value(self):
        # median 1, sum |x - 1| = 1 + 0 + 0 + 9
        x = np.array([0.0, 1.0, 1.0, 10.0])
        assert CostCache(x, SegmentCost("l1")).values([0], [4])[0] == pytest.approx(10.0)

    def test_rbf_single_point_is_zero(self):
        cache = CostCache(np.array([2.5]), SegmentCost("rbf", gamma=1.0))
        assert cache.values([0], [1])[0] == pytest.approx(0.0)

    def test_rbf_hand_value(self):
        # two points at distance 2, gamma=1: 2 - (2 + 2 e^-4)/2
        x = np.array([0.0, 2.0])
        expected = 2.0 - (2.0 + 2.0 * np.exp(-4.0)) / 2.0
        cache = CostCache(x, SegmentCost("rbf", gamma=1.0))
        assert cache.values([0], [2])[0] == pytest.approx(expected, abs=1e-12)

    def test_normal_matches_direct_formula(self, rng):
        x = rng.normal(size=(12, 3))
        spec = SegmentCost("normal")
        got = CostCache(x, spec).values([2], [10])[0]
        seg = x[2:10]
        cov = np.cov(seg.T, bias=True) + 1e-6 * np.eye(3)
        expected = 8 * np.log(np.linalg.det(cov))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_invalid_segments_rejected(self):
        x = np.zeros(5)
        cache = CostCache(x, SegmentCost("l2"))
        for a, b in [(2, 2), (3, 1), (-1, 2), (0, 6)]:
            with pytest.raises(ValueError):
                cache.values([a], [b])
        for empty in (np.zeros(0), np.zeros((6, 0))):
            with pytest.raises(ValueError, match="non-empty"):
                CostCache(empty, SegmentCost("l1"))
        # a non-finite sample would give a NaN cost, which the l1 table
        # also uses for "not computed yet"
        for bad in (np.nan, np.inf, -np.inf):
            x = np.arange(20.0)
            x[7] = bad
            for kind in ("l1", "l2", "normal", "rbf"):
                with pytest.raises(ValueError, match="finite"):
                    CostCache(x, SegmentCost(kind))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SegmentCost("huber")
        with pytest.raises(ValueError):
            SegmentCost("rbf", gamma=0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bandwidth_rejected(self, gamma):
        # a NaN gamma would pass "gamma <= 0" and make every cost NaN
        with pytest.raises(ValueError, match="finite"):
            SegmentCost("rbf", gamma=gamma)
        with pytest.raises(ValueError, match="finite"):
            cost_from_label(f"rbf:{gamma!r}")

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


def np_median_bandwidth(signal):
    """The median heuristic as ``np.median`` takes it, over the same
    subsample and the same Gram-formula squared distances."""
    x = np.asarray(signal, dtype=float).reshape(len(signal), -1)
    if len(x) > 1000:
        x = x[np.linspace(0, len(x) - 1, 1000).astype(int)]
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    med = float(np.median(d2[np.triu_indices(len(x), k=1)]))
    return 1.0 if med <= 0.0 else 1.0 / med


def _bandwidth_signals():
    rng = np.random.default_rng(25)
    for n in (2, 3, 4, 5, 6, 7, 13, 40, 41):  # 1, 3, 6, 10, 15, 21, 78, 780, 820 pairs
        for d in (1, 3):
            yield f"normal-{n}x{d}", rng.normal(size=(n, d))
            yield f"eighths-{n}x{d}", np.round(rng.normal(size=(n, d)) * 8) / 8
    yield "flat", np.full((9, 2), 7.25)
    yield "duplicate-rows", np.repeat(rng.normal(size=(2, 2)), [8, 2], axis=0)
    # 3 of 6 pairs are zero: the median is (0 + hi) / 2
    yield "half-zero-even", np.repeat(rng.normal(size=(2, 2)), [3, 1], axis=0)
    yield "subsampled-1500", rng.normal(size=(1500, 2))
    yield "subsampled-eighths-1003", np.round(rng.normal(size=(1003, 1)) * 8) / 8
    # finite samples whose squared norms overflow: one huge row makes its
    # pairs inf (median inf, gamma 0); two make their pair inf - inf = NaN
    yield "inf-median-odd", np.array([[1e155], [0.0], [0.0]])
    yield "inf-median-even", np.array([[1e155], [0.0], [0.0], [1.0]])
    yield "nan-pair", np.array([[1e155], [2e155], [0.0], [1.0], [2.0]])
    # one NaN among 4950 pairs, which a partition at the middle alone
    # leaves away from the end
    x = rng.normal(size=(100, 2))
    x[[17, 61]] = [[1e155, 0.0], [2e155, 0.0]]
    yield "nan-pair-of-4950", x


class TestBandwidthIsNumpysMedian:
    """The partition-based median is ``np.median``'s value bit for bit."""

    @pytest.mark.parametrize("name, x", list(_bandwidth_signals()),
                             ids=[name for name, _ in _bandwidth_signals()])
    def test_bitwise(self, name, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = rbf_bandwidth_median(x), np_median_bandwidth(x)
        assert repr(got) == repr(want)
        if name.startswith(("flat", "duplicate")):
            assert got == 1.0
        if name.startswith("inf-median"):
            assert got == 0.0
        if name.startswith("nan-pair"):
            assert np.isnan(got)


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
            assert cache.values([a], [b])[0] == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("label", ["l1", "l2", "normal", "rbf", "rbf:0.1"])
    def test_vectorized_matches_scalar(self, label, rng):
        # a segment's cost is bitwise the same read alone or inside any
        # batch; the one-segment reads go to a fresh cache, so that the l1
        # table is filled in another order than by the batch
        x = np.round(rng.normal(size=(30, 3)), 1)
        spec = cost_from_label(label)
        starts = rng.integers(0, 29, size=40)
        ends = starts + rng.integers(1, 31 - starts)
        cuts = np.arange(3, 25)  # a split node's reads, as binseg makes them
        batches = [(starts, ends), (starts, 30), (0, ends),
                   (np.concatenate(([2], cuts, np.full(cuts.size, 2))),
                    np.concatenate(([27], np.full(cuts.size, 27), cuts)))]
        for batch_starts, batch_ends in batches:
            vals = CostCache(x, spec).values(batch_starts, batch_ends)
            alone = CostCache(x, spec)
            pairs = np.broadcast_arrays(batch_starts, batch_ends)
            assert vals.shape == pairs[0].shape
            assert vals.tolist() == [alone.values([a], [b])[0] for a, b in zip(*pairs)]

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

    @pytest.mark.parametrize("order", ["one-batch", "column-walk", "rows-and-columns"])
    @pytest.mark.parametrize("data", ["rounded", "three-valued", "exponential",
                                      "signed-zeros", "flat-channel"])
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (9, 1), (40, 3), (64, 4)])
    def test_l1_table_is_bitwise_the_segment_median_cost(self, n, d, data, order, rng):
        # every segment of the signal: odd and even lengths, ties within
        # segments (rounded values, or only three values in all), values
        # over many orders of magnitude, -0.0 beside 0.0 (medians of
        # either sign) and a constant channel. The table is first filled
        # in the order a solver asks: PELT's walk over the ends, each with
        # the starts it still considers (a known diagonal neighbour fills
        # the rest of the diagonal at once), or BINSEG's rows and columns
        # of a few segments; then every segment is asked for again.
        def flat_channel():
            x = np.round(rng.normal(size=(n, d)), 1)
            x[:, d // 2] = 0.25
            return x

        x = {"rounded": lambda: np.round(rng.normal(size=(n, d)), 1),
             "three-valued": lambda: rng.integers(0, 3, size=(n, d)) / 3,
             "exponential": lambda: rng.exponential(size=(n, d)) ** 8,
             "signed-zeros": lambda: rng.choice([-0.0, 0.0, 0.0, -0.5, 1.0], size=(n, d)),
             "flat-channel": flat_channel}[data]()
        cache = CostCache(x, SegmentCost("l1"))
        if order == "column-walk":
            for t in range(1, n + 1):
                starts = np.arange(t)
                cache.values(starts[rng.random(t) < 0.8], t)
        elif order == "rows-and-columns":
            for a, b in np.sort(rng.integers(0, n + 1, size=(6, 2)), axis=1).tolist():
                if b - a > 1:
                    cache.values(np.arange(a + 1, b), b)
                    cache.values(a, np.arange(a + 1, b))
        a, b = np.triu_indices(n + 1, k=1)
        got = cache.values(a, b)
        assert list(got) == [np.abs(x[s:e] - np.median(x[s:e], axis=0)).sum()
                             for s, e in zip(a, b)]

    def test_l1_diagonals_over_several_batches_are_bitwise_the_median_cost(self, rng):
        # at d = 8, PELT's column walk fills diagonals of more segments than
        # one batch of _L1_BLOCK samples holds; signed zeros and a constant
        # channel among them
        n, d = 260, 8
        x = rng.choice([-0.0, 0.0, 0.0, -0.5, 1.0, 2.5], size=(n, d))
        x[:, 3] = 0.25
        lengths = np.arange(1, n + 1)
        assert ((n - lengths + 1) > costs._L1_BLOCK // (lengths * d)).sum() > 50
        cache = CostCache(x, SegmentCost("l1"))
        for t in range(1, n + 1):
            cache.values(np.arange(t), t)
        a, b = np.triu_indices(n + 1, k=1)
        got = cache.values(a, b)
        assert list(got) == [np.abs(x[s:e] - np.median(x[s:e], axis=0)).sum()
                             for s, e in zip(a, b)]

    def test_l1_long_segments_are_bitwise_the_segment_median_cost(self, rng):
        # segments of more than 8192 samples x channels (numpy's reduce
        # buffer), filled a diagonal at a time in several batches
        x = np.round(rng.normal(size=(2100, 4)), 2)
        cache = CostCache(x, SegmentCost("l1"))
        cache.values(np.arange(8), 2050)
        cache.values(np.arange(9), 2051)  # fills the rest of 8 diagonals
        a, b = np.nonzero(~np.isnan(cache._l1_table))
        assert a.size > 300
        assert list(cache.values(a, b)) == [np.abs(x[s:e] - np.median(x[s:e], axis=0)).sum()
                                            for s, e in zip(a, b)]

    def test_invalid_batches_rejected(self):
        cache = CostCache(np.zeros(5), SegmentCost("l2"))
        for starts, ends in [([0, 2], [3, 2]), ([0, -1], [3, 2]), ([0, 1], [3, 6]), ([4], 3)]:
            with pytest.raises(ValueError):
                cache.values(np.array(starts), np.array(ends))
        assert cache.values(np.array([], dtype=int), 5).shape == (0,)


def _column_and_row(n, w, rng):
    """Segments of a prefix of length w: each ending at w, each starting at 0,
    and 200 drawn at random."""
    a = rng.integers(0, w, size=200)
    b = a + 1 + (rng.random(200) * (w - a)).astype(int)
    return (np.concatenate([np.arange(w), np.zeros(w, dtype=int), a]),
            np.concatenate([np.full(w, w), np.arange(1, w + 1), b]))


class TestPrefix:
    """A prefix of a cache answers bitwise as the cache of the prefix."""

    @pytest.mark.parametrize("n", [2, 45, 240, 721])
    @pytest.mark.parametrize("kind", ["l1", "l2", "normal"])
    def test_prefix_is_bitwise_the_cache_of_the_prefix(self, kind, n, rng):
        x = np.round(rng.exponential(size=(n, 3)) ** 2, 2)  # ties and spread
        spec = SegmentCost(kind)
        whole = CostCache(x, spec)
        ends = sorted({1, 2, n // 3 or 1, n // 2 or 1, n - 1 or 1, n})
        if kind == "l1":  # the whole signal's queries fill the table first
            whole.values(*_column_and_row(n, n, rng))
        for w in ends:  # shorter, then longer prefixes
            starts, stops = _column_and_row(n, w, rng)
            view = whole.prefix(w)
            assert view.n == w and view.signal.shape == (w, 3)
            assert list(view.values(starts, stops)) == \
                list(CostCache(x[:w], spec).values(starts, stops))
            # a prefix of a prefix, and the whole cache's answers after them
            assert list(view.prefix(w).values(starts, stops)) == \
                list(whole.values(starts, stops))
            with pytest.raises(ValueError):
                view.values([0], [w + 1])

    def test_l1_entries_filled_through_a_prefix_serve_the_whole(self, rng):
        x = np.round(rng.normal(size=(60, 2)), 1)
        whole = CostCache(x, SegmentCost("l1"))
        for t in range(1, 61):  # a column walk through growing prefixes
            whole.prefix(t).values(np.arange(t), t)
        a, b = np.triu_indices(61, k=1)
        assert not np.isnan(whole._l1_table[a, b]).any()
        assert list(whole.values(a, b)) == list(CostCache(x, SegmentCost("l1")).values(a, b))

    @pytest.mark.parametrize("label", ["rbf", "rbf:0.1"])
    def test_rbf_has_no_prefix(self, label):
        # the Gram's x @ x.T is rounded differently at different n, and the
        # median-heuristic bandwidth depends on the whole signal
        with pytest.raises(ValueError, match="whole signal"):
            CostCache(np.arange(10.0), cost_from_label(label)).prefix(5)

    @pytest.mark.parametrize("end", [0, 11, -1])
    def test_bad_ends_rejected(self, end):
        with pytest.raises(ValueError):
            CostCache(np.arange(10.0), SegmentCost("l2")).prefix(end)


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
            left, right, whole = cache.values([a, m, a], [m, b, b])
            assert left + right <= whole + 1e-9

    @pytest.mark.parametrize("kind", ["l1", "l2", "normal", "rbf"])
    def test_order_reversal_invariance(self, kind, rng):
        x = rng.normal(size=(15, 2))
        spec = SegmentCost(kind, gamma=1.0 if kind == "rbf" else None)
        forward = CostCache(x, spec).values([3], [12])[0]
        backward = CostCache(x[::-1], spec).values([15 - 12], [15 - 3])[0]
        assert forward == pytest.approx(backward, rel=1e-9)
