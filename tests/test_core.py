import csv
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maintseg.core import (
    DEGENERATE_STD,
    BusinessParams,
    Window,
    csv_line,
    parse_timestamp,
    prefix_windows,
    write_whole,
    znormalize,
)

from conftest import make_cycle


class TestZnormalize:
    def test_basic_values(self):
        out = znormalize([1.0, 2.0, 3.0])
        # (x - 2) / sqrt(2/3), population std
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_maps_to_zeros(self):
        np.testing.assert_array_equal(znormalize([5.0, 5.0, 5.0]), np.zeros(3))

    def test_mean_zero_std_one(self):
        out = znormalize([0.4, 1.9, 7.7, 2.2, 0.0])
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12

    def test_idempotent(self):
        x = np.array([0.3, 9.1, 2.0, 2.0, 5.5])
        once = znormalize(x)
        np.testing.assert_allclose(znormalize(once), once, atol=1e-9)

    def test_columns_normalized_independently(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out = znormalize(x)
        assert abs(out[:, 0].std() - 1.0) < 1e-12
        np.testing.assert_array_equal(out[:, 1], 0.0)  # flat column degenerates

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            znormalize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            znormalize([1.0, np.nan])

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=40),
           st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
    def test_affine_invariance(self, values, a, b):
        x = np.asarray(values)
        y = a * x + b
        # away from the degenerate cutoff, and with a spread large enough
        # that rounding y (cancellation against b) stays below the tolerance
        assume(_cutoff_side(x) != 0 and _cutoff_side(x) == _cutoff_side(y))
        np.testing.assert_allclose(znormalize(y), znormalize(x), atol=1e-9)

    def test_scaling_across_the_degenerate_cutoff(self):
        # std 1.6e-9 is below the cutoff, 7 times that is above it: the
        # documented cutoff maps the first to zeros and the second to +-1
        x = np.array([0.0, 3.239e-09])
        assert x.std() < DEGENERATE_STD <= (7.0 * x).std()
        np.testing.assert_array_equal(znormalize(x), [0.0, 0.0])
        np.testing.assert_allclose(znormalize(7.0 * x), [-1.0, 1.0], atol=1e-9)


def _cutoff_side(v: np.ndarray) -> int:
    """-1 clearly degenerate, 1 clearly normalizable, 0 too close to call."""
    std = v.std()
    if std < DEGENERATE_STD / 10:
        return -1
    if std > max(10 * DEGENERATE_STD, 1e-5 * np.abs(v).max()):
        return 1
    return 0


class TestPrefixWindows:
    @pytest.mark.parametrize("n,step,expected", [
        (21, 7, [7, 14, 21]),
        (10, 7, [7, 10]),
        (5, 7, [5]),
        (1, 7, [1]),
        (14, 14, [14]),
    ])
    def test_end_indices(self, n, step, expected):
        cycle = make_cycle(np.zeros(n))
        assert [w.end_index for w in prefix_windows(cycle, step)] == expected

    def test_bad_step(self):
        with pytest.raises(ValueError):
            prefix_windows(make_cycle(np.zeros(5)), 0)

    @given(st.integers(1, 200), st.integers(1, 31))
    @settings(max_examples=60)
    def test_covers_cycle_with_constant_spacing(self, n, step):
        cycle = make_cycle(np.zeros(n))
        ends = [w.end_index for w in prefix_windows(cycle, step)]
        assert ends[-1] == n
        assert all(b > a for a, b in zip(ends, ends[1:]))
        # constant spacing except possibly the last pair
        for a, b in zip(ends[:-2], ends[1:-1]):
            assert b - a == step

    def test_window_is_prefix_view(self):
        cycle = make_cycle(np.arange(10.0))
        w = prefix_windows(cycle, 4)[0]
        assert len(w) == 4
        np.testing.assert_array_equal(w.samples[:, 0], [0, 1, 2, 3])


class TestDomainTypes:
    def test_window_bounds(self):
        cycle = make_cycle(np.zeros(5))
        with pytest.raises(ValueError):
            Window(cycle, 0)
        with pytest.raises(ValueError):
            Window(cycle, 6)
        assert Window(cycle, 5).end_index == 5

    def test_business_params_validation(self):
        BusinessParams(rd=0.0, pp=1.0, ii=0.0, s=0.01)
        with pytest.raises(ValueError):
            BusinessParams(rd=-1.0)
        with pytest.raises(ValueError):
            BusinessParams(pp=0.0)
        with pytest.raises(ValueError):
            BusinessParams(s=0.0)
        with pytest.raises(ValueError):
            BusinessParams(ii=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["rd", "pp", "ii", "s"])
    def test_business_params_refuse_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            BusinessParams(**{field: value})

    def test_params_to_samples(self):
        rd, pp = BusinessParams(rd=1.0, pp=14.0).to_samples(period_hours=24.0)
        assert (rd, pp) == (1.0, 14.0)
        rd, pp = BusinessParams(rd=1.0, pp=14.0).to_samples(period_hours=12.0)
        assert (rd, pp) == (2.0, 28.0)

    def test_lifecycle_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            make_cycle(np.array([[1.0, -0.5]]))  # negative pre-normalization value
        with pytest.raises(ValueError):
            make_cycle(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            make_cycle(np.zeros((0, 2)))

    def test_lifecycle_samples_readonly(self):
        cycle = make_cycle(np.ones(4))
        with pytest.raises(ValueError):
            cycle.samples[0, 0] = 2.0


class TestParseTimestamp:
    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_utc_time_outside_datetime_range_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="outside datetime's range"):
            parse_timestamp(text)

    def test_calendar_ends_in_utc_parse(self):
        assert parse_timestamp("0001-01-01T01:00:00+01:00") == datetime(1, 1, 1, tzinfo=timezone.utc)
        assert parse_timestamp("9999-12-31T22:59:59-01:00") == \
            datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)


class TestWriteWhole:
    def test_utf8_with_the_line_ends_given(self, tmp_path):
        path = tmp_path / "sub" / "out.csv"
        write_whole(path, ["Zürich\n", "a\r\n"])
        assert path.read_bytes() == "Zürich\na\r\n".encode("utf-8")

    def test_a_raising_source_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_whole(path, ["old\n"])

        def rows():
            yield "new\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_whole(path, rows())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_csv_lines_quote_what_needs_it_and_read_back(self):
        rows = [["ATM, Paris 1", 0, 0.1, None],
                ['say "hi"', -1, float("inf"), "two\nlines"],
                ["Zürich", 2, 1e-17, ""]]
        text = "".join(map(csv_line, rows))
        assert "\r" not in text
        assert text.splitlines()[0] == '"ATM, Paris 1",0,0.1,'
        assert list(csv.reader(text.splitlines(keepends=True))) == \
            [[str(v) if v is not None else "" for v in row] for row in rows]
