import io
import json
import math
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maintseg import ingest
from maintseg.core import parse_timestamp
from maintseg.ingest import (
    CodeGroupingConfig,
    ConfigurationError,
    EventTable,
    FeatureRecipe,
    LogFormat,
    ParseQualityError,
    build_cycles,
    build_features,
    dataset_stats,
    default_grouping,
    load_cycle,
    load_cycles,
    parse_event_log,
    remove_infected,
    resample,
    save_cycle,
)

from conftest import make_cycle, parse_rows

UTC = timezone.utc
T0 = datetime(2019, 3, 1, tzinfo=UTC)
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
US = timedelta(microseconds=1)
HEADER = "timestamp,atm_id,lifecycle_id,event_code\n"


def ev(hours, code="6000", atm="atm1", lc=0):
    """One event as an (atm_id, lifecycle_id, time_us, event_code) row."""
    return atm, lc, (T0 + timedelta(hours=hours) - EPOCH) // US, code


def table(events):
    return EventTable(*zip(*events))


def as_rows(events: EventTable):
    return list(zip(events.atm_id.tolist(), events.lifecycle_id.tolist(),
                    events.time_us.tolist(), events.event_code.tolist()))


def cycle_files(log, tmp_path, name, fmt=None, **build):
    """Ingest ``log`` and save its cycles under tmp_path/name; returns
    {file name: bytes}."""
    built = build_cycles(parse_event_log(log, fmt).records, default_grouping(), **build)
    for cycle in built.cycles:
        save_cycle(cycle, tmp_path / name)
    return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}


def per_event_counts(events, period_hours, ii_days, universe):
    """Reference for build_cycles: per-event loops over (atm, lifecycle,
    time_us, code) rows, with datetime arithmetic. Returns the infected
    count and {(atm, lifecycle): counts}."""
    marks = {}
    for atm, lc, t, _ in events:
        marks[atm, lc] = max(t, marks.get((atm, lc), t))
    ii = timedelta(days=ii_days)

    def infected(atm, lc, t):
        at = EPOCH + t * US
        return ii_days > 0 and any(
            a == atm and other != lc and EPOCH + m * US <= at <= EPOCH + m * US + ii
            for (a, other), m in marks.items())

    kept = [e for e in events if not infected(*e[:3])]
    per_cycle = {}
    for atm, lc, t, code in kept:
        if code in universe:
            per_cycle.setdefault((atm, lc), []).append((t, code))
    bucket_s = period_hours * 3600.0
    out = {}
    for key, evs in per_cycle.items():
        start, end = min(t for t, _ in evs), max(t for t, _ in evs)
        n = max(1, math.ceil(timedelta(microseconds=end - start).total_seconds() / bucket_s))
        counts = np.zeros((n, len(universe)), dtype=int)
        for t, code in evs:
            k = int(timedelta(microseconds=t - start).total_seconds() / bucket_s)
            counts[min(k, n - 1), universe.index(code)] += 1
        out[key] = counts
    return len(events) - len(kept), out


class TestParseEventLog:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "2019-03-01T10:00:00Z,atm42,3,6001\n")
        result = parse_event_log(path)
        assert result.malformed_count == 0
        assert as_rows(result.records) == [
            ("atm42", 3, (datetime(2019, 3, 1, 10, tzinfo=UTC) - EPOCH) // US, "6001")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(HEADER)
        result = parse_event_log(path)
        assert len(result.records) == 0 and result.malformed_count == 0

    def test_one_bad_row_of_100(self, tmp_path):
        rows = ["timestamp,atm_id,lifecycle_id,event_code"]
        rows += [(T0 + timedelta(minutes=k)).strftime("%Y-%m-%dT%H:%M:%SZ")
                 + ",atm1,0,6000" for k in range(99)]
        rows.insert(50, "not-a-timestamp,atm1,0,6000")
        path = tmp_path / "log.csv"
        path.write_text("\n".join(rows) + "\n")
        result = parse_event_log(path)
        assert len(result.records) == 99
        assert result.malformed_count == 1

    def test_parse_quality_gate(self, tmp_path):
        rows = ["timestamp,atm_id,lifecycle_id,event_code"]
        rows += ["2019-03-01T10:00:00Z,atm1,0,6000"] * 8
        rows += ["garbage,,x,"] * 2  # 2 of 10 malformed
        path = tmp_path / "log.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseQualityError):
            parse_event_log(path)

    def test_lifecycle_id_beyond_64_bits_is_malformed(self):
        log = HEADER + "".join(f"2019-03-01T10:00:00Z,atm1,{lc},6000\n"
                               for lc in (2**63, -2**63, 2**63 - 1, *range(17)))
        result = parse_event_log(io.StringIO(log))
        assert (len(result.records), result.malformed_count) == (18, 2)
        assert result.records.lifecycle_id.max() == 2**63 - 1

    def test_unreadable_source(self, tmp_path):
        with pytest.raises(OSError):
            parse_event_log(tmp_path / "missing.csv")

    def test_records_sorted(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(HEADER +
                        "2019-03-02T00:00:00Z,b,0,6000\n"
                        "2019-03-01T00:00:00Z,a,1,6000\n"
                        "2019-03-01T12:00:00Z,a,0,6001\n"
                        "2019-03-01T00:00:00Z,a,0,6002\n")
        events = parse_event_log(path).records
        assert [(a, lc, c) for a, lc, _, c in as_rows(events)] == [
            ("a", 0, "6002"), ("a", 0, "6001"), ("a", 1, "6000"), ("b", 0, "6000")]

    def test_headerless_index_mapping(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("2019-03-01T10:00:00Z\tatmX\t2\t6002\n")
        fmt = LogFormat(delimiter="\t", timestamp=0, atm_id=1, lifecycle_id=2,
                        event_code=3, has_header=False)
        ((atm, lc, _, code),) = as_rows(parse_event_log(path, fmt).records)
        assert (atm, lc, code) == ("atmX", 2, "6002")


class TestLogFormat:
    def test_json_keys_map_to_fields(self):
        fmt = LogFormat.from_json('{"delimiter": ";", "lifecycle_id": null}')
        assert fmt == LogFormat(delimiter=";", lifecycle_id=None)

    @pytest.mark.parametrize("text, named", [
        ('{"delimiter": ";", "timestmp": 0}', "'timestmp'"),
        ('["timestamp"]', "JSON object"),
    ], ids=["unknown-key", "not-an-object"])
    def test_malformed_json_is_a_config_error(self, text, named):
        with pytest.raises(ConfigurationError, match=named):
            LogFormat.from_json(text)

    def test_negative_index_in_json_is_a_config_error(self):
        text = ('{"timestamp": -4, "atm_id": -3, "lifecycle_id": -2, "event_code": -1, '
                '"has_header": false}')
        with pytest.raises(ConfigurationError, match="'timestamp'"):
            LogFormat.from_json(text)

    @pytest.mark.parametrize("key", ["timestamp", "atm_id", "lifecycle_id", "event_code"])
    def test_negative_index_is_refused_on_construction(self, key):
        columns = dict(timestamp=0, atm_id=1, lifecycle_id=2, event_code=3)
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            LogFormat(has_header=False, **{**columns, key: -1})


class TestParseKeeps:
    """Parse behaviour pinned through the cycles it gives."""

    def test_header_without_a_mapped_column_fails_every_row(self):
        log = "timestamp,atm_id,event_code\n" + "2019-03-01T10:00:00Z,atm1,6000\n" * 5
        with pytest.raises(ParseQualityError) as info:
            parse_event_log(io.StringIO(log))
        assert (info.value.malformed, info.value.total) == (5, 5)

    def test_whitespace_only_rows_skipped_and_not_counted(self):
        log = (HEADER + "2019-03-01T10:00:00Z,atm1,0,6000\n"
               "   \n\n \t , ,\t\n,,,\n"
               "2019-03-02T10:00:00Z,atm1,0,6000\n")
        result = parse_event_log(io.StringIO(log))
        assert (len(result.records), result.total_rows, result.malformed_count) == (2, 2, 0)

    def test_no_lifecycle_column_is_cycle_zero(self):
        log = ("timestamp,atm_id,event_code\n"
               "2019-03-01T10:00:00Z,b,6000\n"
               "2019-03-01T11:00:00Z,a,6000\n"
               "2019-03-03T10:00:00Z,a,6001\n")
        fmt = LogFormat(lifecycle_id=None)
        built = build_cycles(parse_event_log(io.StringIO(log), fmt).records, default_grouping())
        assert [(c.key, c.n) for c in built.cycles] == [(("a", 0), 2), (("b", 0), 1)]

    def test_offset_and_naive_timestamps_are_utc(self):
        log = (HEADER +
               "2019-03-01T00:00:00,atm1,0,6000\n"  # naive: midnight UTC
               "2019-03-02T01:30:00+02:00,atm1,0,6001\n"  # 23:30 UTC, day 0
               "2019-03-02T20:00:00Z,atm1,0,6000\n")
        (cycle,) = build_cycles(parse_event_log(io.StringIO(log)).records,
                                default_grouping()).cycles
        assert cycle.start_time == T0
        assert cycle.samples[:, 0].tolist() == [1.0, 0.0]  # dist_error_ok per day

    def test_text_stream_source_parses(self, tmp_path):
        log = HEADER + "2019-03-01T10:00:00Z,atm1,0,6000\n2019-03-04T10:00:00Z,atm1,0,6001\n"
        path = tmp_path / "log.csv"
        path.write_text(log)
        assert cycle_files(io.StringIO(log), tmp_path, "from_stream") == \
            cycle_files(path, tmp_path, "from_path")

    def test_shuffled_lines_give_identical_cycle_files(self, tmp_path):
        rng = random.Random(7)
        codes = sorted(default_grouping().codes) + ["9999"]
        lines = []
        for m in range(3):
            start = T0 + timedelta(hours=rng.randrange(48))
            for lc in range(3):
                end = start + timedelta(days=rng.uniform(5, 12))
                for _ in range(60):
                    t = start + (end - start) * rng.random()
                    lines.append(f"{t:%Y-%m-%dT%H:%M:%S.%fZ},atm{m},{lc},{rng.choice(codes)}")
                lines.append(f"{end:%Y-%m-%dT%H:%M:%S.%fZ},atm{m},{lc},8000")
                start = end + timedelta(hours=rng.uniform(1, 30))
        shuffled = lines[:]
        rng.shuffle(shuffled)
        for period, ii in ((24.0, 1.0), (1.0, 0.5)):
            name = f"{period}-{ii}"
            a = cycle_files(io.StringIO(HEADER + "\n".join(lines)), tmp_path, "a" + name,
                            period_hours=period, ii_days=ii)
            b = cycle_files(io.StringIO(HEADER + "\n".join(shuffled)), tmp_path, "b" + name,
                            period_hours=period, ii_days=ii)
            assert len(a) == 18 and a == b


def parsed_or_refused(parse, text, fmt):
    try:  # lines split as in a log file opened by path: at "\n", "\r" or "\r\n"
        return parse(io.StringIO(text, newline=""), fmt)
    except ParseQualityError as exc:
        return exc


def assert_parses_like_rows(text, fmt=LogFormat()):
    """parse_event_log and the row-at-a-time reference agree on ``text``:
    every column with its dtype, both counts, or the ParseQualityError."""
    want = parsed_or_refused(parse_rows, text, fmt)
    got = parsed_or_refused(parse_event_log, text, fmt)
    if isinstance(want, ParseQualityError):
        assert isinstance(got, ParseQualityError)
        assert (got.malformed, got.total) == (want.malformed, want.total)
        return want
    assert (got.total_rows, got.malformed_count) == (want.total_rows, want.malformed_count)
    for name in ("atm_id", "lifecycle_id", "time_us", "event_code"):
        a, b = getattr(got.records, name), getattr(want.records, name)
        assert (name, a.dtype) == (name, b.dtype)
        assert a.tolist() == b.tolist(), name
    return want


def filler(n, order=(0, 1, 2, 3), delimiter=","):
    """n well-formed rows over 5 machines, 3 life cycles and 4 codes, out of
    time order, with their fields in ``order``."""
    rows = [(f"2019-03-{1 + k * 11 % 28:02d}T{k % 24:02d}:{k * 7 % 60:02d}:{k % 60:02d}Z",
             f"m{k % 5}", str(k % 3), f"600{k % 4}") for k in range(n)]
    return [delimiter.join(row[i] for i in order) for row in rows]


def stamped(stamps):
    return [f"{stamp},atm1,0,6000" for stamp in stamps]


# edge rows in the default format; each case is padded with 9 well-formed
# rows per edge row, so that it stays at or under the 10% gate
PARITY_CASES = {
    "quoted-ids-with-the-delimiter": [
        '2019-03-01T10:00:00Z,"ATM, Paris 1",0,6000',
        '2019-03-01T11:00:00Z,"ATM, Paris 1",0,"60,01"',
        '2019-03-01T12:00:00Z,"an ""ATM"", quoted",1,6000'],
    "blank-and-whitespace-rows": ["", "   ", " , , ,", ",,,", "\t", ",,,,,,", '"",""'],
    "short-rows": ["2019-03-01T10:00:00Z,atm1,0", "2019-03-01T10:00:00Z,atm1",
                   "2019-03-01T10:00:00Z", " ,atm1", "x", "not-a-time,atm1"],
    "stamp-suffixes-and-shapes": stamped([
        "2019-03-01T10:00:00Z", "2019-03-01T10:00:00z", "2019-03-01T10:00:00+02:00",
        "2019-03-01T10:00:00-05:30", "2019-03-01T10:00:00+00:00",
        "2019-03-01T10:00:00.123456Z", "2019-03-01T10:00:00.5", "2019-03-01 10:00:00",
        "2019-03-01 10:00:00Z", "2019-03-01x10:00:00", "2019-03-01/10:00:00",
        "2019-03-01t10:00:00", " 2019-03-01T10:00:00Z ", "\t2019-03-01T10:00:00",
        "2019-03-01T10:00", "2019-03-01", "20190301T100000", "2019-03-01T10:00:00ZZ",
        "2019-03-01T10:00:00Zx", "2019-03-01T10:00:00 Z", "2019-3-01T10:00:00",
        "2019-03-01T10:00:00+", "2019-03-01T10:00:00."]),
    "stamp-ranges": stamped([
        "2019-03-01T24:00:00Z", "2019-03-01T23:59:60Z", "2019-03-01T23:60:00",
        "2019-02-29T00:00:00", "2020-02-29T00:00:00", "1900-02-29T00:00:00",
        "2000-02-29T00:00:00", "0000-01-01T00:00:00", "0001-01-01T00:00:00Z",
        "9999-12-31T23:59:59Z", "2019-00-10T00:00:00", "2019-13-01T00:00:00",
        "2019-04-31T00:00:00", "2019-04-30T00:00:00", "2019-01-00T00:00:00",
        "2019-12-31T23:59:59", "1969-12-31T23:59:59Z", "1970-01-01T00:00:00Z"]),
    "stamp-offsets-at-the-calendar-ends": stamped([
        "0001-01-01T00:00:00+01:00", "0001-01-01T01:00:00+01:00",
        "9999-12-31T23:59:59-01:00", "9999-12-31T22:59:59-01:00"]),
    "stamp-characters": stamped([
        "\uff12\uff10\uff11\uff19-03-01T10:00:00", "2019-03-01T10:00:0\u0663",
        "2019-03-01T10:00:00\x00", "2019-03-01T10:00:0\x00", "2019-03-01T1\x000:00:00",
        "2019-03-01\x0010:00:00", "2019-03-01T10:00:00\xa0", "2019\u201003-01T10:00:00"]),
    "padded-and-empty-ids": [
        "2019-03-01T10:00:00Z,  atm1  ,0, 6000 ", "2019-03-01T10:00:00Z,\tatm2\t,0,6001",
        "2019-03-01T10:00:00Z, ,0,6000", "2019-03-01T10:00:00Z,atm1,0,  ",
        "2019-03-01T10:00:00Z,,0,6000", "2019-03-01T10:00:00Z,atm1,0,"],
    "lifecycle-values": [f"2019-03-01T10:00:00Z,atm1,{value},6000" for value in (
        " 12 ", "+3", "1_000", "\u0663", "\u0663\u0663", str(2**63), str(-2**63),
        str(2**63 - 1), str(-2**63 + 1), "-0", "1.0", "", " ", "0x10", "1e3", "_1")],
    "longest-id-only-on-malformed-rows": [
        "not-a-time,an-id-longer-than-any-other,0,6000",
        "2019-03-01T10:00:00Z,a-long-id-with-a-bad-cycle,x,6000",
        "bad,atm1,0,a-code-longer-than-any-other"],
    "quote-free-short-long-empty-and-blank-rows": [
        "", "", "   ", "\t", " , , ,", ",,,", ",,,,,,", "2019-03-01T10:00:00Z,atm1,0",
        "2019-03-01T10:00:00Z,atm1", "2019-03-01T10:00:00Z", "x",
        "2019-03-01T10:00:00Z,atm1,0,6000,extra", "2019-03-01T10:00:00Z,atm2,1,6001,,,,,",
        "2019-03-01T10:00:00Z,atm3,0,6000,a,b,c,d,e,f,g,h"],
}


class TestParseMatchesRowReference:
    """The column decoder gives what the row-at-a-time parse gives."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_edge_rows(self, case):
        lines = PARITY_CASES[case]
        assert_parses_like_rows(HEADER + "\n".join(lines + filler(9 * len(lines))) + "\n")

    @pytest.mark.parametrize("text", ["", HEADER, HEADER + " \n,,,\n"],
                             ids=["no-rows", "header-only", "blank-rows-only"])
    def test_empty_logs(self, text):
        assert len(assert_parses_like_rows(text).records) == 0

    @pytest.mark.parametrize("good, refused", [(8, False), (7, True)])
    def test_more_than_10_percent_malformed_is_refused_alike(self, good, refused):
        want = assert_parses_like_rows(HEADER + "\n".join(
            stamped(["2019-03-01T24:00:00Z", "2019-03-01T10:00:00Z"]) + filler(good)) + "\n")
        assert isinstance(want, ParseQualityError) == refused

    def test_header_without_a_mapped_column(self):
        lines = filler(20, order=(0, 1, 3))
        want = assert_parses_like_rows("timestamp,atm_id,event_code\n" + "\n".join(lines))
        assert isinstance(want, ParseQualityError)

    def test_headerless_index_mapping(self):
        fmt = LogFormat(timestamp=3, atm_id=0, lifecycle_id=2, event_code=1, has_header=False)
        lines = filler(30, order=(1, 3, 2, 0)) + ["m1,6000,0", "m1,6000,0,bad-time,extra"]
        assert assert_parses_like_rows("\n".join(lines) + "\n", fmt).malformed_count == 2

    def test_no_lifecycle_column(self):
        fmt = LogFormat(lifecycle_id=None)
        lines = filler(30, order=(0, 1, 3)) + ["2019-03-01T10:00:00Z,atm1,x"]
        assert_parses_like_rows("timestamp,atm_id,event_code\n" + "\n".join(lines), fmt)

    def test_semicolon_delimiter(self):
        fmt = LogFormat(delimiter=";")
        lines = filler(30, delimiter=";") + ["2019-03-01T10:00:00Z;atm, 1;0;6000",
                                             "2019-03-01T10:00:00Z,atm1,0,6000"]
        assert assert_parses_like_rows(
            HEADER.replace(",", ";") + "\n".join(lines), fmt).malformed_count == 1

    def test_seeded_log_over_several_chunks(self):
        """Malformed and blank rows at each chunk's first and last row, an id
        that first appears in the last chunk, another whose only rows are
        malformed in one chunk and well-formed in the next."""
        chunk = ingest._CHUNK_ROWS
        rng = random.Random(11)
        lines = []
        for k in range(3 * chunk + 500):
            t = T0 + timedelta(seconds=rng.randrange(400 * 86400),
                               microseconds=rng.choice([0, 0, 0, 250000]))
            stamp = rng.choice([f"{t:%Y-%m-%dT%H:%M:%S}Z"] * 8 + [f"{t:%Y-%m-%d %H:%M:%S}",
                                t.astimezone(timezone(timedelta(hours=2))).isoformat()])
            lines.append(f"{stamp},atm{rng.randrange(40)},{rng.randrange(4)},"
                         f"{rng.choice(['6000', '6001', '8000', '9999'])}")
        bad = ["2019-13-45T99:00:00Z,atm0,0,6000", "2019-02-01T00:00:00Z,,0,6000",
               "2019-02-01T00:00:00Z,atm0,first,6000", "2019-02-01T00:00:00Z,atm0"]
        for c in (1, 2, 3):
            edge = c * chunk  # the first data row of a chunk
            lines[edge - 1], lines[edge] = bad[c], bad[(c + 1) % 4]
            lines[edge - 2] = lines[edge + 1] = " , ,"
        lines[chunk + 5] = "2019-02-01T00:00:00Z,split,x,6000"
        lines[2 * chunk + 5] = "2019-02-01T00:00:00Z,split,1,6000"
        lines[-3] = "2019-02-01T00:00:00Z,late-machine,0,6000"
        want = assert_parses_like_rows(HEADER + "\n".join(lines) + "\n")
        assert (want.total_rows, want.malformed_count) == (len(lines) - 6, 7)
        assert {"split", "late-machine"} <= set(want.records.atm_id.tolist())

    @pytest.mark.parametrize("delimiter", ["\t", ";", "\u00a7", "|"],
                             ids=["tab", "semicolon", "section-sign", "bar"])
    def test_other_delimiters(self, delimiter):
        fmt = LogFormat(delimiter=delimiter)
        lines = filler(40, delimiter=delimiter) + [
            delimiter.join(["2019-03-01T10:00:00Z", "atm, 1", "0", "6000"]),
            "2019-03-01T10:00:00Z,atm1,0,6000", delimiter * 3]
        want = assert_parses_like_rows(HEADER.replace(",", delimiter) + "\n".join(lines), fmt)
        assert (want.total_rows, want.malformed_count) == (42, 1)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("last", ["\n", ""], ids=["ended", "unended"])
    def test_line_ends(self, end, last):
        lines = filler(2 * ingest._CHUNK_ROWS + 7) + ["2019-03-01T10:00:00Z,atm1", ""]
        text = (HEADER + "\n".join(lines[:-1]) + last).replace("\n", end)
        want = assert_parses_like_rows(text)
        assert (want.total_rows, want.malformed_count) == (len(lines) - 1, 1)

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first-chunk", "second-chunk", "third-chunk"])
    def test_first_quote_after_whole_chunks(self, at):
        """Rows past the first chunk holding a quote are csv's, quoted
        delimiters, doubled quotes and a line end inside quotes included."""
        chunk = ingest._CHUNK_ROWS
        lines = filler(3 * chunk + 100)
        k = at * chunk + 17
        lines[k] = '2019-03-01T10:00:00Z,"ATM, ""Paris""\n1",0,6000'
        lines[k + 40] = "2019-03-01T10:00:00Z,atm1,0"  # short, after the first quote
        lines[k - 40 if k >= 40 else k + 41] = ",,"
        want = assert_parses_like_rows(HEADER + "\n".join(lines) + "\n")
        assert 'ATM, "Paris"\n1' in want.records.atm_id.tolist()


class TestBulkSplit:
    """Quote-free chunks are split without csv.reader, into csv's fields."""

    def test_quote_free_log_never_reaches_csv_reader_past_its_header(self, monkeypatch):
        rows = []
        csv_reader = ingest.csv.reader

        class Counting:
            def __init__(self, lines, **kwargs):
                self.reader = csv_reader(lines, **kwargs)
                self.line_num = 0

            def __iter__(self):
                return self

            def __next__(self):
                rows.append(next(self.reader))
                self.line_num = self.reader.line_num
                return rows[-1]

        monkeypatch.setattr(ingest.csv, "reader", Counting)
        lines = filler(3 * ingest._CHUNK_ROWS)
        lines[5:5] = ["", "2019-03-01T10:00:00Z,atm1", ",,,"]
        got = parse_event_log(io.StringIO(HEADER + "\n".join(lines) + "\n"))
        assert (got.total_rows, got.malformed_count) == (len(lines) - 2, 1)
        assert rows == [HEADER.strip().split(",")]

    def test_seeded_log_with_a_late_quote_and_crlf(self):
        """The same rows read alike as LF lines, as CRLF lines and with a
        quoted field after more than one chunk."""
        lines = filler(ingest._CHUNK_ROWS + 500)
        plain = HEADER + "\n".join(lines) + "\n"
        quoted = lines.copy()
        quoted[ingest._CHUNK_ROWS + 300] = quoted[ingest._CHUNK_ROWS + 300].replace(
            ",m", ',"m', 1).replace(",", '",', 2).replace('",', ",", 1)
        assert '"' in quoted[ingest._CHUNK_ROWS + 300]
        results = [parse_event_log(io.StringIO(text, newline="")) for text in (
            plain, plain.replace("\n", "\r\n"), HEADER + "\n".join(quoted) + "\n")]
        for got in results[1:]:
            assert (got.total_rows, got.malformed_count) == (len(lines), 0)
            assert as_rows(got.records) == as_rows(results[0].records)


class TestFieldSizeLimit:
    """A field over csv.field_size_limit() is a ValueError naming its log
    line, whichever path reads it."""

    LONG = "x" * 200_000

    @pytest.mark.parametrize("row", [10, ingest._CHUNK_ROWS + 10], ids=["first-chunk", "later"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["quote-free", "quoted"])
    def test_long_field_names_its_line(self, row, quoted):
        lines = filler(ingest._CHUNK_ROWS + 50)
        lines[row] = f"2019-03-01T10:00:00Z,{self.LONG},0,6000"
        if quoted:
            lines[1] = '2019-03-01T10:00:00Z,"m1",0,6000'
        with pytest.raises(ValueError, match=rf"^log line {row + 2}: field larger than "
                                             r"field limit \(131072\)$"):
            parse_event_log(io.StringIO(HEADER + "\n".join(lines) + "\n"))

    def test_long_header_field(self):
        with pytest.raises(ValueError, match=r"^log line 1: field larger"):
            parse_event_log(io.StringIO(self.LONG + "\n" + "\n".join(filler(3))))

    def test_long_line_of_short_fields_is_read(self):
        """A line over the limit whose fields are all under it goes to csv,
        which reads it."""
        lines = filler(20)
        lines[5] += "," + ",".join(["y" * 1000] * 200)
        assert_parses_like_rows(HEADER + "\n".join(lines) + "\n")


BULK_SHAPE = st.tuples(
    st.integers(0, 9999), st.integers(0, 99), st.integers(0, 99), st.sampled_from("T t"),
    st.integers(0, 99), st.integers(0, 99), st.integers(0, 99),
    st.sampled_from(["", "Z", "z", "+00:00", "Z "]))


@settings(max_examples=300, deadline=None)
@given(st.lists(BULK_SHAPE, min_size=1, max_size=40))
def test_bulk_times_accept_what_parse_timestamp_accepts(parts):
    """A string of the bulk shape decodes in bulk exactly when parse_timestamp
    takes it, to the same microsecond; any other is left to parse_timestamp."""
    texts = [f"{y:04d}-{mo:02d}-{d:02d}{sep}{h:02d}:{mi:02d}:{s:02d}{tail}"
             for y, mo, d, sep, h, mi, s, tail in parts]
    time_us, ok = ingest._bulk_times(texts)
    for text, t, decoded in zip(texts, time_us.tolist(), ok.tolist()):
        try:
            want = (parse_timestamp(text) - EPOCH) // US
        except ValueError:
            want = None
        bulk_shape = text[10] in "T " and text[19:] in ("", "Z", "z")
        assert decoded == (bulk_shape and want is not None), text
        if decoded:
            assert t == want, text


def test_only_strings_the_bulk_decoder_leaves_reach_parse_timestamp(monkeypatch):
    seen = []

    def spy(text):
        seen.append(text)
        return parse_timestamp(text)

    monkeypatch.setattr(ingest, "parse_timestamp", spy)
    log = HEADER + "\n".join(
        stamped(["2019-03-01T10:00:00+02:00", "2019-03-01T24:00:00Z", "2019-03-01 10:00:00"])
        + filler(30) + ["   ", "2019-03-01T10:00:00.5Z,atm1,0,6000"])
    assert parse_event_log(io.StringIO(log)).malformed_count == 1
    assert seen == ["2019-03-01T10:00:00+02:00", "2019-03-01T24:00:00Z",
                    "2019-03-01T10:00:00.5Z"]


class TestByteOrderMark:
    """One leading U+FEFF is dropped from a path or a text stream."""

    @pytest.mark.parametrize("as_path", [True, False], ids=["path", "stream"])
    @pytest.mark.parametrize("header", [True, False], ids=["header", "headerless"])
    def test_leading_mark_is_dropped(self, tmp_path, as_path, header):
        fmt = LogFormat() if header else LogFormat(timestamp=0, atm_id=1, lifecycle_id=2,
                                                   event_code=3, has_header=False)
        log = (HEADER if header else "") + "\n".join(filler(10)) + "\n"
        path = tmp_path / "log.csv"
        path.write_bytes(b"\xef\xbb\xbf" + log.encode())
        source = path if as_path else io.StringIO(path.read_text(encoding="utf-8"))
        got = parse_event_log(source, fmt)
        want = parse_event_log(io.StringIO(log), fmt)
        assert (got.total_rows, got.malformed_count) == (10, 0)
        assert as_rows(got.records) == as_rows(want.records)

    def test_quoted_first_field_after_the_mark(self):
        log = '\ufeff"timestamp",atm_id,lifecycle_id,event_code\n' + "\n".join(filler(3))
        assert parse_event_log(io.StringIO(log)).malformed_count == 0


class TestEventTable:
    def test_names_are_sorted_categories_that_slices_keep(self):
        events = table([ev(3, "8000", "b"), ev(1, "6000", "a"), ev(2, "6001", "b", 1),
                        ev(0, "6000", "b")])
        assert events.atm_names.tolist() == ["a", "b"]
        assert events.code_names.tolist() == ["6000", "6001", "8000"]
        assert events.atm_index.tolist() == [0, 1, 1, 1]
        assert events.code_index.tolist() == [0, 0, 2, 1]
        part = events[events.time_us > events.time_us.min()]
        assert part.atm_names is events.atm_names and part.code_names is events.code_names
        assert part.atm_id.tolist() == ["a", "b", "b"]
        assert part.event_code.tolist() == ["6000", "8000", "6001"]
        assert part.atm_id.dtype == events.atm_id.dtype == np.dtype("<U1")

    def test_parsed_table_equals_the_constructed_one(self):
        parsed = parse_event_log(io.StringIO(HEADER + "\n".join(filler(50)))).records
        built = table(as_rows(parsed))
        for name in ("atm_names", "code_names", *EventTable._ROWS):
            assert getattr(parsed, name).tolist() == getattr(built, name).tolist(), name


class TestRemoveInfected:
    def test_zero_interval_is_identity(self):
        events = table([ev(0), ev(5), ev(5, lc=1)])
        assert as_rows(remove_infected(events, 0.0)) == as_rows(events)

    def test_negative_interval_is_an_error(self):
        events = table([ev(0), ev(5), ev(5, lc=1)])
        with pytest.raises(ValueError, match="ii must be >= 0"):
            remove_infected(events, -1.0)
        with pytest.raises(ValueError, match="ii must be >= 0"):
            build_cycles(events, default_grouping(), ii_days=-0.5)

    def test_day_membership(self):
        # cycle 0's failure at day 10 infects [10, 11] on the same machine
        events = table([ev(0), ev(24 * 10), ev(24 * 10.5, lc=1), ev(24 * 11, lc=1),
                        ev(24 * 11.5, lc=1)])
        kept = remove_infected(events, 1.0)
        assert as_rows(kept) == [ev(0), ev(24 * 10), ev(24 * 11.5, lc=1)]

    def test_overlapping_intervals_union(self):
        events = table([ev(24 * 10), ev(24 * 10.5, lc=1),
                        ev(24 * 10.2, lc=2), ev(24 * 11.2, lc=2), ev(24 * 11.8, lc=2)])
        kept = remove_infected(events, 1.0)
        # cycle 1's failure lies inside cycle 0's interval, and still marks one
        assert as_rows(kept) == [ev(24 * 10), ev(24 * 11.8, lc=2)]

    def test_other_machines_untouched(self):
        events = table([ev(0), ev(1, lc=1), ev(1, atm="atm2", lc=1)])
        assert as_rows(remove_infected(events, 1.0)) == [ev(0), ev(1, atm="atm2", lc=1)]

    def test_idempotent(self):
        # no cycle's last event is infected, so the failure marks stay put
        events = table([ev(h) for h in range(0, 49, 7)] +
                       [ev(h, lc=1) for h in range(50, 150, 7)])
        once = remove_infected(events, 1.0)
        assert len(once) < len(events)
        assert as_rows(remove_infected(once, 1.0)) == as_rows(once)


class TestResample:
    def test_three_events_one_bucket(self):
        events = table([ev(1, "6001"), ev(2, "6001"), ev(3, "6001")])
        counts = resample(events, 24.0, ["6000", "6001"])
        assert counts.shape == (1, 2)
        assert counts[0, 1] == 3

    def test_gap_day_is_explicit_zero_row(self):
        counts = resample(table([ev(0), ev(50)]), 24.0, ["6000"])
        assert counts.shape == (3, 1)
        assert counts[1, 0] == 0

    def test_hand_computed_fixture(self):
        # 10 events over ~58 hours -> 3 daily buckets
        events = [(0, "6000"), (5, "6001"), (23.98, "6000"),
                  (24, "6000"), (36, "6001"),
                  (49, "6000"), (50, "6001"), (51, "6001"), (52, "6000"), (58, "6000")]
        counts = resample(table([ev(h, c) for h, c in events]), 24.0, ["6001", "6000"])
        np.testing.assert_array_equal(counts, [[1, 2], [1, 1], [2, 3]])

    def test_code_outside_the_universe_is_refused(self):
        events = table([ev(0, "6000"), ev(1, "9999")])
        with pytest.raises(ValueError, match="not in code_universe"):
            resample(events, 24.0, ["6000", "6001"])
        # a slice's rows may leave out names past the universe's end
        assert resample(events[:1], 24.0, ["6000"]).tolist() == [[1]]

    def test_conserves_events(self, rng):
        universe = ["6000", "6001", "6002"]
        hours = rng.uniform(0, 24 * 30, size=200)
        codes = rng.choice(universe, size=200)
        events = table([ev(float(h), c) for h, c in zip(hours, codes)])
        counts = resample(events, 24.0, universe)
        assert counts.sum() == 200
        assert counts.sum(axis=0).tolist() == [np.count_nonzero(codes == c) for c in universe]


class TestBuildFeatures:
    def grouping(self):
        return CodeGroupingConfig(
            codes={"6000": ("distribution", "OK"), "6001": ("distribution", "Error"),
                   "6002": ("distribution", "Warning")},
            features=(FeatureRecipe("ko", ("distribution",), ("Error",)),),
        )

    def test_plain_ratio(self):
        counts = np.array([[8, 4, 0]])  # 8 OK, 4 Error
        cycle = build_features(counts, ["6000", "6001", "6002"], self.grouping())
        assert cycle.samples[0, 0] == pytest.approx(0.5)

    def test_denominator_clamped_at_one(self):
        counts = np.array([[0, 3, 0]])
        cycle = build_features(counts, ["6000", "6001", "6002"], self.grouping())
        assert cycle.samples[0, 0] == pytest.approx(3.0)

    def test_all_zero_bucket(self):
        counts = np.zeros((1, 3), dtype=int)
        cycle = build_features(counts, ["6000", "6001", "6002"], self.grouping())
        assert cycle.samples[0, 0] == 0.0

    def test_missing_column_is_config_error(self):
        with pytest.raises(ConfigurationError):
            build_features(np.zeros((1, 1)), ["6000"], self.grouping())

    def test_scale_free_in_counts(self):
        counts = np.array([[8, 4, 2]])
        doubled = counts * 2
        universe = ["6000", "6001", "6002"]
        a = build_features(counts, universe, self.grouping()).samples
        b = build_features(doubled, universe, self.grouping()).samples
        np.testing.assert_allclose(a, b)

    def test_nonnegative_everywhere(self, rng):
        counts = rng.integers(0, 20, size=(30, 3))
        cycle = build_features(counts, ["6000", "6001", "6002"], self.grouping())
        assert np.all(cycle.samples >= 0)


class TestGroupingConfig:
    def test_default_grouping_shape(self):
        g = default_grouping()
        assert len(g.codes) == 15
        assert len(g.features) == 4
        assert g.codes["6000"] == ("distribution", "OK")
        assert g.codes["6001"] == ("distribution", "Error")
        assert g.codes["6002"] == ("distribution", "Warning")
        assert len(g.codes_in_group("withdrawal")) == 2
        # five storage boxes, OK + Error each
        k7 = [c for c, (grp, _) in g.codes.items() if grp.startswith("k7_")]
        assert len(k7) == 10

    def test_unknown_group_rejected(self):
        with pytest.raises(ConfigurationError):
            CodeGroupingConfig(
                codes={"6000": ("distribution", "OK")},
                features=(FeatureRecipe("x", ("nosuch",), ("Error",)),))

    @pytest.mark.parametrize("doc, named", [
        ({"codes": 3, "features": []}, "'codes'"),
        ({"codes": {}, "features": {}}, "'features'"),
        ({"features": []}, "'codes'"),
        ({"codes": {"6000": {"group": "distribution"}}, "features": []}, "'severity'"),
        ([], "'codes'"),
    ], ids=["codes-not-object", "features-not-array", "codes-missing", "entry-key-missing",
            "not-an-object"])
    def test_malformed_json_names_the_key(self, doc, named):
        with pytest.raises(ConfigurationError, match=named):
            CodeGroupingConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("where, key, value, expected", [
        ("code", "group", ["dist"], "code '6000': 'group' must be a string, got ['dist']"),
        ("code", "severity", 1, "code '6000': 'severity' must be a string, got 1"),
        ("feature", "name", None, "features[0]: 'name' must be a string, got None"),
        ("feature", "groups", "dist", "feature 'f': 'groups' must be a list of strings, "
                                      "got 'dist'"),
        ("feature", "numerator", "Error", "feature 'f': 'numerator' must be a list of "
                                          "strings, got 'Error'"),
        ("feature", "numerator", ["Error", 1], "feature 'f': 'numerator' must be a list of "
                                               "strings, got ['Error', 1]"),
        ("feature", "denominator", ["OK"], "feature 'f': 'denominator' must be a string, "
                                           "got ['OK']"),
    ], ids=["group-list", "severity-number", "name-null", "groups-string", "numerator-string",
            "numerator-item", "denominator-list"])
    def test_field_of_the_wrong_type_named(self, where, key, value, expected):
        # refused, not iterated: "dist" would read as the groups d, i, s, t
        doc = {"codes": {"6000": {"group": "dist", "severity": "OK"},
                         "6001": {"group": "dist", "severity": "Error"}},
               "features": [{"name": "f", "groups": ["dist"], "numerator": ["Error"]}]}
        (doc["codes"]["6000"] if where == "code" else doc["features"][0])[key] = value
        with pytest.raises(ConfigurationError) as raised:
            CodeGroupingConfig.from_json(json.dumps(doc))
        assert str(raised.value) == f"malformed grouping config: {expected}"

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            CodeGroupingConfig(codes={"6000": ("distribution", "CRITICAL")}, features=())

    def test_recipe_without_matching_codes_rejected(self):
        with pytest.raises(ConfigurationError):
            CodeGroupingConfig(
                codes={"6000": ("distribution", "OK")},
                features=(FeatureRecipe("x", ("distribution",), ("Error",)),))


class TestDatasetStats:
    def test_single_30_day_cycle(self):
        cycle = make_cycle(np.zeros(30))
        stats = dataset_stats([cycle])
        assert stats.total_cycles == 1 and stats.total_atms == 1
        (g,) = stats.groups
        assert g.cycles_per_atm == 1 and g.median_days == pytest.approx(30.0)

    def test_two_groups(self):
        cycles = [make_cycle(np.zeros(10), atm_id="a", cycle_index=0)]
        cycles += [make_cycle(np.zeros(n), atm_id="b", cycle_index=i)
                   for i, n in enumerate((20, 30, 40))]
        stats = dataset_stats(cycles)
        assert stats.total_cycles == 4 and stats.total_atms == 2
        by_count = {g.cycles_per_atm: g for g in stats.groups}
        assert by_count[1].n_cycles == 1 and by_count[1].n_atms == 1
        assert by_count[3].n_cycles == 3 and by_count[3].n_atms == 1
        assert by_count[3].min_days == 20 and by_count[3].max_days == 40
        assert by_count[3].median_days == 30

    def test_withdrawal_means(self):
        cycles = [make_cycle(np.zeros(10), atm_id="a")]
        stats = dataset_stats(cycles, {("a", 0): 123.0})
        assert stats.groups[0].mean_daily_withdrawals == pytest.approx(123.0)


class TestCycleFiles:
    def test_round_trip(self, tmp_path):
        samples = np.array([[0.5, 1.25], [0.0, 3.0], [2.0, 0.1]])
        cycle = make_cycle(samples, atm_id="atm-We/ird", cycle_index=7, period=12.0)
        path = save_cycle(cycle, tmp_path)
        assert path.exists() and path.with_suffix(".json").exists()
        loaded = load_cycle(path)
        assert loaded.atm_id == "atm-We/ird"
        assert loaded.cycle_index == 7
        assert loaded.period == 12.0
        assert loaded.feature_names == cycle.feature_names
        np.testing.assert_array_equal(loaded.samples, samples)

    def test_sidecar_schema(self, tmp_path):
        path = save_cycle(make_cycle(np.zeros(3)), tmp_path)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert set(sidecar) == {"atm_id", "cycle_index", "start_time",
                                "period_hours", "ended_in_failure"}

    def test_load_cycles_sorted(self, tmp_path):
        for atm, idx in (("b", 0), ("a", 1), ("a", 0)):
            save_cycle(make_cycle(np.zeros(2), atm_id=atm, cycle_index=idx), tmp_path)
        cycles = load_cycles(tmp_path)
        assert [c.key for c in cycles] == [("a", 0), ("a", 1), ("b", 0)]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cycles(tmp_path)


class TestBuildCycles:
    def test_pipeline_on_fixture_log(self):
        grouping = default_grouping()
        events = []
        # atm1 cycle 0: 5 days of one OK per day plus an error burst at the end
        for day in range(5):
            events.append(ev(24 * day, "6000"))
        events.append(ev(24 * 4 + 6, "6001"))
        # atm1 cycle 1 starts 12 hours after cycle 0's failure: first two events
        # fall inside the infected interval of the derived failure mark
        events.append(ev(24 * 4 + 18, "6000", lc=1))
        events.append(ev(24 * 5, "6000", lc=1))
        events.append(ev(24 * 7, "6000", lc=1))
        result = build_cycles(table(events), grouping, ii_days=1.0)
        assert [c.key for c in result.cycles] == [("atm1", 0), ("atm1", 1)]
        assert result.n_removed_infected == 2
        cycle0 = result.cycles[0]
        assert cycle0.n == 5
        assert cycle0.samples[4, 0] == pytest.approx(1.0)  # 1 error / 1 OK that day
        assert np.all(cycle0.samples[:4, 0] == 0.0)

    def test_infected_removal_can_disable(self):
        grouping = default_grouping()
        events = table([ev(0, "6000"), ev(24, "6001"),
                        ev(25, "6000", lc=1), ev(49, "6000", lc=1)])
        with_ii = build_cycles(events, grouping, ii_days=1.0)
        without_ii = build_cycles(events, grouping, ii_days=0.0)
        assert with_ii.n_removed_infected == 1  # h25 sits inside [24, 48]
        assert without_ii.n_removed_infected == 0

    def test_irrelevant_codes_dropped_but_counted(self):
        grouping = default_grouping()
        events = table([ev(0, "6000"), ev(1, "9999"), ev(30, "6001"),
                        ev(5, "9999", atm="atm2")])
        result = build_cycles(events, grouping, ii_days=0.0)
        assert result.n_codes_seen == 3
        assert result.n_skipped_groups == 1  # atm2 logged no grouped code
        (cycle,) = result.cycles
        assert cycle.n == 2

    @pytest.mark.parametrize("period_hours, ii_days",
                             [(24.0, 1.0), (24.0, 0.0), (1.0, 0.5), (7.5, 2.5)])
    def test_matches_per_event_reference(self, rng, period_hours, ii_days):
        grouping = default_grouping()
        universe = list(grouping.relevant_codes)
        codes = universe + ["9999"]
        quarter = 900 * 10**6  # half the times fall on 15-min marks, so on bucket edges too
        events = []
        for atm in ("b", "a", "a b"):
            start = quarter * int(rng.integers(0, 100))
            for lc in rng.permutation(4).tolist():
                end = start + quarter * int(rng.integers(2, 1000))
                marks = start + quarter * rng.integers(0, (end - start) // quarter, 20)
                times = rng.integers(start, end + 1, size=20).tolist() + [end] + marks.tolist()
                events += [(atm, lc, t, codes[rng.integers(len(codes))]) for t in times]
                start = end + quarter * int(rng.integers(-20, 100))  # may overlap
        n_infected, expected = per_event_counts(events, period_hours, ii_days, universe)
        result = build_cycles(table(events), grouping, period_hours, ii_days)
        assert result.n_removed_infected == n_infected
        assert [c.key for c in result.cycles] == sorted(expected)
        for cycle in result.cycles:
            np.testing.assert_array_equal(
                cycle.samples, build_features(expected[cycle.key], universe, grouping).samples)

    def test_built_and_reloaded_cycles_agree(self, tmp_path):
        # the last event comes 4.04 days after the first, inside the 5th bucket
        log = (HEADER + "2019-03-01T00:00:00Z,atm1,0,6000\n"
               "2019-03-02T06:00:00Z,atm1,0,8000\n2019-03-02T07:00:00Z,atm1,0,8000\n"
               "2019-03-05T01:00:00Z,atm1,0,8001\n")
        result = build_cycles(parse_event_log(io.StringIO(log)).records, default_grouping())
        (cycle,) = result.cycles
        save_cycle(cycle, tmp_path)
        (loaded,) = load_cycles(tmp_path)
        assert cycle.duration_days() == loaded.duration_days() == 5.0
        assert dataset_stats([cycle]) == dataset_stats([loaded])
        assert result.withdrawal_daily[cycle.key] == pytest.approx(3 / 5.0)
