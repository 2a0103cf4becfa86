"""Event-log ingestion: from a raw delimited log to life cycles and cycle files.

:func:`parse_event_log` reads the log into one :class:`EventTable`, numpy
columns sorted once by (machine, life cycle, time). It decodes the log by
column, a fixed-size chunk of lines at a time, with no Python list per
row: a chunk free of quote characters and carriage returns is split in
bulk (``csv.reader`` reads the rest of the log from the first chunk that
is not); each distinct machine id, event code and life cycle string is
converted once; and timestamps of the common ``YYYY-MM-DDTHH:MM:SS[Z]``
shape are decoded in bulk with numpy, leaving only the others to
:func:`parse_timestamp`. The table holds machine ids and event codes as
integer categories. :func:`build_cycles` then works on slices of that
table: :func:`remove_infected` drops the post-failure infected intervals,
:func:`resample` counts each cycle's events per bucket, and
:func:`build_features` turns the counts into severity-ratio feature
series.

The code grouping (which event codes belong to which machine module at which
severity) is configuration-driven so a dataset's exact code mapping can be
corrected without code changes; a default mapping for the ATM distribution
module ships with the package.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path
from statistics import median
from typing import Optional, Sequence

import numpy as np

from .core import LifeCycle, parse_timestamp, write_csv, write_json

__all__ = [
    "SEVERITIES",
    "ConfigurationError",
    "ParseQualityError",
    "FeatureRecipe",
    "CodeGroupingConfig",
    "EventTable",
    "LogFormat",
    "ParseResult",
    "parse_event_log",
    "remove_infected",
    "resample",
    "build_features",
    "dataset_stats",
    "DatasetStats",
    "GroupStats",
    "build_cycles",
    "IngestResult",
    "default_grouping",
    "save_cycle",
    "load_cycle",
    "load_cycles",
]

SEVERITIES = ("OK", "Warning", "Error")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


class ConfigurationError(ValueError):
    """A grouping config or log format is malformed, or references unknown
    codes, groups or severities."""


class ParseQualityError(ValueError):
    """More than 10% of the rows of an event log failed to parse."""

    def __init__(self, malformed: int, total: int):
        self.malformed = malformed
        self.total = total
        super().__init__(f"{malformed} of {total} rows malformed (> 10%)")


@dataclass(frozen=True)
class FeatureRecipe:
    """One ratio feature: sum of numerator-severity counts over the
    denominator-severity count within a set of code groups, denominator
    clamped at 1 so error bursts with zero OK events stay visible."""

    name: str
    groups: tuple[str, ...]
    numerator: tuple[str, ...]
    denominator: str = "OK"


@dataclass(frozen=True)
class CodeGroupingConfig:
    """event_code -> (group, severity) mapping plus the feature recipes."""

    codes: dict[str, tuple[str, str]]
    features: tuple[FeatureRecipe, ...]

    def __post_init__(self) -> None:
        groups = set()
        for code, (group, severity) in self.codes.items():
            if severity not in SEVERITIES:
                raise ConfigurationError(
                    f"code {code}: severity {severity!r} not in {SEVERITIES}")
            groups.add(group)
        for recipe in self.features:
            unknown = set(recipe.groups) - groups
            if unknown:
                raise ConfigurationError(
                    f"feature {recipe.name}: unknown groups {sorted(unknown)}")
            for sev in (*recipe.numerator, recipe.denominator):
                if sev not in SEVERITIES:
                    raise ConfigurationError(
                        f"feature {recipe.name}: bad severity {sev!r}")
            if not self._columns(recipe.groups, recipe.numerator):
                raise ConfigurationError(
                    f"feature {recipe.name}: no codes match its numerator")
            if not self._columns(recipe.groups, (recipe.denominator,)):
                raise ConfigurationError(
                    f"feature {recipe.name}: no codes match its denominator")

    def _columns(self, groups: Sequence[str], severities: Sequence[str]) -> list[str]:
        return [code for code, (g, s) in self.codes.items()
                if g in groups and s in severities]

    @property
    def relevant_codes(self) -> tuple[str, ...]:
        return tuple(sorted(self.codes))

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.features)

    def codes_in_group(self, group: str) -> tuple[str, ...]:
        return tuple(sorted(c for c, (g, _) in self.codes.items() if g == group))

    @classmethod
    def from_json(cls, text: str) -> "CodeGroupingConfig":
        doc = json.loads(text)
        for key, kind in (("codes", dict), ("features", list)):
            if not isinstance(doc, dict) or not isinstance(doc.get(key), kind):
                raise ConfigurationError(f"grouping config: {key!r} must be a JSON "
                                         f"{'object' if kind is dict else 'array'}")
        codes, features = {}, []
        for code, entry in doc["codes"].items():
            where = f"code {code!r}"
            codes[code] = (_config_field(entry, "group", where),
                           _config_field(entry, "severity", where))
        for i, f in enumerate(doc["features"]):
            name = _config_field(f, "name", f"features[{i}]")
            where = f"feature {name!r}"
            features.append(FeatureRecipe(name, _config_field(f, "groups", where, list),
                                          _config_field(f, "numerator", where, list),
                                          _config_field(f, "denominator", where, default="OK")))
        return cls(codes=codes, features=tuple(features))


def _config_field(entry, key: str, where: str, kind: type = str, default=None):
    """``entry[key]`` of a grouping config, a string, or with ``kind=list`` a
    list of strings (as a tuple); ``default`` when the key is absent."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"malformed grouping config: {where} is not a JSON object")
    if key not in entry and default is None:
        raise ConfigurationError(f"malformed grouping config: {where}: missing {key!r}")
    value = entry.get(key, default)
    if kind is list:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
    elif isinstance(value, str):
        return value
    raise ConfigurationError(f"malformed grouping config: {where}: {key!r} must be "
                             f"{'a list of strings' if kind is list else 'a string'}, "
                             f"got {value!r}")


def default_grouping() -> CodeGroupingConfig:
    """The shipped ATM distribution-module mapping (15 codes, 4 ratio features)."""
    text = resources.files("maintseg").joinpath("data/atm_grouping.json").read_text(
        encoding="utf-8")
    return CodeGroupingConfig.from_json(text)


@dataclass(frozen=True)
class LogFormat:
    """Column mapping of a delimited event log; names when there is a header
    row, 0-based indices otherwise. lifecycle is optional."""

    delimiter: str = ","
    timestamp: str | int = "timestamp"
    atm_id: str | int = "atm_id"
    lifecycle_id: str | int | None = "lifecycle_id"
    event_code: str | int = "event_code"
    has_header: bool = True

    def __post_init__(self) -> None:
        for key in ("timestamp", "atm_id", "lifecycle_id", "event_code"):
            value = getattr(self, key)
            if isinstance(value, int) and value < 0:
                raise ConfigurationError(
                    f"log format: {key!r} must be a 0-based column index, got {value}")

    @classmethod
    def from_json(cls, text: str) -> "LogFormat":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigurationError("log format: expected a JSON object")
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ConfigurationError(f"log format: unknown keys {unknown}, "
                                     f"expected some of {known}")
        for key, value in doc.items():
            if key == "delimiter":
                what, ok = "a one-character string", isinstance(value, str) and len(value) == 1
            elif key == "has_header":
                what, ok = "true or false", isinstance(value, bool)
            else:  # a column; type() rules out bools, which are ints too
                nullable = key == "lifecycle_id"
                what = "a column name or 0-based index" + (" or null" if nullable else "")
                ok = isinstance(value, str) or type(value) is int or (nullable and value is None)
            if not ok:
                raise ConfigurationError(f"log format: {key!r} must be {what}, got {value!r}")
        return cls(**doc)


class EventTable:
    """Events as numpy columns, sorted by (atm_id, lifecycle_id, time_us).

    Machine ids and event codes are categories: ``atm_names`` and
    ``code_names`` hold their sorted distinct names, and each row holds
    integer indexes into them (``atm_index``, ``code_index``), so rows
    compare and group by integers. ``atm_id`` and ``event_code`` read the
    names back row by row, as numpy string columns. ``time_us`` counts
    microseconds since the epoch, UTC. The constructor takes the names
    themselves, derives the categories and sorts once (stably); slicing or
    masking a table keeps its order and its names.
    """

    # the per-row columns; the name arrays are shared by every slice
    _ROWS = ("atm_index", "lifecycle_id", "time_us", "code_index")

    def __init__(self, atm_id, lifecycle_id, time_us, event_code):
        atm_names, atm_index = np.unique(np.asarray(atm_id, dtype=str), return_inverse=True)
        code_names, code_index = np.unique(np.asarray(event_code, dtype=str),
                                           return_inverse=True)
        lifecycle_id = np.asarray(lifecycle_id, dtype=np.int64)
        time_us = np.asarray(time_us, dtype=np.int64)
        order = np.lexsort((time_us, lifecycle_id, atm_index))
        self.atm_names, self.code_names = atm_names, code_names
        self.atm_index, self.lifecycle_id, self.time_us, self.code_index = (
            atm_index[order], lifecycle_id[order], time_us[order], code_index[order])

    @classmethod
    def _presorted(cls, atm_names: np.ndarray, atm_index: np.ndarray,
                   lifecycle_id: np.ndarray, time_us: np.ndarray, code_names: np.ndarray,
                   code_index: np.ndarray) -> "EventTable":
        """A table of categories and rows already in the constructor's order
        and dtypes."""
        table = cls.__new__(cls)
        table.atm_names, table.code_names = atm_names, code_names
        table.atm_index, table.lifecycle_id, table.time_us, table.code_index = (
            atm_index, lifecycle_id, time_us, code_index)
        return table

    @property
    def atm_id(self) -> np.ndarray:
        return self.atm_names[self.atm_index]

    @property
    def event_code(self) -> np.ndarray:
        return self.code_names[self.code_index]

    def __len__(self) -> int:
        return self.time_us.size

    def __getitem__(self, rows) -> "EventTable":
        """The rows picked by a slice or a boolean mask, still sorted."""
        part = copy.copy(self)
        part.__dict__.update((name, getattr(self, name)[rows]) for name in self._ROWS)
        return part


def _runs(*keys: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) bounds of the runs of equal rows in sorted key columns."""
    n = keys[0].size
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for key in keys:
        change |= key[1:] != key[:-1]
    edges = [0, *(np.flatnonzero(change) + 1).tolist(), n]
    return list(zip(edges, edges[1:])) if n else []


@dataclass
class ParseResult:
    records: EventTable
    malformed_count: int
    total_rows: int


def parse_event_log(source, fmt: LogFormat | None = None) -> ParseResult:
    """Parse a delimited event log into a sorted :class:`EventTable`.

    ``source`` is a path or a text file object; one leading UTF-8 byte-order
    mark is dropped from either. Rows are decoded by column, a fixed-size
    chunk at a time (see :func:`_parse_stream`). Malformed rows are counted
    and reported, not silently dropped; more than 10% malformed raises
    :class:`ParseQualityError`. A field longer than
    ``csv.field_size_limit()`` raises ValueError naming its log line.
    """
    fmt = fmt or LogFormat()
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return _parse_stream(fh, fmt)
    lines = iter(source)
    first = next(lines, "")
    return _parse_stream(itertools.chain([first.removeprefix("\ufeff")], lines), fmt)


# Lines decoded together: enough that each chunk's numpy calls cost little
# per row, and few enough that a chunk's strings (about 1.5 MB) stay small.
# On the benchmark's log, split in bulk, 2^11 and 2^12 parsed alike, 2^10
# and 2^13 3-6% slower and 2^14 25% slower (2-core Xeon VM, Python 3.11).
_CHUNK_ROWS = 1 << 12

# YYYY-MM-DD?HH:MM:SS: where its digits and its fixed punctuation stand
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_PUNCT = [4, 7, 13, 16]
_STAMP_MARKS = np.array([ord(c) for c in "--::"], dtype=np.uint32)


def _bulk_times(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of each string of the exact shape
    ``YYYY-MM-DD`` + ``T`` or space + ``HH:MM:SS``, then an optional ``Z`` or
    ``z``, and which strings had that shape and a valid date and time.

    The checks are :func:`datetime.fromisoformat`'s: ASCII digits, year
    1-9999, the month's length (leap years included), hour 0-23, minute and
    second 0-59. A string that fails any of them is left to the caller.
    """
    n = len(texts)
    length = np.fromiter(map(len, texts), dtype=np.intp, count=n)
    # a longer string is cut at 20 characters, but its length already fails it
    chars = np.array(texts, dtype="U20").view(np.uint32).reshape(n, 20)
    digits = chars[:, _STAMP_DIGITS] - np.uint32(ord("0"))  # wraps below "0"
    suffix = chars[:, 19]
    ok = (length == 19) | ((length == 20) & ((suffix == ord("Z")) | (suffix == ord("z"))))
    ok &= (digits <= 9).all(axis=1) & (chars[:, _STAMP_PUNCT] == _STAMP_MARKS).all(axis=1)
    ok &= (chars[:, 10] == ord("T")) | (chars[:, 10] == ord(" "))
    digits[~ok] = 0
    digits = digits.astype(np.int64)
    year = ((digits[:, 0] * 10 + digits[:, 1]) * 10 + digits[:, 2]) * 10 + digits[:, 3]
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    month_start = ((year - 1970) * 12 + np.clip(month, 1, 12) - 1).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]").astype(np.int64)
    month_days = (month_start + 1).astype("datetime64[D]").astype(np.int64) - first_day
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    seconds = ((first_day + day - 1) * 24 + hour) * 3600 + minute * 60 + second
    return seconds * 1_000_000, ok


class _Distinct:
    """One column's distinct raw strings, each converted once: ``ids`` maps a
    string to its id, and ``values``/``valid`` hold each id's converted value
    (``placeholder`` when the conversion raised ValueError) and whether the
    conversion succeeded."""

    def __init__(self, convert, placeholder):
        self.convert = convert
        self.placeholder = placeholder
        self.ids: dict[str, int] = {}
        self.values: list = []
        self.valid: list[bool] = []

    def encode(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The id of each string, and whether its value converted."""
        try:
            ids = np.fromiter(map(self.ids.__getitem__, texts), dtype=np.intp, count=len(texts))
        except KeyError:
            for text in [t for t in dict.fromkeys(texts) if t not in self.ids]:
                self.ids[text] = len(self.values)
                try:
                    self.values.append(self.convert(text))
                    self.valid.append(True)
                except ValueError:
                    self.values.append(self.placeholder)
                    self.valid.append(False)
            ids = np.fromiter(map(self.ids.__getitem__, texts), dtype=np.intp, count=len(texts))
        return ids, np.array(self.valid)[ids]

    def names(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct strings of ``ids``, sorted, as one numpy column as
        wide as the longest of them, and the position of each id's string."""
        used = np.flatnonzero(np.bincount(ids, minlength=len(self.values)))
        names, rank = np.unique(np.array([self.values[i] for i in used.tolist()], dtype=str),
                                return_inverse=True)
        position = np.zeros(len(self.values), dtype=np.intp)
        position[used] = rank
        return names, position[ids]


def _name(text: str) -> str:
    name = text.strip()
    if not name:
        raise ValueError("empty field")
    return name


def _lifecycle(text: str) -> int:
    value = int(text)
    if abs(value) >= 2**63:
        raise ValueError("a life cycle id beyond 64 bits")
    return value


def _csv_rows(reader, count: int, before: int) -> list[list[str]]:
    """The next ``count`` rows of a csv reader that started after ``before``
    lines of the log. A csv error (a field over ``csv.field_size_limit()``)
    is a ValueError naming the log line."""
    try:
        return list(itertools.islice(reader, count))
    except csv.Error as exc:
        raise ValueError(f"log line {before + reader.line_num}: {exc}") from None


def _split_chunk(chunk: list[str], text: str, delimiter: str, width: int):
    """The fields of a chunk of quote-free lines, ``text`` their join, as
    one flat list of ``stride`` fields per row, and the stride; None if
    most rows lack a mapped field (index below ``width``) or the lines are
    not what a text file yields (one line end each, at its end, but for
    the log's last line).

    The text is split once. The stride is the chunk's most common field
    count; only the rows of another count are mended, as the csv path
    reads them: a short row's missing fields are empty and fields past
    the stride are dropped. An empty line, csv's ``[]``, is one empty
    field here, which reads the same.
    """
    flat = text.replace("\n", delimiter).split(delimiter)
    if text.endswith("\n"):
        flat.pop()
    counts = np.fromiter(map(str.count, chunk, itertools.repeat(delimiter)), dtype=np.intp,
                         count=len(chunk)) + 1
    values, times = np.unique(counts, return_counts=True)
    stride = int(values[times.argmax()])
    if stride < width or int(counts.sum()) != len(flat):
        return None
    odd = np.flatnonzero(counts != stride).tolist()
    if odd:
        ends, counts = np.cumsum(counts).tolist(), counts.tolist()
        for k in reversed(odd):  # from the last, so that earlier rows keep their place
            # pad a short row with empty fields, or cut a long one at the stride
            kept = ends[k] - counts[k] + min(counts[k], stride)
            flat[kept:ends[k]] = [""] * (stride - counts[k])
    return flat, stride


def _field_chunks(lines, delimiter: str, mapped: list[int], before: int):
    """The rows of ``lines``, the log after its first ``before`` lines,
    ``_CHUNK_ROWS`` at a time: each chunk as its mapped columns (lists of
    strings, a field a row lacks read as empty) and a function of a row's
    index that gives its fields joined without delimiters.

    Chunks of lines that hold no quote character, no carriage return and
    no line longer than ``csv.field_size_limit()`` are split in bulk (see
    :func:`_split_chunk`). From the first chunk that fails that test, a
    ``csv.reader`` over it and the remaining lines reads the rest of the
    log, so quoting, embedded line ends and CR or CRLF line ends keep
    csv's meaning, and a field over the limit is csv's error.
    """
    width = max(mapped) + 1
    limit = csv.field_size_limit()
    while delimiter not in '"\r\n' and (chunk := list(itertools.islice(lines, _CHUNK_ROWS))):
        text = "".join(chunk)
        split = None
        if '"' not in text and "\r" not in text and (len(text) <= limit
                                                     or max(map(len, chunk)) <= limit):
            split = _split_chunk(chunk, text, delimiter, width)
        if split is None:
            lines = itertools.chain(chunk, lines)
            break
        flat, stride = split
        yield ([flat[i::stride] for i in mapped],
               lambda k, chunk=chunk: chunk[k].replace(delimiter, ""))
        before += len(chunk)
    reader = csv.reader(lines, delimiter=delimiter)
    while rows := _csv_rows(reader, _CHUNK_ROWS, before):
        fields = rows
        short = np.flatnonzero(np.fromiter(map(len, rows), dtype=np.intp,
                                           count=len(rows)) < width)
        if short.size:
            # a short row's missing fields read as empty: a dict of its
            # mapped fields, indexed like the row
            fields = rows.copy()
            for k in short.tolist():
                row = rows[k]
                fields[k] = {i: row[i] if i < len(row) else "" for i in mapped}
        yield [[row[i] for row in fields] for i in mapped], lambda k, rows=rows: "".join(rows[k])


def _narrow(ranks: np.ndarray) -> np.ndarray:
    """Ranks (non-negative integers) in the narrowest unsigned type that
    holds them: numpy sorts a type of 16 bits or fewer by radix, several
    times faster than an int64 column."""
    return ranks.astype(np.min_scalar_type(ranks.max(initial=0)))


def _parse_stream(lines, fmt: LogFormat) -> ParseResult:
    """Decode a log's rows by column, ``_CHUNK_ROWS`` rows at a time.

    ``lines`` are the lines of a text file. Chunks free of quotes and
    carriage returns are split without ``csv.reader``, the others read by
    it (see :func:`_field_chunks`); either way a row's fields are csv's.
    Each distinct machine id, event code and life cycle string is stripped,
    checked and converted once, the first time a chunk holds it.
    Timestamps of the shape :func:`_bulk_times` reads are decoded in bulk;
    every other one goes to :func:`parse_timestamp`, one string at a time.
    The well-formed rows of all chunks are sorted once, on integer ranks
    of the machine ids and life cycles, into the table, which keeps the
    machine ranks and the event codes' as its categories: no string
    column is built.
    """
    lines = iter(lines)
    reader = csv.reader(lines, delimiter=fmt.delimiter)
    columns: dict[str, int] = {}
    if fmt.has_header:
        header = _csv_rows(reader, 1, 0)
        if header:
            columns = {name.strip(): i for i, name in enumerate(header[0])}

    def index(spec: str | int) -> int:
        # a column the header lacks gets an index no row reaches, so every
        # row is malformed
        return spec if isinstance(spec, int) else columns.get(spec, sys.maxsize)

    mapped = [index(spec) for spec in (fmt.timestamp, fmt.atm_id, fmt.event_code)]
    if fmt.lifecycle_id is not None:
        mapped.append(index(fmt.lifecycle_id))
    machines, codes = _Distinct(_name, ""), _Distinct(_name, "")
    lifecycles = _Distinct(_lifecycle, 0)

    parts = []
    total = malformed = 0
    for (stamps, atm, code, *lifecycle), joined in _field_chunks(
            lines, fmt.delimiter, mapped, reader.line_num):
        n = len(stamps)
        atm_ids, ok = machines.encode(atm)
        # a blank row has only whitespace, so its machine id is empty
        blank = np.zeros(n, dtype=bool)
        for k in np.flatnonzero(~ok).tolist():
            blank[k] = not joined(k).strip()
        code_ids, code_ok = codes.encode(code)
        ok &= code_ok
        if lifecycle:
            lifecycle_ids, lifecycle_ok = lifecycles.encode(lifecycle[0])
            ok &= lifecycle_ok
        else:
            lifecycle_ids = np.zeros(n, dtype=np.intp)
        time_us, stamp_ok = _bulk_times(stamps)
        # whatever its other fields hold, as the row loop parsed it first
        for k in np.flatnonzero(~stamp_ok & ~blank).tolist():
            try:
                time_us[k] = (parse_timestamp(stamps[k]) - EPOCH) // _MICROSECOND
                stamp_ok[k] = True
            except ValueError:
                pass
        ok &= stamp_ok
        counted = n - int(np.count_nonzero(blank))
        total += counted
        malformed += counted - int(np.count_nonzero(ok))
        parts.append((atm_ids[ok], lifecycle_ids[ok], time_us[ok], code_ids[ok]))
    if total > 0 and malformed / total > 0.10:
        raise ParseQualityError(malformed, total)
    empty = np.zeros(0, dtype=np.intp)
    atm_ids, lifecycle_ids, time_us, code_ids = (
        np.concatenate(column) for column in zip((empty,) * 4, *parts))
    values = np.array(lifecycles.values or [0], dtype=np.int64)
    lifecycle_id = values[lifecycle_ids]
    lifecycle_rank = np.unique(values, return_inverse=True)[1][lifecycle_ids]
    atm_names, atm_rank = machines.names(atm_ids)
    code_names, code_at = codes.names(code_ids)
    order = np.lexsort((time_us, _narrow(lifecycle_rank), _narrow(atm_rank)))
    records = EventTable._presorted(atm_names, atm_rank[order], lifecycle_id[order],
                                   time_us[order], code_names, code_at[order])
    return ParseResult(records, malformed, total)


def remove_infected(events: EventTable, ii_days: float) -> EventTable:
    """Drop every event within [f, f + ii] of a failure f of its machine.

    Each life cycle's last event is taken as the failure that ended it, and
    its infected interval trims only the machine's OTHER cycles, never the
    end-of-cycle events of the cycle that produced the mark. An ii of zero
    removes nothing; overlapping infected intervals simply union.
    """
    if ii_days < 0:
        raise ValueError("ii must be >= 0")
    if ii_days == 0:
        return events
    ii_us = timedelta(days=ii_days) // _MICROSECOND
    infected = np.zeros(len(events), dtype=bool)
    for lo, hi in _runs(events.atm_index):
        t = events.time_us[lo:hi]
        cycle = events.lifecycle_id[lo:hi]
        for first, last in _runs(cycle):
            failure = t[last - 1]
            infected[lo:hi] |= (t >= failure) & (t <= failure + ii_us) & (cycle != cycle[first])
    return events[~infected]


def resample(events: EventTable, period_hours: float,
             code_universe: Sequence[str]) -> np.ndarray:
    """Occurrence counts per (bucket, code) for one life cycle's events.

    Buckets of ``period_hours`` start at the first event; rows with no
    events are explicit zeros. An event landing exactly on the final bucket
    boundary is counted in the last bucket. Every event code must be in
    ``code_universe``: each of the table's code names is looked up there
    once.
    """
    if period_hours <= 0:
        raise ValueError("period must be positive")
    if not len(events):
        raise ValueError("no events to resample")
    offset_s = (events.time_us - events.time_us[0]) / 1e6  # rounds like total_seconds()
    bucket_s = period_hours * 3600.0
    rows = max(1, math.ceil(offset_s[-1] / bucket_s))
    buckets = np.minimum((offset_s / bucket_s).astype(np.int64), rows - 1)
    universe = np.asarray(code_universe, dtype=str)
    order = np.argsort(universe)
    # a name past the universe's end is one that no row of a slice may use
    at = order[np.searchsorted(universe, events.code_names, sorter=order).clip(
        max=universe.size - 1)]
    if (universe[at] != events.code_names)[events.code_index].any():
        raise ValueError("an event code is not in code_universe")
    counts = np.zeros((rows, universe.size), dtype=int)
    np.add.at(counts, (buckets, at[events.code_index]), 1)
    return counts


def build_features(counts: np.ndarray, code_universe: Sequence[str],
                   config: CodeGroupingConfig, *, atm_id: str = "",
                   cycle_index: int = 0, start_time: Optional[datetime] = None,
                   period_hours: float = 24.0) -> LifeCycle:
    """Severity-ratio features from a count matrix, as a LifeCycle.

    Per recipe and bucket: sum of numerator-code counts over
    max(denominator count, 1). Codes not in the grouping config are
    discarded.
    """
    counts = np.asarray(counts)
    col = {code: i for i, code in enumerate(code_universe)}
    missing = set(config.codes) - set(col)
    if missing:
        raise ConfigurationError(
            f"count matrix lacks columns for codes {sorted(missing)[:5]}")
    feats = np.empty((counts.shape[0], len(config.features)))
    for j, recipe in enumerate(config.features):
        num_cols = [col[c] for c in config._columns(recipe.groups, recipe.numerator)]
        den_cols = [col[c] for c in config._columns(recipe.groups, (recipe.denominator,))]
        num = counts[:, num_cols].sum(axis=1)
        den = np.maximum(counts[:, den_cols].sum(axis=1), 1)
        feats[:, j] = num / den
    start = start_time or EPOCH
    try:
        end = start + timedelta(hours=period_hours * counts.shape[0])
    except OverflowError:
        raise ValueError(f"{counts.shape[0]} buckets of {period_hours!r} hours from {start} "
                         f"end past datetime's range") from None
    return LifeCycle(atm_id=atm_id, cycle_index=cycle_index, start_time=start,
                     end_time=end, feature_names=config.feature_names,
                     samples=feats, period=period_hours)


@dataclass(frozen=True)
class GroupStats:
    """Summary row for machines that produced a given number of cycles."""

    cycles_per_atm: int
    n_atms: int
    n_cycles: int
    min_days: float
    median_days: float
    max_days: float
    mean_daily_withdrawals: Optional[float]


@dataclass(frozen=True)
class DatasetStats:
    total_cycles: int
    total_atms: int
    groups: tuple[GroupStats, ...]


def dataset_stats(cycles: Sequence[LifeCycle],
                  withdrawal_daily: Optional[dict[tuple[str, int], float]] = None,
                  ) -> DatasetStats:
    """Duration and withdrawal statistics grouped by cycles-per-machine."""
    if not cycles:
        raise ValueError("no cycles")
    per_atm: dict[str, list[LifeCycle]] = defaultdict(list)
    for c in cycles:
        per_atm[c.atm_id].append(c)
    by_count: dict[int, list[LifeCycle]] = defaultdict(list)
    for atm, items in per_atm.items():
        by_count[len(items)].extend(items)
    groups = []
    for count in sorted(by_count):
        items = by_count[count]
        durations = [c.duration_days() for c in items]
        wd = None
        if withdrawal_daily is not None:
            vals = [withdrawal_daily[c.key] for c in items if c.key in withdrawal_daily]
            wd = sum(vals) / len(vals) if vals else None
        groups.append(GroupStats(
            cycles_per_atm=count,
            n_atms=len(items) // count,
            n_cycles=len(items),
            min_days=min(durations),
            median_days=float(median(durations)),
            max_days=max(durations),
            mean_daily_withdrawals=wd,
        ))
    return DatasetStats(total_cycles=len(cycles), total_atms=len(per_atm),
                        groups=tuple(groups))


@dataclass
class IngestResult:
    cycles: list[LifeCycle]
    withdrawal_daily: dict[tuple[str, int], float]
    n_codes_seen: int
    n_records: int
    n_removed_infected: int
    n_skipped_groups: int


def build_cycles(records: EventTable, config: CodeGroupingConfig,
                 period_hours: float = 24.0, ii_days: float = 1.0) -> IngestResult:
    """Full event-to-cycle pipeline: drop infected events (see
    :func:`remove_infected`), keep the grouped codes, resample each cycle."""
    kept = remove_infected(records, ii_days)
    codes = config.relevant_codes
    grouped = kept[np.isin(kept.code_names, codes)[kept.code_index]]
    withdrawals = [codes.index(c) for c in config.codes_in_group("withdrawal")]
    cycles: list[LifeCycle] = []
    withdrawal_daily: dict[tuple[str, int], float] = {}
    for lo, hi in _runs(grouped.atm_index, grouped.lifecycle_id):
        events = grouped[lo:hi]
        counts = resample(events, period_hours, codes)
        atm_id = str(events.atm_names[events.atm_index[0]])
        cycle = build_features(counts, codes, config, atm_id=atm_id,
                               cycle_index=int(events.lifecycle_id[0]),
                               start_time=EPOCH + int(events.time_us[0]) * _MICROSECOND,
                               period_hours=period_hours)
        cycles.append(cycle)
        if withdrawals:
            total = float(counts[:, withdrawals].sum())
            withdrawal_daily[cycle.key] = total / cycle.duration_days()
    n_groups = len(_runs(records.atm_index, records.lifecycle_id))
    return IngestResult(cycles=cycles, withdrawal_daily=withdrawal_daily,
                        n_codes_seen=np.count_nonzero(np.bincount(records.code_index)),
                        n_records=len(records), n_removed_infected=len(records) - len(kept),
                        n_skipped_groups=n_groups - len(cycles))


# Canonical cycle files: <atm>_<cycle>.csv (header + one row per bucket) and a
# JSON sidecar with the cycle metadata.

def _slug(atm_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", atm_id)


def cycle_basename(cycle: LifeCycle) -> str:
    return f"{_slug(cycle.atm_id)}_{cycle.cycle_index:04d}"


def save_cycle(cycle: LifeCycle, out_dir) -> Path:
    base = Path(out_dir) / cycle_basename(cycle)
    csv_path = base.with_suffix(".csv")
    write_csv(csv_path, cycle.feature_names, cycle.samples.tolist())
    sidecar = {
        "atm_id": cycle.atm_id,
        "cycle_index": cycle.cycle_index,
        "start_time": cycle.start_time.isoformat(),
        "period_hours": cycle.period,
        "ended_in_failure": cycle.ended_in_failure,
    }
    write_json(base.with_suffix(".json"), sidecar)
    return csv_path


def load_cycle(csv_path) -> LifeCycle:
    csv_path = Path(csv_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader))
        samples = np.array([[float(v) for v in row] for row in reader])
    start = parse_timestamp(sidecar["start_time"])
    period = float(sidecar["period_hours"])
    end = start + timedelta(hours=period * samples.shape[0])
    return LifeCycle(atm_id=sidecar["atm_id"], cycle_index=int(sidecar["cycle_index"]),
                     start_time=start, end_time=end, feature_names=names,
                     samples=samples, period=period,
                     ended_in_failure=bool(sidecar["ended_in_failure"]))


def load_cycles(directory) -> list[LifeCycle]:
    directory = Path(directory)
    cycles = [load_cycle(p) for p in sorted(directory.glob("*.csv"))]
    if not cycles:
        raise FileNotFoundError(f"no cycle files under {directory}")
    return cycles
