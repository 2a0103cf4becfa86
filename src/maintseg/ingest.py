"""Event-log ingestion: from a raw delimited log to life cycles and cycle files.

:func:`parse_event_log` reads the log into one :class:`EventTable`, numpy
columns sorted once by (machine, life cycle, time). :func:`build_cycles`
then works on slices of that table: :func:`remove_infected` drops the
post-failure infected intervals, :func:`resample` counts each cycle's
events per bucket, and :func:`build_features` turns the counts into
severity-ratio feature series.

The code grouping (which event codes belong to which machine module at which
severity) is configuration-driven so a dataset's exact code mapping can be
corrected without code changes; a default mapping for the ATM distribution
module ships with the package.
"""

from __future__ import annotations

import copy
import csv
import io
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

from .core import LifeCycle, parse_timestamp

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
            try:
                codes[code] = (entry["group"], entry["severity"])
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"malformed grouping config: code {code!r}: {exc}") from exc
        for i, f in enumerate(doc["features"]):
            try:
                features.append(FeatureRecipe(name=f["name"], groups=tuple(f["groups"]),
                                              numerator=tuple(f["numerator"]),
                                              denominator=f.get("denominator", "OK")))
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"malformed grouping config: features[{i}]: {exc}") from exc
        return cls(codes=codes, features=tuple(features))

    def to_json(self) -> str:
        doc = {
            "codes": {c: {"group": g, "severity": s}
                      for c, (g, s) in sorted(self.codes.items())},
            "features": [
                {"name": r.name, "groups": list(r.groups),
                 "numerator": list(r.numerator), "denominator": r.denominator}
                for r in self.features],
        }
        return json.dumps(doc, indent=2)


def default_grouping() -> CodeGroupingConfig:
    """The shipped ATM distribution-module mapping (15 codes, 4 ratio features)."""
    text = resources.files("maintseg").joinpath("data/atm_grouping.json").read_text()
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

    ``time_us`` counts microseconds since the epoch, UTC. The constructor
    sorts once (stably); slicing or masking a table keeps its order.
    """

    def __init__(self, atm_id, lifecycle_id, time_us, event_code):
        atm_id = np.asarray(atm_id, dtype=str)
        lifecycle_id = np.asarray(lifecycle_id, dtype=np.int64)
        time_us = np.asarray(time_us, dtype=np.int64)
        order = np.lexsort((time_us, lifecycle_id, atm_id))
        self.atm_id = atm_id[order]
        self.lifecycle_id = lifecycle_id[order]
        self.time_us = time_us[order]
        self.event_code = np.asarray(event_code, dtype=str)[order]

    def __len__(self) -> int:
        return self.time_us.size

    def __getitem__(self, rows) -> "EventTable":
        """The rows picked by a slice or a boolean mask, still sorted."""
        part = copy.copy(self)
        part.__dict__.update((name, column[rows]) for name, column in vars(self).items())
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

    ``source`` is a path, bytes or a text file object. Malformed rows are
    counted and reported, not silently dropped; more than 10% malformed
    raises :class:`ParseQualityError`.
    """
    fmt = fmt or LogFormat()
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"))
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse_stream(fh, fmt)
    return _parse_stream(source, fmt)


def _parse_stream(fh, fmt: LogFormat) -> ParseResult:
    reader = csv.reader(fh, delimiter=fmt.delimiter)
    columns: dict[str, int] = {}
    if fmt.has_header:
        header = next(reader, None)
        if header is not None:
            columns = {name.strip(): i for i, name in enumerate(header)}

    def index(spec: str | int) -> int:
        # a column the header lacks gets an index no row reaches, so every
        # row is malformed
        return spec if isinstance(spec, int) else columns.get(spec, sys.maxsize)

    ts_i, atm_i, code_i = map(index, (fmt.timestamp, fmt.atm_id, fmt.event_code))
    lc_i = None if fmt.lifecycle_id is None else index(fmt.lifecycle_id)

    events: list[tuple[str, int, int, str]] = []
    malformed = 0
    total = 0
    for row in reader:
        if not "".join(row).strip():
            continue
        total += 1
        try:
            ts = parse_timestamp(row[ts_i])
            # interned, so each distinct id and code is one string, not one per row
            atm = sys.intern(row[atm_i].strip())
            code = sys.intern(row[code_i].strip())
            lifecycle = 0 if lc_i is None else int(row[lc_i])
            if not atm or not code or abs(lifecycle) >= 2**63:
                raise ValueError("empty field or a life cycle id beyond 64 bits")
        except (ValueError, IndexError):
            malformed += 1
            continue
        events.append((atm, lifecycle, (ts - EPOCH) // _MICROSECOND, code))
    if total > 0 and malformed / total > 0.10:
        raise ParseQualityError(malformed, total)
    by_column = list(zip(*events)) or [()] * 4
    return ParseResult(EventTable(*by_column), malformed, total)


def remove_infected(events: EventTable, ii_days: float) -> EventTable:
    """Drop every event within [f, f + ii] of a failure f of its machine.

    Each life cycle's last event is taken as the failure that ended it, and
    its infected interval trims only the machine's OTHER cycles, never the
    end-of-cycle events of the cycle that produced the mark. An ii of zero
    removes nothing; overlapping infected intervals simply union.
    """
    if ii_days <= 0:
        return events
    ii_us = timedelta(days=ii_days) // _MICROSECOND
    infected = np.zeros(len(events), dtype=bool)
    for lo, hi in _runs(events.atm_id):
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
    ``code_universe``.
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
    columns = order[np.searchsorted(universe, events.event_code, sorter=order)]
    counts = np.zeros((rows, universe.size), dtype=int)
    np.add.at(counts, (buckets, columns), 1)
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
    end = start + timedelta(hours=period_hours * counts.shape[0])
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
    grouped = kept[np.isin(kept.event_code, codes)]
    withdrawals = [codes.index(c) for c in config.codes_in_group("withdrawal")]
    cycles: list[LifeCycle] = []
    withdrawal_daily: dict[tuple[str, int], float] = {}
    for lo, hi in _runs(grouped.atm_id, grouped.lifecycle_id):
        events = grouped[lo:hi]
        counts = resample(events, period_hours, codes)
        cycle = build_features(counts, codes, config, atm_id=str(events.atm_id[0]),
                               cycle_index=int(events.lifecycle_id[0]),
                               start_time=EPOCH + int(events.time_us[0]) * _MICROSECOND,
                               period_hours=period_hours)
        cycles.append(cycle)
        if withdrawals:
            total = float(counts[:, withdrawals].sum())
            withdrawal_daily[cycle.key] = total / cycle.duration_days()
    n_groups = len(_runs(records.atm_id, records.lifecycle_id))
    return IngestResult(cycles=cycles, withdrawal_daily=withdrawal_daily,
                        n_codes_seen=np.unique(records.event_code).size,
                        n_records=len(records), n_removed_infected=len(records) - len(kept),
                        n_skipped_groups=n_groups - len(cycles))


# Canonical cycle files: <atm>_<cycle>.csv (header + one row per bucket) and a
# JSON sidecar with the cycle metadata.

def _slug(atm_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", atm_id)


def cycle_basename(cycle: LifeCycle) -> str:
    return f"{_slug(cycle.atm_id)}_{cycle.cycle_index:04d}"


def save_cycle(cycle: LifeCycle, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / cycle_basename(cycle)
    csv_path = base.with_suffix(".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cycle.feature_names)
        for row in cycle.samples:
            writer.writerow([repr(float(v)) for v in row])
    sidecar = {
        "atm_id": cycle.atm_id,
        "cycle_index": cycle.cycle_index,
        "start_time": cycle.start_time.isoformat(),
        "period_hours": cycle.period,
        "ended_in_failure": cycle.ended_in_failure,
    }
    base.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))
    return csv_path


def load_cycle(csv_path) -> LifeCycle:
    csv_path = Path(csv_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
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
