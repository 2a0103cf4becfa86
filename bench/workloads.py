"""Seeded inputs and the timed round of each benchmark workload.

A round is one closed-loop pass over a workload's operations, always the
same operations for a given seed: the sweep workloads run ``run_sweep``
over a fixed corpus and grid, then read the results back and summarise
them; ``ingest-log`` parses a generated event log, builds and saves the
cycles, then reads them back and summarises them. Every call into
``maintseg`` goes through the module attribute (``sweep.run_sweep``, not a
name imported here), so the tracer's patches see it.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from maintseg import ingest, sweep
from maintseg.core import BusinessParams, LifeCycle
from maintseg.costs import SegmentCost
from maintseg.detectors import DetectorConfig
from maintseg.synth import SynthSpec, generate_corpus

PARAMS = BusinessParams()  # rd = 1 day, pp = 14 days, ii = 1 day, s = 0.2
PP_LIST = tuple(float(pp) for pp in range(1, 31))

# grid-daily / grid-daily-2w: one third of the shipped default grid over one
# 44-day cycle per round; the property checks use a 20-cycle corpus of the
# same shape, whose first cycle is the timed one.
DAILY_DAYS = 44
DAILY_CHECK_CYCLES = 20
DAILY_STEP = 7
DAILY_MIN_SIZE = 3
DAILY_FLUSS_M = 7
KNOWN_GOOD = DetectorConfig("PELT", cost=SegmentCost("l2"), penalty=5.0, min_size=2)

# long-hourly: one hourly cycle of 240 buckets per round, change planted 72
# buckets before failure, replayed in steps of 168 buckets.
HOURLY_N = 240
HOURLY_OFFSET = 72
HOURLY_STEP = 168
HOURLY_PENALTIES = (0.01, 5.336699231206307, 1000.0)  # low, mid, high of the default axis
HOURLY_THRESHOLDS = (0.3, 0.45, 0.6)
HOURLY_MS = (7, 24)

# ingest-log: 156 machines with 60 x 1, 56 x 2 and 40 x 3 life cycles.
CYCLES_PER_MACHINE = (1,) * 60 + (2,) * 56 + (3,) * 40
MALFORMED_ROWS = 1000
EPOCH = datetime(2019, 1, 1, tzinfo=timezone.utc)
DAY_S = 86400


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "ingest"
    workers: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("grid-daily", "sweep"),
    Workload("long-hourly", "sweep"),
    Workload("ingest-log", "ingest"),
    Workload("grid-daily-2w", "sweep", workers=min(2, os.cpu_count() or 1)),
)}


def input_seed(seed: int, workload: str) -> int:
    """Seed of one workload's generator, so workloads never share inputs."""
    salt = {"grid-daily": 1, "grid-daily-2w": 1, "long-hourly": 2, "ingest-log": 3}[workload]
    return seed * 10 + salt


# --- sweep inputs ------------------------------------------------------------

def daily_grid() -> list[DetectorConfig]:
    """The default grid at min_size 3 and FLUSS m 7: every cost, penalty,
    threshold, znorm setting, KCPD bandwidth and channel rule (468 configs)."""
    return [c for c in sweep.build_grid(sweep.default_grid())
            if (c.m == DAILY_FLUSS_M if c.method == "FLUSS" else c.min_size == DAILY_MIN_SIZE)]


def hourly_grid() -> list[DetectorConfig]:
    """Every segmentation method x cost kind at a low, mid and high
    penalty with min_size 2, plus FLUSS at three thresholds x m in {7, 24}
    x both channel rules (51 configs). znorm stays off: it costs O(n) per
    window, so it does not change how the cost grows with n, and leaving
    it out halves the round."""
    seg = sweep.MethodGrid(costs=("l1", "l2", "normal", "rbf"), penalties=HOURLY_PENALTIES,
                           min_sizes=(2,), znorm=(False,))
    spec = sweep.GridSpec(methods={
        "PELT": seg, "BINSEG": seg, "BOTTOMUP": seg,
        "KCPD": sweep.MethodGrid(costs=("rbf",), penalties=HOURLY_PENALTIES,
                                 min_sizes=(2,), znorm=(False,)),
        "FLUSS": sweep.MethodGrid(thresholds=HOURLY_THRESHOLDS, ms=HOURLY_MS,
                                  znorm=(False,), channel_rules=("any", "sum")),
    })
    return sweep.build_grid(spec)


@dataclass
class SweepInputs:
    cycles: list[LifeCycle]  # swept in every round
    configs: list[DetectorConfig]
    step: int
    check_corpus: list[LifeCycle]  # the recall / precision property runs over these


def sweep_inputs(workload: str, seed: int) -> SweepInputs:
    s = input_seed(seed, workload)
    if workload == "long-hourly":
        spec = SynthSpec(n_days_min=HOURLY_N, n_days_max=HOURLY_N, period_hours=1.0,
                         change_offset_days=HOURLY_OFFSET)
        cycles = generate_corpus(s, 1, spec)
        return SweepInputs(cycles, hourly_grid(), HOURLY_STEP, [])
    spec = SynthSpec(n_days_min=DAILY_DAYS, n_days_max=DAILY_DAYS)
    corpus = generate_corpus(s, DAILY_CHECK_CYCLES, spec)
    return SweepInputs(corpus[:1], daily_grid(), DAILY_STEP, corpus)


@dataclass
class SweepRound:
    items: int  # (cycle, config) pairs attempted
    run_s: float  # run_sweep alone
    wall_s: float  # the whole round, read-back and summary included
    table: sweep.ResultsTable
    loaded: sweep.ResultsTable
    summary: list[dict]


def sweep_round(inputs: SweepInputs, workers: int, out_dir: Path) -> SweepRound:
    results = out_dir / "results.csv"
    for p in (results, results.with_suffix(".csv.meta.json")):
        p.unlink(missing_ok=True)  # a leftover file would be resumed, not recomputed
    t0 = time.perf_counter()
    table = sweep.run_sweep(inputs.cycles, inputs.configs, PARAMS, step=inputs.step,
                            workers=workers, results_path=results)
    t1 = time.perf_counter()
    loaded = sweep.load_results(results)
    summary = sweep.sweep_summary(loaded.records, loaded.params, PP_LIST, loaded.period_hours)
    return SweepRound(len(inputs.cycles) * len(inputs.configs), t1 - t0,
                      time.perf_counter() - t0, table, loaded, summary)


# --- ingest inputs -----------------------------------------------------------

# code -> (events per day before the planted change, after it)
EVENT_RATES = {
    "6000": (4.0, 4.0), "6001": (0.2, 2.0), "6002": (0.4, 1.5),
    "7100": (0.6, 0.6), "7101": (0.05, 0.4), "7200": (0.6, 0.6), "7201": (0.05, 0.05),
    "7300": (0.6, 0.6), "7301": (0.05, 0.05), "7400": (0.6, 0.6), "7401": (0.05, 0.05),
    "7500": (0.6, 0.6), "7501": (0.05, 0.05),
    "8000": (3.5, 3.5), "8001": (0.1, 0.3),
    "9100": (0.2, 0.2), "9200": (0.1, 0.1),  # outside the grouping: parsed, then dropped
}
CODES = tuple(EVENT_RATES)
ANCHOR_CODE = "8000"  # pins each cycle's first and last event
CHANGE_DAYS = 10

# The default grouping's four ratio features, restated here from the
# paper's feature definitions: numerator codes over max(denominator, 1).
FEATURES = (
    ("dist_error_ok", ("6001",), ("6000",)),
    ("dist_warning_ok", ("6002",), ("6000",)),
    ("k7_error_ok", ("7101", "7201", "7301", "7401", "7501"),
     ("7100", "7200", "7300", "7400", "7500")),
    ("withdrawal_error_ok", ("8001",), ("8000",)),
)
GROUPED = tuple(sorted(c for _, num, den in FEATURES for c in (*num, *den)))


@dataclass
class ExpectedCycle:
    start_time: datetime
    samples: np.ndarray


@dataclass
class IngestInputs:
    log_path: Path
    rows: int  # data rows in the file, malformed ones included
    malformed: int
    infected: int  # rows inside a previous cycle's infected interval
    cycles: dict[tuple[str, int], ExpectedCycle] = field(default_factory=dict)
    machines_by_cycle_count: dict[int, int] = field(default_factory=dict)
    grouping: Optional[ingest.CodeGroupingConfig] = None


def _expected_features(t: np.ndarray, codes: np.ndarray) -> ExpectedCycle:
    """Daily ratio features of one cycle from its surviving grouped events."""
    start = int(t.min())
    rows = max(1, math.ceil((int(t.max()) - start) / DAY_S))
    bucket = np.minimum((t - start) // DAY_S, rows - 1)
    counts = {c: np.bincount(bucket[codes == c], minlength=rows) for c in GROUPED}
    samples = np.empty((rows, len(FEATURES)))
    for j, (_, num, den) in enumerate(FEATURES):
        numer = sum(counts[c] for c in num)
        denom = np.maximum(sum(counts[c] for c in den), 1)
        samples[:, j] = numer / denom
    return ExpectedCycle(EPOCH + timedelta(seconds=start), samples)


def make_event_log(seed: int, path: Path) -> IngestInputs:
    """Write a seeded raw event log and return what ingesting it must give.

    Each machine's cycles follow each other, the next one starting 1 to 6
    hours after the previous failure, so the first hours of every later
    cycle fall inside the 1-day infected interval and must be dropped.
    """
    rng = np.random.default_rng(input_seed(seed, "ingest-log"))
    per_machine = rng.permutation(np.array(CYCLES_PER_MACHINE))
    chunks_t, chunks_m, chunks_l, chunks_c = [], [], [], []
    expected: dict[tuple[str, int], ExpectedCycle] = {}
    infected = 0
    code_index = {c: i for i, c in enumerate(CODES)}
    anchor = code_index[ANCHOR_CODE]
    codes_arr = np.array(CODES)
    for machine, n_cycles in enumerate(per_machine):
        start = int(rng.integers(0, 60)) * DAY_S + int(rng.integers(0, DAY_S))
        prev_failure = None
        for lc in range(int(n_cycles)):
            length = int(rng.integers(40, 91)) * DAY_S + int(rng.integers(0, DAY_S))
            change = length - CHANGE_DAYS * DAY_S
            times = [np.array([start, start + length])]
            kinds = [np.array([anchor, anchor])]
            for code, (before, after) in EVENT_RATES.items():
                for lo, hi, rate in ((0, change, before), (change, length, after)):
                    k = int(rng.poisson(rate * (hi - lo) / DAY_S))
                    times.append(start + rng.integers(lo, hi, size=k))
                    kinds.append(np.full(k, code_index[code]))
            t = np.concatenate(times)
            kind = np.concatenate(kinds)
            keep = np.ones(t.size, dtype=bool)
            if prev_failure is not None:
                keep = ~((t >= prev_failure) & (t <= prev_failure + DAY_S))
                infected += int(np.count_nonzero(~keep))
            code_str = codes_arr[kind]
            grouped = keep & np.isin(code_str, GROUPED)
            expected[(f"atm{machine:04d}", lc)] = _expected_features(t[grouped], code_str[grouped])
            chunks_t.append(t)
            chunks_m.append(np.full(t.size, machine))
            chunks_l.append(np.full(t.size, lc))
            chunks_c.append(kind)
            prev_failure = start + length
            start = prev_failure + int(rng.integers(3600, 6 * 3600 + 1))
    t = np.concatenate(chunks_t)
    order = np.argsort(t, kind="stable")
    stamps = np.datetime_as_string((np.datetime64("2019-01-01T00:00:00") + t[order]).astype(
        "datetime64[s]"), unit="s")
    machines = np.concatenate(chunks_m)[order]
    cycles = np.concatenate(chunks_l)[order]
    kinds = np.concatenate(chunks_c)[order]
    lines = [f"{s}Z,atm{m:04d},{lc},{CODES[k]}" for s, m, lc, k in
             zip(stamps.tolist(), machines.tolist(), cycles.tolist(), kinds.tolist())]
    broken = ("2019-13-45T99:00:00Z,atm0000,0,6000",  # impossible timestamp
              "2019-02-01T00:00:00Z,,0,6000",  # empty machine id
              "2019-02-01T00:00:00Z,atm0000,first,6000",  # lifecycle not an integer
              "2019-02-01T00:00:00Z,atm0000")  # missing columns
    for i, pos in enumerate(sorted(rng.choice(len(lines), MALFORMED_ROWS, replace=False),
                                   reverse=True)):
        lines.insert(int(pos), broken[i % len(broken)])
    path.write_text("timestamp,atm_id,lifecycle_id,event_code\n" + "\n".join(lines) + "\n")
    counts = np.bincount(per_machine)
    return IngestInputs(path, len(lines), MALFORMED_ROWS, infected, expected,
                        {k: int(v) for k, v in enumerate(counts) if k and v})


@dataclass
class IngestRound:
    items: int  # log rows
    run_s: float  # parse, build and save
    wall_s: float  # the whole round, read-back and summary included
    parsed: ingest.ParseResult
    built: ingest.IngestResult
    loaded: list[LifeCycle]
    stats: ingest.DatasetStats


def ingest_round(inputs: IngestInputs, out_dir: Path) -> IngestRound:
    cycles_dir = out_dir / "cycles"
    shutil.rmtree(cycles_dir, ignore_errors=True)
    t0 = time.perf_counter()
    parsed = ingest.parse_event_log(inputs.log_path)
    built = ingest.build_cycles(parsed.records, inputs.grouping, period_hours=24.0,
                                ii_days=PARAMS.ii)
    for cycle in built.cycles:
        ingest.save_cycle(cycle, cycles_dir)
    t1 = time.perf_counter()
    loaded = ingest.load_cycles(cycles_dir)
    stats = ingest.dataset_stats(loaded)
    return IngestRound(parsed.total_rows, t1 - t0, time.perf_counter() - t0,
                       parsed, built, loaded, stats)
