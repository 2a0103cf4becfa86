"""Shared domain types plus windowing and normalization primitives.

Everything here is immutable after construction and every operation is a
pure function, so all of it is safe for unrestricted concurrent use. The
one exception is a window's private memo, which the detectors fill with
work that depends only on the window (see :class:`Window`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

__all__ = [
    "LifeCycle",
    "BusinessParams",
    "Window",
    "znormalize",
    "prefix_windows",
    "parse_timestamp",
]

# Std below this is treated as zero (flat low-activity weeks are common).
DEGENERATE_STD = 1e-8


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Accepts a trailing ``Z`` and naive timestamps (assumed UTC).
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class LifeCycle:
    """A resampled multivariate feature series for one maintenance-to-failure interval.

    ``samples`` is an (n, d) float array, one row per resampling bucket of
    ``period`` hours; bucket k covers [start_time + k*period, start_time + (k+1)*period).
    Values are the pre-normalization features: finite and non-negative.

    Every cycle is scored as ending in failure. ``ended_in_failure`` is not
    read by the scoring; it is kept in the cycle files and the corpus
    fingerprint.
    """

    atm_id: str
    cycle_index: int
    start_time: datetime
    end_time: datetime
    feature_names: tuple[str, ...]
    samples: np.ndarray
    period: float = 24.0
    ended_in_failure: bool = True

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D (n, d), got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("a life cycle needs at least one sample bucket")
        if samples.shape[1] != len(self.feature_names):
            raise ValueError(
                f"{samples.shape[1]} feature columns but {len(self.feature_names)} names"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(samples < 0):
            raise ValueError("pre-normalization feature values must be >= 0")
        if self.period <= 0:
            raise ValueError("resampling period must be positive")
        if self.end_time <= self.start_time:
            raise ValueError("end_time must be after start_time")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def key(self) -> tuple[str, int]:
        return (self.atm_id, self.cycle_index)

    def duration_days(self) -> float:
        return (self.end_time - self.start_time).total_seconds() / 86400.0


@dataclass(frozen=True)
class BusinessParams:
    """Business-constraint intervals, all in days.

    rd is the lead time needed to actually perform maintenance once an alert
    fires, pp how far before failure an alert is still useful, ii the
    post-failure period whose data is discarded, and s the sensibility of the
    early-alert penalty.
    """

    rd: float = 1.0
    pp: float = 14.0
    ii: float = 1.0
    s: float = 0.2

    def __post_init__(self) -> None:
        if self.rd < 0:
            raise ValueError("rd must be >= 0")
        if self.pp <= 0:
            raise ValueError("pp must be > 0")
        if self.ii < 0:
            raise ValueError("ii must be >= 0")
        if self.s <= 0:
            raise ValueError("s must be > 0")

    def to_samples(self, period_hours: float) -> tuple[float, float]:
        """Return (rd, pp) converted from days to sample counts."""
        per_day = 24.0 / period_hours
        return self.rd * per_day, self.pp * per_day


@dataclass(frozen=True)
class Window:
    """A prefix view of a cycle: samples[0..end_index).

    ``_memo`` holds what the detectors derived from the window alone
    (z-normalized samples, cost tables, FLUSS curves, solves shared by
    equal configs), so every config evaluated on one window reuses it. It
    is not part of the window's equality or hash; the replay clears it
    before moving to the next window.
    """

    cycle: LifeCycle
    end_index: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.end_index <= self.cycle.n:
            raise ValueError(
                f"end_index {self.end_index} outside [1, {self.cycle.n}]"
            )

    @property
    def samples(self) -> np.ndarray:
        return self.cycle.samples[: self.end_index]

    def __len__(self) -> int:
        return self.end_index


def znormalize(values: np.ndarray) -> np.ndarray:
    """Z-normalize a sequence to mean 0 and population std 1.

    Inputs with population std below 1e-8 map to all zeros so that flat
    series behave deterministically. For 2-D input each column is
    normalized independently.

    Raises
    ------
    ValueError
        If the input is empty or contains non-finite values.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot z-normalize an empty sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot z-normalize non-finite values")
    mean = arr.mean(axis=0, keepdims=True)
    std = arr.std(axis=0, keepdims=True)  # population std
    degenerate = std < DEGENERATE_STD
    safe_std = np.where(degenerate, 1.0, std)
    return np.where(degenerate, 0.0, (arr - mean) / safe_std)


def prefix_windows(cycle: LifeCycle, step: int = 7) -> list[Window]:
    """Growing prefix windows ending at step, 2*step, ... and finally n.

    The final partial window is always included so the last few buckets
    before failure are inspected even when n is not a multiple of step.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    n = cycle.n
    ends = list(range(step, n + 1, step))
    if not ends or ends[-1] != n:
        ends.append(n)
    return [Window(cycle, e) for e in ends]
