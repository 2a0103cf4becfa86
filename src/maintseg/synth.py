"""Synthetic life-cycle corpora for desk-scale testing without the real fleet.

Each generated cycle is piecewise stationary: a quiet base regime of small
severity ratios, then a planted regime change a configurable number of days
before the failure where one feature's level jumps. Deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .core import LifeCycle

__all__ = ["SynthSpec", "generate_corpus"]


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the generated corpus.

    n_days_min, n_days_max and change_offset_days count resampling buckets
    of period_hours each, which are days only at the default 24-hour
    period: a 10-day hourly cycle needs n_days_min=n_days_max=240.
    change_offset_days is the planted change position counted back from the
    cycle end; cycles shorter than twice the offset stay quiet throughout.
    A fraction of machines get several cycles so per-machine stability
    statistics have something to chew on.
    """

    n_days_min: int = 40
    n_days_max: int = 90
    period_hours: float = 24.0
    change_offset_days: int = 10

    def __post_init__(self) -> None:
        if self.n_days_min < 2 or self.n_days_max < self.n_days_min:
            raise ValueError("need 2 <= n_days_min <= n_days_max")
        if self.change_offset_days < 1:
            raise ValueError("change offset must be >= 1 day")


FEATURE_NAMES = ("dist_error_ok", "dist_warning_ok", "k7_error_ok", "withdrawal_error_ok")
# |normal(level, noise)| samples before the planted change, and of the one
# shifted feature after it
BASE_LEVEL, BASE_NOISE = 0.2, 0.05
SHIFT_LEVEL, SHIFT_NOISE = 3.0, 0.3
MAX_CYCLES_PER_ATM = 3


def generate_corpus(seed: int, n_cycles: int, spec: SynthSpec | None = None) -> list[LifeCycle]:
    """Generate ``n_cycles`` synthetic cycles, deterministically per seed."""
    spec = spec or SynthSpec()
    rng = np.random.default_rng(seed)
    epoch = datetime(2020, 1, 1, tzinfo=timezone.utc)

    cycles: list[LifeCycle] = []
    atm = 0
    while len(cycles) < n_cycles:
        atm += 1
        atm_id = f"synth{atm:04d}"
        per_atm = min(int(rng.integers(1, MAX_CYCLES_PER_ATM + 1)),
                      n_cycles - len(cycles))
        for cycle_index in range(per_atm):
            n = int(rng.integers(spec.n_days_min, spec.n_days_max + 1))
            samples = np.abs(rng.normal(BASE_LEVEL, BASE_NOISE,
                                        size=(n, len(FEATURE_NAMES))))
            change = n - spec.change_offset_days
            if change >= spec.change_offset_days:
                feat = int(rng.integers(0, len(FEATURE_NAMES)))
                samples[change:, feat] = np.abs(
                    rng.normal(SHIFT_LEVEL, SHIFT_NOISE, size=n - change))
            start = epoch + timedelta(days=int(rng.integers(0, 365)))
            cycles.append(LifeCycle(
                atm_id=atm_id, cycle_index=cycle_index, start_time=start,
                end_time=start + timedelta(hours=spec.period_hours * n),
                feature_names=FEATURE_NAMES, samples=samples,
                period=spec.period_hours, ended_in_failure=True))
    return cycles
