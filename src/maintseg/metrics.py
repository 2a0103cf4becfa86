"""The business-constraint score, precision/recall over verdicts, and the
best-config / best-per-cycle / stability aggregations.

The score of an alert at time ``a`` for a cycle of length ``n`` is 0 inside
the responsive duration, 1 inside the predictive padding, and an
exponential ramp (e^(s*a) - 1) / (e^(s*(n-(rd+pp))) - 1) before it, which is
continuous at the padding boundary and tends to the linear ramp a / (n-(rd+pp))
as s -> 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import BusinessParams
from .protocol import Alert, Verdict

__all__ = [
    "EvaluationRecord",
    "Aggregate",
    "CycleBest",
    "PerSampleBest",
    "StabilityStats",
    "IncompleteGridError",
    "e_score",
    "aggregate",
    "best_average_config",
    "best_per_sample",
    "model_stability",
]


class IncompleteGridError(ValueError):
    """A (cycle, config) pair is missing from a grid-complete analysis."""


def e_score(a: Optional[float], n: float, pp: float, rd: float, s: float) -> float:
    """Score one first-alert location in [0, 1]; no alert scores 0.

    pp and rd are in samples here (days at the 24 h resampling frequency).
    Computed in log space once s * n grows past 700 to avoid overflow.
    """
    if n < 1:
        raise ValueError("cycle length n must be >= 1")
    if s <= 0:
        raise ValueError("sensibility s must be > 0")
    if pp <= 0 or rd < 0:
        raise ValueError("pp must be > 0 and rd >= 0")
    if a is None:
        return 0.0
    if a < 0:
        raise ValueError("alert location a must be >= 0")
    if a >= n - rd:
        return 0.0
    boundary = n - (rd + pp)
    if a >= boundary:
        return 1.0
    # here 0 <= a < boundary, so boundary > 0
    if a == 0:
        return 0.0
    if s * boundary <= 700.0:
        return math.expm1(s * a) / math.expm1(s * boundary)
    log_num = s * a + math.log1p(-math.exp(-s * a))
    log_den = s * boundary + math.log1p(-math.exp(-s * boundary))
    return math.exp(log_num - log_den)


@dataclass(frozen=True)
class EvaluationRecord:
    """Outcome of one (cycle, config) evaluation."""

    atm_id: str
    cycle_index: int
    config_id: str
    verdict: Verdict
    alert: Optional[Alert]
    e: float
    n: int
    params: BusinessParams

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.FN) != (self.alert is None):
            raise ValueError("FN verdicts and absent alerts must coincide")
        if self.verdict is Verdict.FN and self.e != 0.0:
            raise ValueError("a missed cycle scores exactly 0")
        if self.verdict is Verdict.TP and self.e != 1.0:
            raise ValueError("an in-padding alert scores exactly 1")
        if not 0.0 <= self.e <= 1.0:
            raise ValueError("score must lie in [0, 1]")

    @property
    def cycle_key(self) -> tuple[str, int]:
        return (self.atm_id, self.cycle_index)


@dataclass(frozen=True)
class Aggregate:
    """Mean score plus the confusion counts of one config."""

    mean_e: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    precision_defined: bool  # False when there were no predicted positives

    @property
    def n_records(self) -> int:
        return self.tp + self.fp + self.fn


def aggregate(records: Sequence[EvaluationRecord]) -> Aggregate:
    """Mean score, precision and recall over one config's records.

    Precision with zero predicted positives is reported as 0 with
    precision_defined=False rather than NaN.
    """
    if not records:
        raise ValueError("cannot aggregate an empty record set")
    tp = sum(1 for r in records if r.verdict is Verdict.TP)
    fp = sum(1 for r in records if r.verdict is Verdict.FP)
    fn = sum(1 for r in records if r.verdict is Verdict.FN)
    mean_e = sum(r.e for r in records) / len(records)
    predicted = tp + fp
    precision = tp / predicted if predicted else 0.0
    actual = tp + fn
    recall = tp / actual if actual else 0.0
    return Aggregate(mean_e, precision, recall, tp, fp, fn, precision_defined=predicted > 0)


def _by_config(records: Iterable[EvaluationRecord]) -> dict[str, list[EvaluationRecord]]:
    grouped: dict[str, list[EvaluationRecord]] = defaultdict(list)
    for r in records:
        grouped[r.config_id].append(r)
    return grouped


def best_average_config(records: Sequence[EvaluationRecord]) -> tuple[str, Aggregate]:
    """The config maximizing mean score; ties break by precision, then id order."""
    grouped = _by_config(records)
    if not grouped:
        raise ValueError("no records")
    best_id, best_agg = None, None
    for config_id in sorted(grouped):
        agg = aggregate(grouped[config_id])
        if best_agg is None or (agg.mean_e, agg.precision) > (best_agg.mean_e, best_agg.precision):
            best_id, best_agg = config_id, agg
    return best_id, best_agg


@dataclass(frozen=True)
class CycleBest:
    atm_id: str
    cycle_index: int
    e: float
    config_id: str


@dataclass(frozen=True)
class PerSampleBest:
    """Per-cycle best scores under an informed choice of config."""

    per_cycle: tuple[CycleBest, ...]
    mean_e: float


def best_per_sample(records: Sequence[EvaluationRecord]) -> PerSampleBest:
    """Max score per cycle over all configs, plus the mean of those maxima.

    Requires the full (cycle x config) grid; a missing pair raises
    :class:`IncompleteGridError`. The mean here always dominates the mean
    of any single config.
    """
    all_configs = sorted({r.config_id for r in records})
    if not all_configs:
        raise ValueError("no records")
    by_cycle: dict[tuple[str, int], dict[str, EvaluationRecord]] = defaultdict(dict)
    for r in records:
        by_cycle[r.cycle_key][r.config_id] = r
    bests = []
    for key in sorted(by_cycle):
        per_config = by_cycle[key]
        missing = set(all_configs) - set(per_config)
        if missing:
            raise IncompleteGridError(
                f"cycle {key} missing {len(missing)} configs (e.g. {sorted(missing)[0]})"
            )
        # max score; ties prefer the smallest config id
        best_e = max(r.e for r in per_config.values())
        best = min((r for r in per_config.values() if r.e == best_e),
                   key=lambda r: r.config_id)
        bests.append(CycleBest(best.atm_id, best.cycle_index, best.e, best.config_id))
    mean_e = sum(b.e for b in bests) / len(bests)
    return PerSampleBest(tuple(bests), mean_e)


@dataclass(frozen=True)
class StabilityStats:
    """How stable the per-cycle best model is within each machine."""

    same_model_fraction: float
    one_change_fraction: float
    n_atms_multi_cycle: int  # denominators of the two fractions
    n_atms_over_two_cycles: int


def model_stability(per_cycle: Sequence[CycleBest]) -> StabilityStats:
    """Fraction of multi-cycle machines whose best model never changes, and of
    >2-cycle machines whose best-model sequence changes at most once. A
    model is the method of the best config, not its full identifier.
    """
    by_atm: dict[str, list[CycleBest]] = defaultdict(list)
    for item in per_cycle:
        by_atm[item.atm_id].append(item)

    same = total_multi = one_change = total_gt2 = 0
    for atm in sorted(by_atm):
        items = sorted(by_atm[atm], key=lambda b: b.cycle_index)
        labels = [b.config_id.split("/")[0] for b in items]
        if len(labels) > 1:
            total_multi += 1
            if len(set(labels)) == 1:
                same += 1
        if len(labels) > 2:
            total_gt2 += 1
            changes = sum(1 for x, y in zip(labels, labels[1:]) if x != y)
            if changes <= 1:
                one_change += 1
    return StabilityStats(
        same_model_fraction=same / total_multi if total_multi else 0.0,
        one_change_fraction=one_change / total_gt2 if total_gt2 else 0.0,
        n_atms_multi_cycle=total_multi,
        n_atms_over_two_cycles=total_gt2,
    )
