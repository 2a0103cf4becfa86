"""Segment cost functions used by the penalized segmentation detectors.

Costs are functions of a contiguous segment [a, b) of an (n, d) signal:

* ``l2``     sum of squared deviations from the segment mean,
* ``l1``     sum of absolute deviations from the coordinate-wise median,
* ``normal`` (b-a) * log det(empirical covariance + NORMAL_EPS*I),
* ``rbf``    (b-a) - (1/(b-a)) * sum of the segment's RBF Gram entries.

A :class:`CostCache` builds one signal's tables for its cost kind and then
answers every query through ``values(starts, ends)``, one batch of segments
per call. l2 and rbf cost O(1) per segment after an O(n)/O(n^2) precompute,
normal O(d^3) per segment (one batched log-determinant) after an O(n d^2)
precompute, and l1 O(b-a) per segment (a median each), kept in a lazily
filled (n+1)^2 table so that no segment's median is taken twice. A cache
holds no state but these tables, so the detectors share one per window and
cost label across every config evaluated on that window (see
``detectors.detect_with_score``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SegmentCost", "CostCache", "cost", "cost_from_label", "rbf_bandwidth_median"]

COST_KINDS = ("l1", "l2", "normal", "rbf")

# Regularizes the covariance diagonal of the normal cost (low-activity
# segments are exactly singular without it).
NORMAL_EPS = 1e-6


@dataclass(frozen=True)
class SegmentCost:
    """A fully specified cost function.

    gamma is the RBF bandwidth; None selects the median heuristic per
    signal.
    """

    kind: str = "l2"
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}, expected one of {COST_KINDS}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("rbf bandwidth gamma must be > 0 when fixed")

    @property
    def label(self) -> str:
        if self.kind == "rbf" and self.gamma is not None:
            return f"rbf:{self.gamma!r}"
        return self.kind


def cost_from_label(label: str) -> SegmentCost:
    """Inverse of :attr:`SegmentCost.label`, e.g. "l2" or "rbf:0.1"."""
    if label.startswith("rbf:"):
        return SegmentCost("rbf", gamma=float(label[4:]))
    return SegmentCost(label)


def as_signal(signal: np.ndarray) -> np.ndarray:
    """The signal as an (n, d) float array; 1-D input is one channel."""
    x = np.asarray(signal, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"signal must be a non-empty 1-D or 2-D array, got shape {x.shape}")
    return x


def rbf_bandwidth_median(signal: np.ndarray) -> float:
    """Median-heuristic bandwidth: 1 / median pairwise squared distance.

    Distances are taken over an evenly spaced subsample capped at 1000
    points so the heuristic stays cheap and deterministic. A zero median
    (all points identical) falls back to gamma = 1.
    """
    x = as_signal(signal)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 samples")
    if n > 1000:
        idx = np.linspace(0, n - 1, 1000).astype(int)
        x = x[idx]
        n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    med = float(np.median(d2[np.triu_indices(n, k=1)]))
    if med <= 0.0:
        return 1.0
    return 1.0 / med


class CostCache:
    """Per-signal tables answering segment cost queries.

    ``values(starts, ends)`` returns the cost of each segment
    [starts[i], ends[i]); either argument may be a scalar shared by every
    segment. ``value(a, b)`` is the cost of one segment as a float. The
    prefix-sum and Gram tables of the cost kind are built in the
    constructor; the l1 table fills as segments are queried.
    """

    def __init__(self, signal: np.ndarray, spec: SegmentCost | None = None):
        self.signal = x = as_signal(signal)
        self.spec = spec or SegmentCost()
        self.n, d = x.shape
        kind = self.spec.kind
        if kind in ("l2", "normal"):
            self._s1 = np.vstack([np.zeros((1, d)), np.cumsum(x, axis=0)])
        if kind == "l2":
            self._s2 = np.concatenate([[0.0], np.cumsum(np.sum(x * x, axis=1))])
        elif kind == "normal":
            outer = x[:, :, None] * x[:, None, :]
            self._sxx = np.concatenate([np.zeros((1, d, d)), np.cumsum(outer, axis=0)])
        elif kind == "rbf":
            gamma = self.spec.gamma
            if gamma is None:
                gamma = rbf_bandwidth_median(x) if self.n >= 2 else 1.0
            sq = np.sum(x * x, axis=1)
            d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
            gram = np.exp(-gamma * d2)
            # 2-D prefix sums: _p[i, j] = sum of gram[:i, :j]
            self._p = np.zeros((self.n + 1, self.n + 1))
            self._p[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
        elif kind == "l1":
            # _l1_table[a, b] = cost of [a, b), NaN until first asked for
            self._l1_table = np.full((self.n + 1, self.n + 1), np.nan)

    def value(self, a: int, b: int) -> float:
        if not 0 <= a < b <= self.n:
            raise ValueError(f"invalid segment [{a}, {b}) for signal of length {self.n}")
        return float(self._COSTS[self.spec.kind](self, np.array([a]), np.array([b]))[0])

    def values(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=int)
        ends = np.asarray(ends, dtype=int)
        lengths = ends - starts
        if lengths.size == 0:
            return np.empty(0)
        if starts.min() < 0 or ends.max() > self.n or lengths.min() < 1:
            raise ValueError(f"invalid segments for signal of length {self.n}")
        return self._COSTS[self.spec.kind](self, starts, ends)

    # Each cost below takes start and end index arrays of one length, or
    # one of them a scalar that numpy broadcasts against the other.

    def _l1(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        starts, ends = np.broadcast_arrays(starts, ends)
        table = self._l1_table
        out = table[starts, ends]
        for i in np.flatnonzero(np.isnan(out)):
            a, b = starts[i], ends[i]
            seg = self.signal[a:b]
            out[i] = table[a, b] = np.abs(seg - np.median(seg, axis=0)).sum()
        return out

    def _l2(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        length = ends - starts
        seg_sum = self._s1[ends] - self._s1[starts]
        seg_sq = self._s2[ends] - self._s2[starts]
        out = seg_sq - np.sum(seg_sum * seg_sum, axis=-1) / length
        return np.maximum(out, 0.0)

    def _normal(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        length = ends - starts
        d = self.signal.shape[1]
        mean = (self._s1[ends] - self._s1[starts]) / length[:, None]
        cov = ((self._sxx[ends] - self._sxx[starts]) / length[:, None, None]
               - mean[:, :, None] * mean[:, None, :])
        sign, logdet = np.linalg.slogdet(cov + NORMAL_EPS * np.eye(d))
        # NORMAL_EPS keeps sign <= 0 from happening except for severe cancellation
        return length * np.where(sign > 0, logdet, np.log(NORMAL_EPS) * d)

    def _rbf(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        length = ends - starts
        p = self._p
        gram_sum = p[ends, ends] - p[starts, ends] - p[ends, starts] + p[starts, starts]
        return length - gram_sum / length

    # looked up per query: an instance attribute holding a bound method
    # would be a reference cycle, freed only by the cyclic collector
    _COSTS = {"l1": _l1, "l2": _l2, "normal": _normal, "rbf": _rbf}


def cost(signal: np.ndarray, a: int, b: int, spec: SegmentCost | None = None) -> float:
    """One-shot cost of segment [a, b); see :class:`CostCache` for batches."""
    return CostCache(signal, spec).value(a, b)
