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
precompute, and l1 O((b-a) log(b-a)) per segment (a sort, whose middle row
or rows give the median), kept in a lazily filled (n+1)^2 table so that no
segment's median is taken twice. l1 segments are computed in batches of
one length (one diagonal b - a of the table): a missed segment whose
diagonal neighbour [a-1, b-1) is known fills the rest of its diagonal in
one sort and one subtraction per channel, as PELT's column-by-column walk
asks for it next; any other miss is computed alone. A batch sorts the
samples' integer ranks within their channel, ranked once per signal,
rather than the samples, and reads its medians from the sorted channels.
Either way each cost is bitwise
``np.abs(seg - np.median(seg, axis=0)).sum()``. A cache holds
no state but these tables, so the detectors share one across every config
evaluated on a window (see ``detectors.detect_with_score``). The l1, l2 and normal
tables of a segment [a, b) read only the samples before b, so a replay
builds them once over the whole cycle and hands each window a
:meth:`CostCache.prefix` of them, which PELT solves as one set of rows
(see ``detectors.pelt``); the rbf Gram is built per window (BLAS rounds
``x @ x.T`` differently at different n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SegmentCost", "CostCache", "cost_from_label", "rbf_bandwidth_median"]

COST_KINDS = ("l1", "l2", "normal", "rbf")
# the kinds whose tables answer a prefix of the signal bitwise as its own do
PREFIX_KINDS = ("l1", "l2", "normal")

# Regularizes the covariance diagonal of the normal cost (low-activity
# segments are exactly singular without it).
NORMAL_EPS = 1e-6

# Most samples (segments x length x channels) one batch of l1 medians holds.
_L1_BLOCK = 1 << 16


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
        if self.gamma is not None and not 0 < self.gamma < math.inf:  # NaN too
            raise ValueError(f"rbf bandwidth gamma must be finite and > 0 when fixed, "
                             f"got {self.gamma!r}")

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
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"signal must be a non-empty 1-D or 2-D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite (no NaN or inf)")
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

    ``values(starts, ends)``, its one query, returns the cost of each
    segment [starts[i], ends[i]) as an array; either argument may be a
    scalar shared by every segment. The prefix-sum and Gram tables of the
    cost kind are built in the constructor, and for l1 each channel's
    sample ranks and sorted samples; the l1 table fills as segments are
    queried. ``prefix(end)`` is the cache of the signal's first ``end``
    samples over the same tables.
    """

    # the cache that a prefix view was cut from; None for a cache of its own
    whole: "CostCache | None" = None

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
            # the samples flat channel by channel, which _fill_l1 views as
            # batches of segments; each sample's stable rank in its channel,
            # offset by channel * n, laid out alike; and the samples in rank
            # order, so that the rank of channel c is an index into it
            self._l1_by_channel = np.ascontiguousarray(x.T).ravel()
            order = np.argsort(self._l1_by_channel.reshape(d, self.n), axis=1, kind="stable")
            order += np.arange(0, d * self.n, self.n)[:, None]
            self._l1_sorted = self._l1_by_channel[order.ravel()]
            self._l1_rank = np.empty(d * self.n, dtype=np.int32)
            self._l1_rank[order.ravel()] = np.arange(d * self.n, dtype=np.int32)

    def prefix(self, end: int) -> "CostCache":
        """The cache of ``signal[:end]``: a copy with ``n = end`` that shares
        this cache's tables, bitwise ``CostCache(signal[:end], spec)`` in
        every answer. l1 costs filled through either are filled for both.
        Its ``whole`` is the cache it was cut from (that cache's ``whole``
        for a prefix of a prefix). Only the :data:`PREFIX_KINDS` have one.
        """
        if self.spec.kind not in PREFIX_KINDS:
            raise ValueError(f"{self.spec.label} tables depend on the whole signal")
        if not 1 <= end <= self.n:
            raise ValueError(f"prefix end {end} outside [1, {self.n}]")
        view = object.__new__(type(self))  # not the constructor: the tables are kept
        view.__dict__.update(vars(self), n=end, signal=self.signal[:end], whole=self.whole or self)
        return view

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
        misses = np.flatnonzero(np.isnan(out))
        for a, b in zip(starts[misses].tolist(), ends[misses].tolist()):
            if not math.isnan(table[a, b]):
                continue  # filled with an earlier miss's diagonal
            # PELT walks its starts one column at a time, so a known diagonal
            # neighbour means the rest of the diagonal will be asked for too;
            # other solvers ask for a few segments per length
            last = self.n - (b - a) if a and not math.isnan(table[a - 1, b - 1]) else a
            self._fill_l1(a, last + 1, b - a)
        out[misses] = table[starts[misses], ends[misses]]
        return out

    def _fill_l1(self, first: int, stop: int, length: int) -> None:
        """Fill the l1 table for the segments [a, a + length), first <= a < stop.

        Each cost is bitwise ``np.abs(seg - np.median(seg, axis=0)).sum()``:
        the median is the middle row, or the mean of the two middle rows, of
        the sorted segment, and each segment's deviations are summed as one
        C-ordered (length, d) block, as numpy sums a single segment. A batch
        of segments sorts the samples' int32 ranks instead of the samples
        and reads the middle ranks' samples with one ``take`` from the
        sorted channels: order statistics are exact, so only the sign of a
        zero median may differ from the float sort's, which no absolute
        deviation sees. It subtracts each channel's medians in one call,
        whose inner loops run along the segments.
        """
        mid = length // 2
        if stop - first == 1:  # one segment: fewest numpy calls
            seg = self.signal[first:first + length]
            ranked = np.sort(seg, axis=0)
            med = ranked[mid] if length % 2 else (ranked[mid - 1] + ranked[mid]) / 2
            self._l1_table[first, first + length] = np.abs(seg - med).sum()
            return
        # the whole signal's length, also in a prefix: the table, the flat
        # samples and their ranks are the whole signal's
        n, d = self._l1_table.shape[0] - 1, self.signal.shape[1]
        by_channel, item = self._l1_by_channel, self.signal.itemsize
        rank, sorted_samples = self._l1_rank, self._l1_sorted
        middle = slice(mid - 1 + length % 2, mid + 1)  # the middle rank or two
        # the table's cells [a, a + length) lie n + 2 apart in its flat view
        cells = self._l1_table.reshape(-1)[length::n + 2]
        step = max(1, _L1_BLOCK // (length * d))  # bounds the temporaries' size
        for lo in range(first, stop, step):
            k = min(step, stop - lo)
            # a view of the samples (numpy checks that it stays inside the
            # buffer; cheaper to make than sliding_window_view's): channel c
            # of segment lo + i at [c, i] of a (d, k, length) array, so that
            # the sort and each channel's subtraction run along whole runs
            channels = np.ndarray((d, k, length), float, by_channel, lo * item,
                                  (n * item, item, item))
            ranks = np.ndarray((d, k, length), np.int32, rank, lo * 4, (n * 4, 4, 4))
            med = sorted_samples.take(np.sort(ranks, axis=2)[:, :, middle])
            med = med[:, :, 0] if length % 2 else (med[:, :, 0] + med[:, :, 1]) / 2
            dev = np.empty((k, length, d))
            for c in range(d):  # one channel per call: inner loops of length, not of d
                np.subtract(channels[c], med[c][:, None], out=dev[:, :, c])
            np.abs(dev, out=dev)
            cells[lo:lo + k] = dev.sum(axis=(1, 2))

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
