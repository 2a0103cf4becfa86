"""Reference computations for the benchmark's output checks.

Everything here is written from the method definitions, without calling
``maintseg``: segment costs are computed directly from each segment, the
exact segmentation is an unpruned optimal-partitioning dynamic program,
binary segmentation and bottom-up merging recompute every candidate from
scratch, the matrix profile compares every pair of z-normalized
subsequences, and the arc curve counts arcs one position at a time. The
code favours being obviously right over being fast; it is only run on a
sample of pairs, outside the timed rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

FLAT_STD = 1e-8  # a series or subsequence with a smaller std counts as flat
NORMAL_EPS = 1e-6  # covariance ridge of the "normal" cost


def znorm_columns(x: np.ndarray) -> np.ndarray:
    """Each column shifted to mean 0 and scaled to population std 1; flat
    columns become zeros."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c in range(x.shape[1]):
        col = x[:, c]
        std = float(np.sqrt(np.mean((col - col.mean()) ** 2)))
        if std >= FLAT_STD:
            out[:, c] = (col - col.mean()) / std
    return out


def median_gamma(x: np.ndarray) -> float:
    """1 / median squared distance over all point pairs (1 when that is 0)."""
    n = x.shape[0]
    d2 = [float(np.sum((x[i] - x[j]) ** 2)) for i in range(n) for j in range(i + 1, n)]
    med = float(np.median(d2))
    return 1.0 / med if med > 0 else 1.0


class DirectCost:
    """Segment cost of [a, b) computed from the segment itself on each call."""

    def __init__(self, x: np.ndarray, kind: str, gamma: Optional[float] = None):
        self.x = np.asarray(x, dtype=float)
        self.kind = kind
        self.gram = None
        if kind == "rbf":
            g = median_gamma(self.x) if gamma is None else gamma
            diff = self.x[:, None, :] - self.x[None, :, :]
            self.gram = np.exp(-g * np.sum(diff * diff, axis=2))

    def __call__(self, a: int, b: int) -> float:
        seg = self.x[a:b]
        length = b - a
        if self.kind == "l2":
            return float(np.sum((seg - seg.mean(axis=0)) ** 2))
        if self.kind == "l1":
            return float(np.sum(np.abs(seg - np.median(seg, axis=0))))
        if self.kind == "normal":
            dev = seg - seg.mean(axis=0)
            cov = dev.T @ dev / length + NORMAL_EPS * np.eye(seg.shape[1])
            sign, logdet = np.linalg.slogdet(cov)
            if sign <= 0:
                logdet = seg.shape[1] * math.log(NORMAL_EPS)
            return float(length * logdet)
        if self.kind == "rbf":
            return float(length - self.gram[a:b, a:b].sum() / length)
        raise ValueError(f"unknown cost kind {self.kind!r}")


@dataclass(frozen=True)
class RefSegmentation:
    breakpoints: tuple[int, ...]
    objective: float  # sum of segment costs + penalty * number of breakpoints


def penalized_cost(cost: DirectCost, n: int, breakpoints, penalty: float) -> float:
    bounds = [0, *breakpoints, n]
    return sum(cost(a, b) for a, b in zip(bounds, bounds[1:])) + penalty * len(breakpoints)


def optimal_partition(cost: DirectCost, n: int, penalty: float,
                      min_size: int) -> RefSegmentation:
    """Exact minimum of sum of costs + penalty per breakpoint, no pruning.

    Every segment has at least ``min_size`` points; ties go to the smallest
    previous breakpoint.
    """
    if n < 2 * min_size:
        return RefSegmentation((), cost(0, n))
    best = [math.inf] * (n + 1)
    best[0] = -penalty
    back = [0] * (n + 1)
    for t in range(min_size, n + 1):
        for s in range(0, t - min_size + 1):
            if s != 0 and not min_size <= s <= n - min_size:
                continue
            if best[s] == math.inf:
                continue
            v = best[s] + cost(s, t) + penalty
            if v < best[t]:
                best[t], back[t] = v, s
    bps = []
    t = n
    while t > 0:
        t = back[t]
        if t > 0:
            bps.append(t)
    return RefSegmentation(tuple(sorted(bps)), best[n])


def greedy_split(cost: DirectCost, n: int, penalty: float, min_size: int) -> RefSegmentation:
    """Binary segmentation: split a segment at its cheapest cut while the
    gain exceeds the penalty; the last pushed half is split first."""
    bps = []
    stack = [(0, n)]
    while stack:
        a, b = stack.pop()
        if b - a < 2 * min_size:
            continue
        whole = cost(a, b)
        best_cut, best_val = None, math.inf
        for c in range(a + min_size, b - min_size + 1):
            v = cost(a, c) + cost(c, b)
            if v < best_val:
                best_cut, best_val = c, v
        if whole - best_val > penalty:
            bps.append(best_cut)
            stack.append((a, best_cut))
            stack.append((best_cut, b))
    bps.sort()
    return RefSegmentation(tuple(bps), penalized_cost(cost, n, bps, penalty))


def greedy_merge(cost: DirectCost, n: int, penalty: float, min_size: int) -> RefSegmentation:
    """Bottom-up: from breakpoints every ``min_size`` points, remove the one
    whose merge costs least while that cost is at most the penalty."""
    bps = list(range(min_size, n, min_size))
    if bps and n - bps[-1] < min_size:
        bps.pop()
    while bps:
        deltas = []
        for i, b in enumerate(bps):
            left = bps[i - 1] if i > 0 else 0
            right = bps[i + 1] if i + 1 < len(bps) else n
            deltas.append(cost(left, right) - cost(left, b) - cost(b, right))
        i = int(np.argmin(deltas))
        if deltas[i] > penalty:
            break
        bps.pop(i)
    return RefSegmentation(tuple(bps), penalized_cost(cost, n, bps, penalty))


def segment(method: str, x: np.ndarray, kind: str, gamma: Optional[float],
            penalty: float, min_size: int) -> RefSegmentation:
    cost = DirectCost(x, kind, gamma)
    n = x.shape[0]
    if method in ("PELT", "KCPD"):
        return optimal_partition(cost, n, penalty, min_size)
    if method == "BINSEG":
        return greedy_split(cost, n, penalty, min_size)
    if method == "BOTTOMUP":
        return greedy_merge(cost, n, penalty, min_size)
    raise ValueError(f"not a segmentation method: {method}")


def nearest_neighbours(series: np.ndarray, m: int) -> np.ndarray:
    """Matrix-profile index by comparing all pairs of z-normalized
    subsequences; flat subsequences count as zero vectors, the exclusion
    zone is |i - j| <= ceil(m / 2), ties go to the smallest j, and a
    position with no admissible neighbour gets index 0."""
    x = np.asarray(series, dtype=float)
    n_sub = x.size - m + 1
    subs = np.array([x[i:i + m] for i in range(n_sub)])
    mu = subs.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.mean((subs - mu) ** 2, axis=1, keepdims=True))
    flat = sd[:, 0] < FLAT_STD
    z = np.where(flat[:, None], 0.0, (subs - mu) / np.where(flat[:, None], 1.0, sd))
    dist = np.sqrt(np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2))
    excl = (m + 1) // 2
    pos = np.arange(n_sub)
    dist[np.abs(pos[:, None] - pos[None, :]) <= excl] = np.inf
    index = np.argmin(dist, axis=1)
    index[np.all(np.isinf(dist), axis=1)] = 0
    return index


def arc_curve(index: np.ndarray, m: int) -> np.ndarray:
    """Corrected arc curve: arcs over each position divided by the count
    expected of a series without regime change, capped at 1, and 1 within
    5 * m of either edge."""
    n_sub = index.size
    lo = np.minimum(np.arange(n_sub), index)
    hi = np.maximum(np.arange(n_sub), index)
    curve = np.ones(n_sub)
    for p in range(n_sub):
        arcs = int(np.sum((lo <= p) & (p < hi)))
        ideal = 2.0 * p * (n_sub - p) / n_sub
        if ideal > 0:
            curve[p] = min(arcs / ideal, 1.0)
    curve[:5 * m] = 1.0
    curve[max(n_sub - 5 * m, 0):] = 1.0
    return curve


def fluss_minimum(x: np.ndarray, m: int, channel_rule: str) -> Optional[tuple[int, float]]:
    """(position, value) of the lowest arc-curve point over the channels, or
    None when the window is too short for a matrix profile. Under "sum"
    the channel curves are averaged first; flat channels give all ones."""
    n = x.shape[0]
    if n < m + (m + 1) // 2 + 1:
        return None
    n_sub = n - m + 1
    curves = []
    for c in range(x.shape[1]):
        col = x[:, c]
        if float(np.sqrt(np.mean((col - col.mean()) ** 2))) < FLAT_STD:
            curves.append(np.ones(n_sub))
        else:
            curves.append(arc_curve(nearest_neighbours(col, m), m))
    if channel_rule == "sum":
        curves = [np.mean(curves, axis=0)]
    best_pos, best_val = 0, math.inf
    for curve in curves:
        pos = int(np.argmin(curve))
        if curve[pos] < best_val:
            best_pos, best_val = pos, float(curve[pos])
    return best_pos, best_val


def window_ends(n: int, step: int) -> list[int]:
    """Prefix window ends: step, 2 * step, ... and always n itself."""
    ends = [e for e in range(step, n + 1, step)]
    if not ends or ends[-1] != n:
        ends.append(n)
    return ends


def verdict(a: Optional[int], n: int, pp: float, rd: float) -> str:
    """TP when the alert lands in [n - (pp + rd), n - rd), FP elsewhere,
    FN without an alert (pp and rd in samples)."""
    if a is None:
        return "FN"
    return "TP" if n - (pp + rd) <= a < n - rd else "FP"


def score(a: Optional[int], n: int, pp: float, rd: float, s: float) -> float:
    """The paper's alert score: 0 without an alert or within rd of the
    failure, 1 within the predictive padding, and the exponential ramp
    (e^(s a) - 1) / (e^(s (n - rd - pp)) - 1) before it."""
    if a is None or a >= n - rd:
        return 0.0
    boundary = n - rd - pp
    if a >= boundary:
        return 1.0
    if s * boundary > 700.0:
        return math.exp(s * (a - boundary)) * (1 - math.exp(-s * a)) / (1 - math.exp(-s * boundary))
    return (math.exp(s * a) - 1.0) / (math.exp(s * boundary) - 1.0)
