"""Shared fixtures and independent oracles used across the suite.

The oracles here deliberately stay naive (full enumeration, all-pairs
distances) so they never share code paths with the implementations they
check.
"""

from __future__ import annotations

import bisect
import csv
import sys
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from maintseg.core import LifeCycle, Window, parse_timestamp, prefix_windows
from maintseg.costs import NORMAL_EPS, SegmentCost
from maintseg.detectors import _PELT_BLOCK, _PeltProgram, detect
from maintseg.ingest import EventTable, LogFormat, ParseQualityError, ParseResult
from maintseg.protocol import ALERT_TIMINGS, Alert

EPOCH = datetime(2021, 6, 1, tzinfo=timezone.utc)


def make_cycle(samples, atm_id="atm1", cycle_index=0, period=24.0,
               feature_names=None) -> LifeCycle:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    names = feature_names or tuple(f"f{i}" for i in range(samples.shape[1]))
    return LifeCycle(
        atm_id=atm_id, cycle_index=cycle_index, start_time=EPOCH,
        end_time=EPOCH + timedelta(hours=period * samples.shape[0]),
        feature_names=names, samples=samples, period=period)


def per_window(window, config):
    """Each (window, config) detected alone on a fresh window, so with the
    window's own cost tables and a one-penalty solve from t = 0."""
    return detect(Window(window.cycle, window.end_index), config)


def oracle_replay(cycle, configs, step=7, alert_at="window-end", detector=per_window):
    """The first-alert replay one config at a time, the reference that
    ``protocol.replay`` must match outcome for outcome: at each window every
    config that has not fired is detected by ``detector`` in the given
    order, and stops at its first alert or at the exception its detection
    raised."""
    if alert_at not in ALERT_TIMINGS:
        raise ValueError(f"alert_at must be one of {ALERT_TIMINGS}")
    outcomes = [None] * len(configs)
    running = list(range(len(configs)))
    for window in prefix_windows(cycle, step):
        end = window.end_index
        for i in running:
            try:
                cp = detector(window, configs[i])
                if cp is not None:
                    outcomes[i] = Alert(end, int(cp), end if alert_at == "window-end" else int(cp))
            except Exception as exc:  # the other configs go on
                outcomes[i] = exc
        running = [i for i in running if outcomes[i] is None]
        if not running:
            break
    return outcomes


def parse_rows(fh, fmt: LogFormat) -> ParseResult:
    """Parse a delimited log one row at a time, as maintseg did before it
    decoded columns: the reference ``parse_event_log`` must match on every
    column, dtype and count, and in when it raises ParseQualityError.

    Each row's timestamp goes through ``parse_timestamp``; its machine id and
    code are stripped, its life cycle passed to ``int()``, in that order, and
    the first failure makes it malformed. Rows of only whitespace are skipped.
    """
    reader = csv.reader(fh, delimiter=fmt.delimiter)
    columns: dict[str, int] = {}
    if fmt.has_header:
        header = next(reader, None)
        if header is not None:
            columns = {name.strip(): i for i, name in enumerate(header)}

    def index(spec):
        return spec if isinstance(spec, int) else columns.get(spec, sys.maxsize)

    ts_i, atm_i, code_i = map(index, (fmt.timestamp, fmt.atm_id, fmt.event_code))
    lc_i = None if fmt.lifecycle_id is None else index(fmt.lifecycle_id)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    events = []
    malformed = total = 0
    for row in reader:
        if not "".join(row).strip():
            continue
        total += 1
        try:
            ts = parse_timestamp(row[ts_i])
            atm = row[atm_i].strip()
            code = row[code_i].strip()
            lifecycle = 0 if lc_i is None else int(row[lc_i])
            if not atm or not code or abs(lifecycle) >= 2**63:
                raise ValueError("empty field or a life cycle id beyond 64 bits")
        except (ValueError, IndexError):
            malformed += 1
            continue
        events.append((atm, lifecycle, (ts - epoch) // timedelta(microseconds=1), code))
    if total > 0 and malformed / total > 0.10:
        raise ParseQualityError(malformed, total)
    by_column = list(zip(*events)) or [()] * 4
    return ParseResult(EventTable(*by_column), malformed, total)


def mp_brute_force(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """O(n^2 m) all-pairs z-normalized distances, smallest index on ties.

    Deliberately materializes every normalized window and every pairwise
    distance; no sliding dot products anywhere.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    excl = (m + 1) // 2
    n_sub = n - m + 1
    z = np.empty((n_sub, m))
    for i in range(n_sub):
        w = x[i:i + m]
        sd = w.std()
        z[i] = 0.0 if sd < 1e-8 else (w - w.mean()) / sd
    profile = np.empty(n_sub)
    index = np.empty(n_sub, dtype=int)
    for i in range(n_sub):
        d = np.sqrt(((z - z[i]) ** 2).sum(axis=1))
        d[max(i - excl, 0):i + excl + 1] = np.inf  # exclusion zone
        j = int(np.argmin(d))  # first minimum -> smallest index on ties
        profile[i] = d[j]
        index[i] = j
    return profile, index


def mp_diagonal_sweep(series: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrix profile one diagonal j - i = k at a time, as maintseg
    computed it before it took the diagonals in blocks: the reference the
    blocked kernel must match bit for bit, ties included.

    Each diagonal's sliding dot products are one cumsum; a pair updates
    its left end when strictly nearer (so the first, smallest j wins ties)
    and its right end when no farther (later diagonals have smaller i).
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    excl = (m + 1) // 2
    n_sub = n - m + 1
    x = x - x.mean()
    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    mu = windows.mean(axis=1)
    sigma = windows.std(axis=1)
    degen = sigma < 1e-8
    profile = np.full(n_sub, np.inf)
    index = np.zeros(n_sub, dtype=int)
    for k in range(excl + 1, n_sub):
        prod = x[: n - k] * x[k:]
        cp = np.concatenate([[0.0], np.cumsum(prod)])
        qt = cp[m:] - cp[: n - k - m + 1]
        i = np.arange(n_sub - k)
        j = i + k
        ok = ~degen[i] & ~degen[j]
        d = np.empty(n_sub - k)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = (qt - m * mu[i] * mu[j]) / (m * sigma[i] * sigma[j])
        d[ok] = np.sqrt(np.maximum(2.0 * m * (1.0 - corr[ok]), 0.0))
        d[degen[i] ^ degen[j]] = np.sqrt(m)
        d[degen[i] & degen[j]] = 0.0
        upd = d < profile[i]
        profile[i[upd]] = d[upd]
        index[i[upd]] = j[upd]
        upd = d <= profile[j]
        profile[j[upd]] = d[upd]
        index[j[upd]] = i[upd]
    return profile, index


class GatheredPeltProgram(_PeltProgram):
    """PELT's program as maintseg walked it before it kept a masked copy of
    F: the reference the dense column step must match bit for bit, in F,
    prev, the segmentations and every cost read.

    Each row keeps a boolean candidate set; a column gathers F and the
    candidate flags over the ascending array of starts some row still
    considers, masks the pruned entries with +inf, scatters the rows' new
    flags back, and rebuilds that array from their union. The costs of a
    block of columns are read over the array at the block's first column
    and the starts born inside it. It shares the program's constructor
    (the groups and their rows) and its backtrack, which the dense step
    left as they were.
    """

    def __init__(self, penalties, min_size, caches, ns):
        super().__init__(penalties, min_size, caches, ns)
        self.candidate = np.zeros(self.F.shape, dtype=bool)
        self.candidate[:, 0] = True

    def advance(self) -> bool:
        size, min_size = self.penalties.size, self.min_size
        ns = self.ns
        broken = np.zeros(size, dtype=bool)
        lengths = [ends[-1] for ends in self.ends]
        cuts = sorted({n for ends in self.ends for n in ends[:-1]} | {lengths[-1]})
        pen3 = self.penalties[None, :, None]
        pen2 = 2 * np.tile(self.penalties, len(self.groups))[:, None]
        rows = np.arange(pen2.size)
        F, prev, candidate = self.F, self.prev, self.candidate
        alive = np.zeros(1, dtype=int)
        first = min_size
        while first <= lengths[-1]:
            stop = min(first + _PELT_BLOCK, cuts[bisect.bisect_left(cuts, first)] + 1)
            done = bisect.bisect_left(lengths, first)
            costs = self._gathered_read(alive, done, first, stop)
            if costs is None:
                return False
            for t in range(first, stop):
                done = bisect.bisect_left(lengths, t, done)
                lo, hi = done * size, F.shape[0]
                starts = alive[:np.searchsorted(alive, t - min_size, side="right")]
                vals = (F[lo:, starts].reshape(-1, size, starts.size)
                        + costs[done:, t - first, starts][:, None, :]
                        + pen3).reshape(-1, starts.size)
                vals[~candidate[lo:, starts]] = np.inf
                best = np.argmin(vals, axis=1)
                F[lo:, t] = vals[rows[:hi - lo], best]
                prev[lo:, t] = starts[best]
                keep = vals <= F[lo:, t, None] + pen2[lo:hi]
                candidate[lo:, starts] = keep
                alive = np.concatenate((starts[keep.any(axis=0)], alive[starts.size:], [t]))
                candidate[:, t] = True
            for w in range(bisect.bisect_left(ns, first), bisect.bisect_left(ns, stop)):
                broken |= prev[self.row[w]:self.row[w] + size, ns[w]] > 0
                if broken.all():
                    self.solved = w + 1
                    return True
            first = stop
        return True

    def _gathered_read(self, alive, done, first, stop):
        last = stop - 1 - self.min_size
        starts = np.concatenate((alive[:np.searchsorted(alive, last, side="right")],
                                 np.arange(first, last + 1)))
        column, index = np.nonzero(starts <= np.arange(first - self.min_size, last + 1)[:, None])
        seg_starts, seg_ends = starts[index], column + first
        costs = np.empty((len(self.groups), stop - first, last + 1))
        for g in range(done, len(self.groups)):
            w = self.groups[g][bisect.bisect_left(self.ends[g], first)]
            j = np.searchsorted(column, self.ns[w] - first, side="right")
            try:
                costs[g, column[:j], seg_starts[:j]] = self.caches[w].values(seg_starts[:j],
                                                                             seg_ends[:j])
            except Exception:
                if w == 0:
                    raise
                self.solved = w
                return None
        return costs


def direct_cost(x: np.ndarray, a: int, b: int, spec: SegmentCost) -> float:
    """Cost of segment [a, b) of the (n, d) signal x, straight from its definition.

    With no fixed rbf bandwidth, gamma is the median heuristic over all of
    x: 1 / median squared distance between distinct samples, 1 when that is 0.
    """
    seg = x[a:b]
    if spec.kind == "l2":
        return float(((seg - seg.mean(axis=0)) ** 2).sum())
    if spec.kind == "l1":
        return float(np.abs(seg - np.median(seg, axis=0)).sum())
    if spec.kind == "normal":
        cov = np.cov(seg.T, bias=True).reshape(seg.shape[1], seg.shape[1])
        return float(len(seg) * np.log(np.linalg.det(cov + NORMAL_EPS * np.eye(seg.shape[1]))))
    gamma = spec.gamma
    if gamma is None:
        all_d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        med = np.median(all_d2[np.triu_indices(len(x), k=1)]) if len(x) > 1 else 0.0
        gamma = 1.0 / med if med > 0 else 1.0
    d2 = ((seg[:, None, :] - seg[None, :, :]) ** 2).sum(axis=2)
    gram = np.exp(-gamma * d2)
    return float(len(seg) - gram.sum() / len(seg))


def exhaustive_segmentation(x: np.ndarray, spec: SegmentCost, penalty: float,
                            min_size: int) -> tuple[float, list[tuple[int, ...]]]:
    """Enumerate every admissible breakpoint set; return (best cost, argmin sets).

    Sets within 1e-9 of the optimum all count as argmins (equal-cost ties).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    seg_cost = {(a, b): direct_cost(x, a, b, spec)
                for a in range(n) for b in range(a + 1, n + 1)}
    positions = list(range(min_size, n - min_size + 1))
    best_cost = np.inf
    best_sets: list[tuple[int, ...]] = []

    def walk(prefix: list[int], start: int) -> None:
        nonlocal best_cost, best_sets
        bounds = [0, *prefix, n]
        if all(b - a >= min_size for a, b in zip(bounds, bounds[1:])) or not prefix:
            total = sum(seg_cost[a, b] for a, b in zip(bounds, bounds[1:]))
            total += penalty * len(prefix)
            if total < best_cost - 1e-9:
                best_cost = total
                best_sets = [tuple(prefix)]
            elif abs(total - best_cost) <= 1e-9:
                best_sets.append(tuple(prefix))
                best_cost = min(best_cost, total)
        for p in positions:
            if p < start:
                continue
            if prefix and p - prefix[-1] < min_size:
                continue
            walk(prefix + [p], p + 1)

    walk([], 0)
    return best_cost, best_sets


def two_regime_series(n=160, change=80, seed=3) -> np.ndarray:
    """Univariate series switching from a period-8 sine to a square-ish wave."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    first = np.sin(2 * np.pi * t / 8.0) + 0.05 * rng.normal(size=n)
    second = np.sign(np.sin(2 * np.pi * t / 16.0)) * 1.5 + 0.05 * rng.normal(size=n)
    return np.where(t < change, first, second)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
