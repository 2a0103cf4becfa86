"""The five change-point detection methods behind the streaming protocol.

Three penalized segmenters (exact pruned dynamic programming, greedy binary
splitting, bottom-up merging), a kernel variant of the exact one, and the
matrix-profile / arc-curve semantic segmentation with a threshold rule.

All detectors are deterministic: ties break toward the smallest index
everywhere, and identical inputs and configs give identical outputs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import costs
from .core import DEGENERATE_STD, Window, znormalize
from .costs import CostCache, SegmentCost, as_signal, cost_from_label

__all__ = [
    "METHODS",
    "CHANNEL_RULES",
    "DetectorConfig",
    "Segmentation",
    "pelt",
    "binseg",
    "bottomup",
    "kcpd",
    "matrix_profile",
    "fluss_cac",
    "detect",
    "detect_with_score",
    "workspace_key",
    "cycle_level",
    "share_solves",
]

METHODS = ("PELT", "BINSEG", "BOTTOMUP", "KCPD", "FLUSS")
CHANNEL_RULES = ("any", "sum")

_UNSET = "-"

# Diagonals per block of the matrix profile: enough that numpy's per-call
# cost is spread over many pairs; each of a block's temporaries holds at
# most this many times n values.
_MP_BLOCK = 64


@dataclass(frozen=True)
class Segmentation:
    """Interior breakpoints (exclusive of 0 and n) plus the penalized total cost."""

    breakpoints: tuple[int, ...]
    total_cost: float

    def __post_init__(self) -> None:
        bps = tuple(int(b) for b in self.breakpoints)
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)


@dataclass(frozen=True)
class DetectorConfig:
    """A fully specified detector.

    Exactly the fields relevant to the method are required: segmentation
    methods take a cost, a penalty and a minimum segment size; FLUSS takes
    a threshold, a subsequence length and a multivariate channel rule.
    """

    method: str
    cost: SegmentCost | None = None
    penalty: float | None = None
    threshold: float | None = None
    m: int | None = None
    min_size: int | None = None
    znorm: bool = False
    channel_rule: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method == "FLUSS":
            if self.threshold is None or not 0.0 <= self.threshold < 1.0:
                raise ValueError("FLUSS needs a threshold in [0, 1)")
            if self.m is None or self.m < 3:
                raise ValueError("FLUSS needs a subsequence length m >= 3")
            rule = self.channel_rule or "any"
            if rule not in CHANNEL_RULES:
                raise ValueError(f"channel_rule must be one of {CHANNEL_RULES}")
            object.__setattr__(self, "channel_rule", rule)
            if self.cost is not None or self.penalty is not None or self.min_size is not None:
                raise ValueError("FLUSS takes no cost, penalty or min_size")
        else:
            if self.penalty is None or not 0 <= self.penalty < np.inf:  # NaN too
                raise ValueError(f"{self.method} needs a finite penalty >= 0, "
                                 f"got {self.penalty!r}")
            if self.threshold is not None or self.m is not None or self.channel_rule is not None:
                raise ValueError(f"{self.method} takes no threshold, m or channel_rule")
            cost = self.cost
            if self.method == "KCPD":
                cost = cost or SegmentCost("rbf")
                if cost.kind != "rbf":
                    raise ValueError("KCPD is defined for the rbf kernel cost only")
            else:
                cost = cost or SegmentCost("l2")
            object.__setattr__(self, "cost", cost)
            min_size = 2 if self.min_size is None else self.min_size
            if min_size < 1:
                raise ValueError("min_size must be >= 1")
            object.__setattr__(self, "min_size", min_size)

    @property
    def config_id(self) -> str:
        """Stable identifier "method/cost/penalty-or-threshold/min_size/m/znorm/rule"."""
        if self.method == "FLUSS":
            fields = (self.method, _UNSET, repr(float(self.threshold)), _UNSET,
                      str(self.m), str(int(self.znorm)), self.channel_rule)
        else:
            fields = (self.method, self.cost.label, repr(float(self.penalty)),
                      str(self.min_size), _UNSET, str(int(self.znorm)), _UNSET)
        return "/".join(fields)

    @classmethod
    def from_id(cls, config_id: str) -> "DetectorConfig":
        """Inverse of :attr:`config_id`; a ValueError names the id."""
        parts = config_id.split("/")
        if len(parts) != 7:
            raise ValueError(f"malformed config id {config_id!r}")
        method, cost_label, value, min_size, m, znorm, rule = parts
        try:
            znorm_flag = bool(int(znorm))
            if method == "FLUSS":
                return cls(method=method, threshold=float(value), m=int(m),
                           znorm=znorm_flag, channel_rule=rule)
            return cls(method=method, cost=cost_from_label(cost_label),
                       penalty=float(value), min_size=int(min_size), znorm=znorm_flag)
        except ValueError as exc:
            raise ValueError(f"malformed config id {config_id!r}: {exc}") from None


def workspace_key(config: DetectorConfig) -> tuple:
    """What a config shares with others on one window: the segmenters'
    cost tables depend on (cost label, znorm) and FLUSS's curve minima, one
    per channel rule, on (m, znorm), whatever the penalty, min_size,
    threshold or channel rule. ``detect_with_score`` keys a window's memo
    with it, and the sweep replays the configs of one key together."""
    if config.method == "FLUSS":
        return ("FLUSS", config.m, config.znorm)
    return ("segments", config.cost.label, config.znorm)


def _penalties(penalty, min_size: int) -> np.ndarray:
    """The penalized segmenters' checks of their penalties and min_size."""
    penalties = np.atleast_1d(np.asarray(penalty, dtype=float))
    if penalties.ndim != 1 or penalties.size == 0:
        raise ValueError("penalty must be a float or a non-empty sequence of floats")
    if not ((penalties >= 0) & (penalties < np.inf)).all():  # NaN too
        raise ValueError("penalty must be finite and >= 0")
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    return penalties


def _as_cache(signal, cost: SegmentCost | None) -> CostCache:
    """The signal's cost tables, or a prebuilt cache passed in its place."""
    if isinstance(signal, costs.CostCache):
        if cost is not None and cost != signal.spec:
            raise ValueError(f"cost {cost.label} does not match the cache's {signal.spec.label}")
        return signal
    return CostCache(signal, cost)


def _as_given(penalty, segs: list[Segmentation]) -> Segmentation | list[Segmentation]:
    """One segmentation for a float penalty, the list for a sequence."""
    return segs if np.ndim(penalty) else segs[0]


def pelt(signal: np.ndarray | CostCache | list, cost: SegmentCost | None = None,
         penalty: float | Sequence[float] = 1.0, min_size: int = 1) -> Segmentation | list:
    """Exact minimizer of sum-of-segment-costs + penalty * (#breakpoints).

    Pruned dynamic program: a candidate start s is dropped once its partial
    cost exceeds the incumbent optimum plus the penalty, which never
    discards an optimal candidate for segment costs that do not increase
    under splitting.

    ``penalty`` is one float, giving one :class:`Segmentation`, or a
    sequence of them, giving one per entry in the given order. The
    penalties' dynamic programs run in lockstep, one row each with its own
    candidate set, over shared cost reads (the union of the rows'
    candidates); each row is bitwise the one-penalty solve.

    Like the other segmenters, ``signal`` may be a prebuilt
    :class:`~maintseg.costs.CostCache` of the cost instead of the signal.
    It may also be a list of signals or caches of non-decreasing length,
    such as the prefix windows of one cycle, giving one result per entry
    up to the first by which every penalty has found a breakpoint in some
    entry: the streaming replay stops a config at its first alert, so it
    reads no later window (see ``_batch``). Their programs run in lockstep
    too, and the columns are walked once, up to the longest (see
    :class:`_PeltProgram`). Entries cut from one cache by
    :meth:`~maintseg.costs.CostCache.prefix` share one set of rows, each
    read at its own n, since column t depends on x[:t] alone. If one
    entry's costs fail to read, the result stops before it; the error
    propagates when it is the first.
    """
    penalties = _penalties(penalty, min_size)
    caches = [_as_cache(window, cost)
              for window in (signal if isinstance(signal, list) else [signal])]
    if any(b.n < a.n for a, b in zip(caches, caches[1:])):
        raise ValueError("pelt's signals must come in non-decreasing lengths")
    out: list[list[Segmentation]] = []
    try:
        for cache in caches:
            if cache.n >= 2 * min_size:
                break
            whole = float(cache.values([0], [cache.n])[0])
            out.append([Segmentation((), whole)] * penalties.size)
        long = caches[len(out):]
        while long:  # again over the caches before one whose costs failed to read
            program = _PeltProgram(np.unique(penalties), min_size, long)
            if program.advance():
                out.extend(program.segmentations(penalties, w) for w in range(program.solved))
                break
            long = long[:program.solved]
    except Exception:  # in the first signal, or else the result stops before it
        if not out:
            raise
    segs = [_as_given(penalty, window_segs) for window_segs in out]
    return segs if isinstance(signal, list) else segs[0]


# Columns of one cost read: the costs of a block of columns are read in
# one ``values`` call per group of rows, over the starts alive at the
# block's first column or born inside it.
_PELT_BLOCK = 16


class _PeltProgram:
    """:func:`pelt`'s dynamic program over a list of caches of non-decreasing
    length, one row per (group, penalty): the rows of group g are
    g * P .. g * P + P - 1 for P penalties. The caches cut from one cache
    by :meth:`~maintseg.costs.CostCache.prefix` are one group, whose column
    t is read through the shortest of them that holds t, and whose rows
    give each of them its result at its own n; any other cache is a group
    of its own.

    The state is F, prev and G, a copy of F in which each row's pruned
    starts read +inf, so that a column is a few passes over whole rows of
    starts 0..t - min_size. A start t is born once column t is final,
    whatever the groups' lengths: it is first considered at t + min_size.
    The groups are in non-decreasing order of their longest caches, and
    each group's rows stop there: from then on they are sliced out of
    every column, so that nothing past a cache's end is read and its rows
    keep no start alive. A start that only other rows keep reads +inf, so
    each row is bitwise the one-cache, one-penalty program. Costs are read
    ahead in blocks of _PELT_BLOCK columns, and a block ends at any cache's
    end inside a group, where the group's reads move on to a longer cache
    (see :meth:`_read`).
    """

    def __init__(self, penalties: np.ndarray, min_size: int, caches: list[CostCache]):
        self.penalties, self.min_size = penalties, min_size  # penalties ascending, distinct
        self.caches, self.solved = caches, len(caches)  # solved: see advance
        groups: dict = {}
        for w, cache in enumerate(caches):
            groups.setdefault(cache.whole or cache, []).append(w)
        self.groups = sorted(groups.values(), key=lambda ws: ws[-1])
        self.ends = [[caches[w].n for w in ws] for ws in self.groups]
        self.row = {w: g * penalties.size for g, ws in enumerate(self.groups) for w in ws}
        # F[r, t] = optimal penalized cost of x[:t] under row r's penalty p;
        # F[r, 0] = -p so each segment contributes +p and the total equals
        # sum costs + p * breaks. G[r, s] = F[r, s] while row r still
        # considers start s, +inf once it has pruned s.
        self.F = np.full((len(self.groups) * penalties.size, caches[-1].n + 1), np.inf)
        self.F[:, 0] = -np.tile(penalties, len(self.groups))
        self.prev = np.zeros(self.F.shape, dtype=int)
        self.G = self.F.copy()

    def advance(self) -> bool:
        """Compute the columns up to the longest cache's n, or stop after the
        first cache by which every penalty has had a breakpoint
        (``prev[row, n] > 0``), with ``solved`` set past it. If a cache's
        costs fail to read, returns False with ``solved`` set to its index;
        the error propagates if it is the first."""
        size, min_size = self.penalties.size, self.min_size
        ns = [cache.n for cache in self.caches]
        broken = np.zeros(size, dtype=bool)  # the penalties that broke in some cache
        lengths = [ends[-1] for ends in self.ends]
        cuts = sorted({n for ends in self.ends for n in ends[:-1]} | {lengths[-1]})
        pen3 = self.penalties[None, :, None]
        pen2 = 2 * np.tile(self.penalties, len(self.groups))[:, None]
        rows = np.arange(pen2.size)
        F, prev, G = self.F, self.prev, self.G
        first, done = min_size, 0  # done: the groups that end before the last column
        while first <= lengths[-1]:
            stop = min(first + _PELT_BLOCK, cuts[bisect.bisect_left(cuts, first)] + 1)
            # ascending: the starts that a row reaching column first - 1 still considers
            alive = np.flatnonzero((G[done * size:, :first] < np.inf).any(axis=0))
            done = bisect.bisect_left(lengths, first, done)  # the groups that end before first
            costs = self._read(alive, done, first, stop)
            if costs is None:
                return False
            for t in range(first, stop):
                done = bisect.bisect_left(lengths, t, done)
                lo, hi = done * size, F.shape[0]  # the rows of the groups that reach t
                m = t - min_size + 1  # the starts 0..t - min_size
                vals = (G[lo:, :m].reshape(-1, size, m) + costs[done:, t - first, :m][:, None, :]
                        + pen3).reshape(-1, m)
                best = np.argmin(vals, axis=1)  # first minimum -> smallest start on ties
                F[lo:, t] = vals[rows[:hi - lo], best]
                prev[lo:, t] = best
                # F[s]+C(s,t) > F[t]+penalty: row r never takes s again
                np.copyto(G[lo:, :m], np.inf, where=vals > F[lo:, t, None] + pen2[lo:hi])
                G[lo:, t] = F[lo:, t]
            for w in range(bisect.bisect_left(ns, first), bisect.bisect_left(ns, stop)):
                broken |= prev[self.row[w]:self.row[w] + size, ns[w]] > 0
                if broken.all():
                    self.solved = w + 1
                    return True
            first = stop
        return True

    def _read(self, alive: np.ndarray, done: int, first: int, stop: int) -> np.ndarray | None:
        """The costs of the columns first..stop-1 over the starts alive or
        born by then, read in one ``values`` call per group, its segments
        column by column (the order in which PELT's l1 queries fill whole
        diagonals): ``costs[g, t - first, s]`` is group g's C(s, t), for the
        groups from ``done`` on, read through the group's shortest cache
        that holds ``first``. Any other cost is 0, so that a start that G
        holds at +inf stays +inf. None, with ``solved`` set, when a read
        fails; raises if that read is the first cache's."""
        last = stop - 1 - self.min_size  # the latest start the columns consider
        starts = np.concatenate((alive[:np.searchsorted(alive, last, side="right")],
                                 np.arange(first, last + 1)))
        column, index = np.nonzero(starts <= np.arange(first - self.min_size, last + 1)[:, None])
        seg_starts, seg_ends = starts[index], column + first
        costs = np.zeros((len(self.groups), stop - first, last + 1))
        for g in range(done, len(self.groups)):
            w = self.groups[g][bisect.bisect_left(self.ends[g], first)]
            j = np.searchsorted(column, self.caches[w].n - first, side="right")
            try:
                costs[g, column[:j], seg_starts[:j]] = self.caches[w].values(seg_starts[:j],
                                                                             seg_ends[:j])
            except Exception:
                if w == 0:
                    raise
                self.solved = w
                return None
        return costs

    def segmentations(self, penalties: np.ndarray, w: int) -> list[Segmentation]:
        """The optimal segmentation of cache ``w``, x[:n] for its n, under each penalty."""
        segs, n = [], self.caches[w].n
        for row in (self.row[w] + np.searchsorted(self.penalties, penalties)).tolist():
            breakpoints, t = [], n
            while (t := int(self.prev[row, t])) > 0:
                breakpoints.append(t)
            segs.append(Segmentation(tuple(reversed(breakpoints)), float(self.F[row, n])))
        return segs


def binseg(signal: np.ndarray | CostCache, cost: SegmentCost | None = None,
           penalty: float | Sequence[float] = 1.0,
           min_size: int = 1) -> Segmentation | list[Segmentation]:
    """Greedy recursive splitting; a split is kept only if its gain exceeds the penalty.

    A segment's best split does not depend on the penalty, so the split
    tree is grown once, at the smallest penalty of a sequence. A split
    survives a penalty iff its gain and the gains of all the splits above
    it exceed that penalty. A node [a, b) reads its whole segment, every
    [cut, b) and every [a, cut) in one ``values`` call.
    """
    penalties, cache = _penalties(penalty, min_size), _as_cache(signal, cost)
    n = cache.n
    lowest = penalties.min()
    splits: list[tuple[int, float]] = []  # (cut, least gain from the root down to it)
    pending = [(0, n, np.inf)]
    while pending:
        a, b, above = pending.pop()
        if b - a < 2 * min_size:
            continue
        cuts = np.arange(a + min_size, b - min_size + 1)
        k = cuts.size
        costs = cache.values(np.concatenate(([a], cuts, np.full(k, a))),
                             np.concatenate(([b], np.full(k, b), cuts)))
        both = costs[1:k + 1] + costs[k + 1:]
        best = int(np.argmin(both))  # smallest index on ties
        gain = costs[0] - both[best]
        if gain > lowest:
            cut = int(cuts[best])
            least = min(gain, above)
            splits.append((cut, least))
            pending.append((a, cut, least))
            pending.append((cut, b, least))
    found = [tuple(sorted(cut for cut, least in splits if least > beta)) for beta in penalties]
    return _as_given(penalty, _penalized_segmentations(cache, found, penalties))


def bottomup(signal: np.ndarray | CostCache, cost: SegmentCost | None = None,
             penalty: float | Sequence[float] = 1.0,
             min_size: int = 1) -> Segmentation | list[Segmentation]:
    """Start from a dense breakpoint grid and merge the cheapest adjacent pair.

    Merging stops once every remaining merge would increase the cost
    strictly more than the penalty, so a penalty of zero keeps any grid
    whose merges all cost something. The merge order does not depend on
    the penalty, so a sequence of penalties is read off one merge run,
    visited in ascending order: each takes the breakpoints left when the
    cheapest merge first costs more than it. The state is one list of the
    segments' ends, 0, the grid points left and n; a merge reads the three
    segments of each neighbour's new merge delta in one ``values`` call.
    """
    penalties, cache = _penalties(penalty, min_size), _as_cache(signal, cost)
    n = cache.n
    bounds = [0, *range(min_size, n - min_size + 1, min_size), n]

    def merge_deltas(idx: list[int]) -> list[float]:
        """The cost change of removing breakpoint bounds[i + 1], for each i in idx."""
        left = [bounds[i] for i in idx]
        mid = [bounds[i + 1] for i in idx]
        right = [bounds[i + 2] for i in idx]
        costs = cache.values(np.array(left + left + mid), np.array(right + mid + right))
        merged, lhs, rhs = costs.reshape(3, -1)
        return (merged - lhs - rhs).tolist()

    deltas = merge_deltas(list(range(len(bounds) - 2)))
    found: list[tuple[int, ...]] = [()] * penalties.size
    ascending = np.argsort(penalties, kind="stable").tolist()
    while ascending and deltas:
        best = deltas.index(min(deltas))  # smallest breakpoint on ties
        if deltas[best] > penalties[ascending[0]]:
            found[ascending.pop(0)] = tuple(bounds[1:-1])
            continue
        del bounds[best + 1]
        deltas.pop(best)
        # removing a breakpoint only changes its neighbors' merge costs
        idx = [i for i in (best - 1, best) if 0 <= i < len(deltas)]
        for i, delta in zip(idx, merge_deltas(idx)):
            deltas[i] = delta

    return _as_given(penalty, _penalized_segmentations(cache, found, penalties))


def kcpd(signal: np.ndarray | CostCache | list, penalty: float | Sequence[float] = 1.0,
         min_size: int = 1, kernel: SegmentCost | None = None) -> Segmentation | list:
    """Kernel change-point detection: the exact dynamic program over the rbf
    cost, with :func:`pelt`'s signal and penalty forms."""
    kernel = kernel or SegmentCost("rbf")
    if kernel.kind != "rbf":
        raise ValueError("kcpd is defined for the rbf kernel cost only")
    return pelt(signal, kernel, penalty, min_size)


def _penalized_segmentations(cache: CostCache, found: list[tuple[int, ...]],
                             penalties: np.ndarray) -> list[Segmentation]:
    """One segmentation per (breakpoints, penalty) pair. Penalties often share
    a breakpoint set, so each distinct set's segment costs are summed once."""
    sums = {}
    for breakpoints in dict.fromkeys(found):
        bounds = np.array([0, *breakpoints, cache.n])
        sums[breakpoints] = sum(cache.values(bounds[:-1], bounds[1:]).tolist())
    return [Segmentation(b, float(sums[b] + beta * len(b))) for b, beta in zip(found, penalties)]


def matrix_profile(series: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Self-join matrix profile under z-normalized Euclidean distance.

    Returns (profile, index) of length n - m + 1 where profile[i] is the
    distance from subsequence i to its nearest neighbor outside the
    exclusion zone |i - j| <= ceil(m / 2), and index[i] is that neighbor
    (smallest index on ties). Subsequences with std below 1e-8 are treated
    as zero vectors after normalization. When n < m + 2*ceil(m/2) + 1 the
    middle subsequences have no admissible neighbor at all; their profile
    entries stay infinite.

    Computed with sliding dot products along the diagonals j - i = k, each
    one cumulative sum, O(n^2) overall. The diagonals are taken in blocks:
    one block's distances form a 2-D array in which each subsequence's
    nearest neighbors to its right and to its left are column minima, so
    no n_sub x n_sub array is built.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if m < 2:
        raise ValueError("subsequence length m must be >= 2")
    excl = (m + 1) // 2  # ceil(m / 2)
    if n < m + excl + 1:
        raise ValueError(f"series of length {n} too short for m={m} "
                         f"(needs at least {m + excl + 1})")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite (no NaN or inf)")
    n_sub = n - m + 1

    # center the whole series (z-normalized distances are shift-invariant)
    # so the streaming dot products stay well conditioned, and take window
    # moments from a sliding view, which is exact where cumsums cancel.
    x = x - x.mean()
    hankel = np.lib.stride_tricks.sliding_window_view
    windows = hankel(x, m)
    mu = windows.mean(axis=1)
    sigma = windows.std(axis=1)
    degen = sigma < DEGENERATE_STD

    profile = np.full(n_sub, np.inf)
    index = np.zeros(n_sub, dtype=int)
    sqrt_m = np.sqrt(m)

    def padded(a: np.ndarray) -> np.ndarray:
        # a block's rows run past the last subsequence by up to its height;
        # those entries are computed from the padding, then masked out
        return np.concatenate([a, np.zeros(_MP_BLOCK, a.dtype)])

    x_pad, mu_pad, sigma_pad, degen_pad = map(padded, (x, mu, sigma, degen))
    for k0 in range(excl + 1, n_sub, _MP_BLOCK):
        # row r of the block is the diagonal k = k0 + r and column c the
        # pair (i, j) = (c, c + k), which exists while j < n_sub
        rows = min(_MP_BLOCK, n_sub - k0)
        width = n_sub - k0
        # dot products of all pairs (i, i + k): one cumsum per row, each
        # bitwise the cumsum of that diagonal alone
        prod = x[: n - k0] * hankel(x_pad[k0:], n - k0)[:rows]
        cp = np.zeros((rows, n - k0 + 1))
        np.cumsum(prod, axis=1, out=cp[:, 1:])
        qt = cp[:, m:] - cp[:, :width]
        mu_j, sigma_j, degen_j = (hankel(a[k0:], width)[:rows]
                                  for a in (mu_pad, sigma_pad, degen_pad))
        degen_i = degen[:width]
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = (qt - m * mu[:width] * mu_j) / (m * sigma[:width] * sigma_j)
            d = np.sqrt(np.maximum(2.0 * m * (1.0 - corr), 0.0))
        d = np.where(degen_i | degen_j, np.where(degen_i & degen_j, 0.0, sqrt_m), d)
        # the block goes into a buffer whose rows are padded with infinity,
        # so that a view with one less row stride skews it: skewed[r, c]
        # holds the pair (c - r, c + k0), and column c is subsequence k0 + c
        buf = np.full((rows, width + rows), np.inf)
        cols = np.arange(width)
        np.copyto(buf[:, :width], d, where=cols < width - np.arange(rows)[:, None])
        skewed = np.lib.stride_tricks.as_strided(
            buf, shape=(rows, width), strides=(buf.strides[0] - buf.strides[1], buf.strides[1]))

        r = np.argmin(buf[:, :width], axis=0)  # first minimum -> smallest j
        _merge(profile, index, slice(0, width), buf[r, cols], cols + k0 + r)
        r = rows - 1 - np.argmin(skewed[::-1], axis=0)  # last minimum -> smallest i
        _merge(profile, index, slice(k0, n_sub), skewed[r, cols], cols - r)

    return profile, index


def _merge(profile: np.ndarray, index: np.ndarray, where: slice,
           dist: np.ndarray, neighbor: np.ndarray) -> None:
    """Take each candidate neighbor that is nearer than the one held, or as
    near with a smaller index."""
    held, held_index = profile[where], index[where]
    better = (dist < held) | ((dist == held) & (neighbor < held_index))
    held[better] = dist[better]
    held_index[better] = neighbor[better]


def fluss_cac(mp_index: np.ndarray, m: int, n_sub: int) -> np.ndarray:
    """Corrected arc curve: arc crossings over the idealized parabola, in [0, 1].

    Positions within 5 * m of either edge are set to 1 since the arc count
    is unreliable there.
    """
    idx = np.asarray(mp_index, dtype=int)
    pos = np.arange(idx.size)
    lo = np.minimum(pos, idx)
    hi = np.maximum(pos, idx)
    mark = np.zeros(n_sub + 1)
    np.add.at(mark, lo, 1.0)
    np.add.at(mark, hi, -1.0)
    arcs = np.cumsum(mark[:n_sub])

    p = np.arange(n_sub, dtype=float)
    ideal = 2.0 * p * (n_sub - p) / n_sub
    cac = np.ones(n_sub)
    interior = ideal > 0
    cac[interior] = np.minimum(arcs[interior] / ideal[interior], 1.0)
    edge = 5 * m
    cac[:edge] = 1.0
    cac[max(n_sub - edge, 0):] = 1.0
    return cac


def _fluss_curves(x: np.ndarray, m: int) -> list[np.ndarray]:
    """Per-channel corrected arc curves; flat channels yield an all-ones curve."""
    n_sub = x.shape[0] - m + 1
    curves = []
    for c in range(x.shape[1]):
        series = x[:, c]
        if series.std() < DEGENERATE_STD:
            curves.append(np.ones(n_sub))
            continue
        _, idx = matrix_profile(series, m)
        curves.append(fluss_cac(idx, m, n_sub))
    return curves


def _fluss_best(curves: list[np.ndarray]) -> tuple[int, float]:
    """The lowest point of the curves, (position, value): the first curve's
    first minimum on ties."""
    best_val = np.inf
    best_pos = 0
    for curve in curves:
        pos = int(np.argmin(curve))
        if curve[pos] < best_val:
            best_val = float(curve[pos])
            best_pos = pos
    return best_pos, best_val


def _window_samples(window, znorm: bool, memo: dict) -> np.ndarray:
    x = window.samples if isinstance(window, Window) else as_signal(window)
    if not znorm:
        return x
    if "znorm" not in memo:
        memo["znorm"] = znormalize(x)
    return memo["znorm"]


def detect(window, config: DetectorConfig) -> int | None:
    """Run the configured method on one window, returning a change-point index or None.

    Segmentation methods report the LAST breakpoint (the most recent
    behavior change is the actionable one); FLUSS reports its arc-curve
    argmin. Channels are z-normalized from scratch when config.znorm is on.
    """
    cp, _ = detect_with_score(window, config)
    return cp


def detect_with_score(window, config: DetectorConfig) -> tuple[int | None, float]:
    """Like :func:`detect` but also returns a per-window diagnostic score.

    For FLUSS the score is the (combined) CAC minimum; for segmentation
    methods it is the number of breakpoints found.

    FLUSS alerts at the CAC minimum when it lies below the threshold; under
    channel rule "any" the lowest channel wins, under "sum" the channels'
    curves are averaged first. Windows too short for the matrix profile and
    flat channels (no regime structure) never alert.
    """
    memo = window._memo if isinstance(window, Window) else {}
    key = workspace_key(config)
    if config.method == "FLUSS":
        x = _window_samples(window, config.znorm, memo)
        n = x.shape[0]
        excl = (config.m + 1) // 2
        if n < config.m + excl + 1:
            return None, 1.0
        if key not in memo:  # each rule's minimum, which every threshold compares
            curves = _fluss_curves(x, config.m)
            memo[key] = {"any": _fluss_best(curves), "sum": _fluss_best([np.mean(curves, axis=0)])}
        pos, val = memo[key][config.channel_rule]
        return (pos if val < config.threshold else None), val
    if key not in memo:
        memo[key] = _cost_tables(window, config, memo)
    solves = memo.setdefault(_solve_key(config), {})
    if solves.get(config.penalty) is None:
        # the first config of a solve key on a window solves every penalty
        # noted for it (see share_solves), its own among them, unless a
        # solve at an earlier window has (see _solve)
        solves[config.penalty] = None
        todo = [p for p, seg in solves.items() if seg is None]
        solves.update(zip(todo, _solve(window, config, todo, memo[key])))
    seg = solves[config.penalty]
    if seg.breakpoints:
        return seg.breakpoints[-1], float(len(seg.breakpoints))
    return None, 0.0


def _solve(window, config: DetectorConfig, penalties: list[float],
           cache: CostCache) -> list[Segmentation]:
    """The window's segmentations under each penalty. In a replay, PELT
    and KCPD solve later windows of the replay in the same pass (see
    :func:`_batch`), up to the first by which every penalty has fired, and
    write their segmentations into those windows' memos."""
    if config.method == "BINSEG":
        return binseg(cache, config.cost, penalties, config.min_size)
    if config.method == "BOTTOMUP":
        return bottomup(cache, config.cost, penalties, config.min_size)
    in_replay = isinstance(window, Window) and window._cycle_memo is not None
    later = _batch(window, config, len(penalties)) if in_replay else []
    key = workspace_key(config)
    caches = [cache, *(w._memo[key] for w in later)]
    if config.method == "PELT":
        segs = pelt(caches, config.cost, penalties, config.min_size)
    else:
        segs = kcpd(caches, penalties, config.min_size, config.cost)
    for w, w_segs in zip(later, segs[1:]):
        w._memo.setdefault(_solve_key(config), {}).update(zip(penalties, w_segs))
    return segs[0]


# Most cells one batch of windows holds: each window's (n + 1)^2 cost table
# (rbf's Gram prefix sums, l1's medians) and its (n + 1) columns per
# penalty row of the program, where a cell is 8 bytes in each of F, prev
# and G. 2^22 cells of 8 bytes are 32 MB.
_BATCH_CELLS = 1 << 22


def _batch(window: Window, config: DetectorConfig, rows: int) -> list[Window]:
    """The later windows of the replay that one solve at ``window`` covers
    (the solve stops after the window by which its configs have all
    fired), each with its cost tables (and any z-normalized samples
    they were built from) in its memo. For a cycle-level
    config, every later window, each holding a prefix of the cycle's
    tables. Otherwise the replay's windows after the i-th, ``window``, up
    to the 2i-th, within _BATCH_CELLS; a window whose tables fail to build
    ends the batch, its error raised when the replay reaches it."""
    windows, end = window._cycle_memo["windows"], window.end_index
    first = bisect.bisect_right(windows, end, key=lambda w: w.end_index)  # past window's index
    per_window = not cycle_level(config)
    key, cells = workspace_key(config), (end + 1) * (end + 1 + rows)
    batch = []
    for later in windows[first:2 * first - 1] if per_window else windows[first:]:
        cells += (later.end_index + 1) * (later.end_index + 1 + rows)
        if per_window and cells > _BATCH_CELLS:
            break
        if key not in later._memo:
            try:
                later._memo[key] = _cost_tables(later, config, later._memo)
            except Exception:
                break
        batch.append(later)
    return batch


def cycle_level(config: DetectorConfig) -> bool:
    """Whether a config's cost tables depend on the cycle alone, not on the
    window: a segmenter's on the raw samples (znorm off) of a cost whose
    tables have prefixes (see :meth:`~maintseg.costs.CostCache.prefix`)."""
    return (config.method != "FLUSS" and not config.znorm
            and config.cost.kind in costs.PREFIX_KINDS)


def _cost_tables(window, config: DetectorConfig, memo: dict) -> CostCache:
    """A window's cost tables: in a replay (a window with a cycle memo), for
    a cycle-level config, a prefix of the cycle's tables, shared with the
    replay's other windows; else the window's own."""
    shared = window._cycle_memo if isinstance(window, Window) else None
    if shared is not None and cycle_level(config):
        key = workspace_key(config)
        if key not in shared:
            shared[key] = CostCache(window.cycle.samples, config.cost)
        return shared[key].prefix(window.end_index)
    return CostCache(_window_samples(window, config.znorm, memo), config.cost)


def _solve_key(config: DetectorConfig) -> tuple:
    """What one solve serves: a segmenter's workspace and min_size, whatever
    the penalty. KCPD is PELT over the rbf cost, so the two share solves."""
    method = "PELT" if config.method == "KCPD" else config.method
    return ("solve", method, workspace_key(config), config.min_size)


def share_solves(window: Window, configs: Sequence[DetectorConfig]) -> None:
    """Note on ``window`` the penalties ``configs`` need per solve key, so that
    the first of them detected on the window solves them all in one call.
    :func:`~maintseg.protocol.replay` calls it with the configs still
    running on each window; a detection without it solves its own penalty.
    """
    for config in configs:
        if config.method != "FLUSS":
            window._memo.setdefault(_solve_key(config), {}).setdefault(config.penalty, None)
