"""The five change-point detection methods behind the streaming protocol.

Three penalized segmenters (exact pruned dynamic programming, greedy binary
splitting, bottom-up merging), a kernel variant of the exact one, and the
matrix-profile / arc-curve semantic segmentation with a threshold rule.

All detectors are deterministic: ties break toward the smallest index
everywhere, and identical inputs and configs give identical outputs.
"""

from __future__ import annotations

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
    "share_solves",
]

METHODS = ("PELT", "BINSEG", "BOTTOMUP", "KCPD", "FLUSS")
CHANNEL_RULES = ("any", "sum")

_UNSET = "-"


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
            if self.penalty is None or self.penalty < 0:
                raise ValueError(f"{self.method} needs a penalty >= 0")
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
        parts = config_id.split("/")
        if len(parts) != 7:
            raise ValueError(f"malformed config id {config_id!r}")
        method, cost_label, value, min_size, m, znorm, rule = parts
        znorm_flag = bool(int(znorm))
        if method == "FLUSS":
            return cls(method=method, threshold=float(value), m=int(m),
                       znorm=znorm_flag, channel_rule=rule)
        return cls(method=method, cost=cost_from_label(cost_label),
                   penalty=float(value), min_size=int(min_size), znorm=znorm_flag)


def workspace_key(config: DetectorConfig) -> tuple:
    """What a config shares with others on one window: the segmenters'
    cost tables depend on (cost label, znorm) and FLUSS's per-channel curves
    on (m, znorm), whatever the penalty, min_size, threshold or channel
    rule. ``detect_with_score`` keys a window's memo with it, and the sweep
    replays the configs of one key together."""
    if config.method == "FLUSS":
        return ("FLUSS", config.m, config.znorm)
    return ("segments", config.cost.label, config.znorm)


def _penalized(signal, cost: SegmentCost | None, penalty,
               min_size: int) -> tuple[CostCache, np.ndarray]:
    """The penalized segmenters' shared preamble: check the penalties and
    min_size, then build the signal's cost tables, or take a prebuilt
    :class:`~maintseg.costs.CostCache` passed in place of the signal."""
    penalties = np.atleast_1d(np.asarray(penalty, dtype=float))
    if penalties.ndim != 1 or penalties.size == 0:
        raise ValueError("penalty must be a float or a non-empty sequence of floats")
    if (penalties < 0).any():
        raise ValueError("penalty must be >= 0")
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    if isinstance(signal, costs.CostCache):
        if cost is not None and cost != signal.spec:
            raise ValueError(f"cost {cost.label} does not match the cache's {signal.spec.label}")
        return signal, penalties
    return CostCache(signal, cost), penalties


def _as_given(penalty, segs: list[Segmentation]) -> Segmentation | list[Segmentation]:
    """One segmentation for a float penalty, the list for a sequence."""
    return segs if np.ndim(penalty) else segs[0]


def pelt(signal: np.ndarray | CostCache, cost: SegmentCost | None = None,
         penalty: float | Sequence[float] = 1.0,
         min_size: int = 1) -> Segmentation | list[Segmentation]:
    """Exact minimizer of sum-of-segment-costs + penalty * (#breakpoints).

    Pruned dynamic program: a candidate start s is dropped once its partial
    cost exceeds the incumbent optimum plus the penalty, which never
    discards an optimal candidate for segment costs that do not increase
    under splitting.

    ``penalty`` is one float, giving one :class:`Segmentation`, or a
    sequence of them, giving one per entry in the given order. The
    penalties' dynamic programs run in lockstep, one row each with its own
    candidate set, over one cost query per end t (the union of the rows'
    candidates); each row is bitwise the one-penalty solve.

    Like the other segmenters, ``signal`` may be a prebuilt
    :class:`~maintseg.costs.CostCache` of the cost instead of the signal.
    """
    cache, penalties = _penalized(signal, cost, penalty, min_size)
    n = cache.n
    if n < 2 * min_size:
        return _as_given(penalty, [Segmentation((), cache.value(0, n))] * penalties.size)

    # F[p, t] = optimal penalized cost of x[:t] under penalty p; F[p, 0] =
    # -p so each segment contributes +p and the total equals sum costs +
    # p * breaks. candidate[p, s]: s is a start row p still considers.
    rows = np.arange(penalties.size)
    pen = penalties[:, None]
    F = np.full((penalties.size, n + 1), np.inf)
    F[:, 0] = -penalties
    prev = np.zeros((penalties.size, n + 1), dtype=int)
    candidate = np.zeros((penalties.size, n + 1), dtype=bool)
    candidate[:, 0] = True
    alive = np.zeros(1, dtype=int)  # ascending: the starts some row considers
    for t in range(min_size, n + 1):
        starts = alive[:np.searchsorted(alive, t - min_size, side="right")]
        vals = F[:, starts] + cache.values(starts, t) + pen
        vals[~candidate[:, starts]] = np.inf
        best = np.argmin(vals, axis=1)  # first minimum -> smallest start on ties
        F[:, t] = vals[rows, best]
        prev[:, t] = starts[best]
        keep = vals <= F[:, t, None] + 2 * pen  # F[s]+C(s,t) <= F[t]+penalty
        candidate[:, starts] = keep
        alive = np.concatenate((starts[keep.any(axis=0)], alive[starts.size:]))
        if t <= n - min_size:
            candidate[:, t] = True
            alive = np.append(alive, t)

    segs = []
    for p in rows:
        breakpoints: list[int] = []
        t = n
        while t > 0:
            s = int(prev[p, t])
            if s > 0:
                breakpoints.append(s)
            t = s
        segs.append(Segmentation(tuple(reversed(breakpoints)), float(F[p, n])))
    return _as_given(penalty, segs)


def binseg(signal: np.ndarray | CostCache, cost: SegmentCost | None = None,
           penalty: float | Sequence[float] = 1.0,
           min_size: int = 1) -> Segmentation | list[Segmentation]:
    """Greedy recursive splitting; a split is kept only if its gain exceeds the penalty.

    A segment's best split does not depend on the penalty, so the split
    tree is grown once, at the smallest penalty of a sequence. A split
    survives a penalty iff its gain and the gains of all the splits above
    it exceed that penalty.
    """
    cache, penalties = _penalized(signal, cost, penalty, min_size)
    n = cache.n
    lowest = penalties.min()
    splits: list[tuple[int, float]] = []  # (cut, least gain from the root down to it)
    pending = [(0, n, np.inf)]
    while pending:
        a, b, above = pending.pop()
        if b - a < 2 * min_size:
            continue
        whole = cache.value(a, b)
        cuts = np.arange(a + min_size, b - min_size + 1)
        both = cache.values(cuts, b) + cache.values(np.full(cuts.size, a), cuts)
        best = int(np.argmin(both))  # smallest index on ties
        gain = whole - both[best]
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
    cheapest merge first costs more than it.
    """
    cache, penalties = _penalized(signal, cost, penalty, min_size)
    n = cache.n
    bps = list(range(min_size, n, min_size))
    if bps and n - bps[-1] < min_size:
        bps.pop()

    def merge_deltas(idx: list[int]) -> list[float]:
        """The cost change of removing breakpoint bps[i], for each i in idx."""
        bounds = [0, *bps, n]
        left = [bounds[i] for i in idx]
        mid = [bounds[i + 1] for i in idx]
        right = [bounds[i + 2] for i in idx]
        costs = cache.values(np.array(left + left + mid), np.array(right + mid + right))
        merged, lhs, rhs = costs.reshape(3, -1)
        return (merged - lhs - rhs).tolist()

    deltas = merge_deltas(list(range(len(bps))))
    found: list[tuple[int, ...]] = [()] * penalties.size
    ascending = np.argsort(penalties, kind="stable").tolist()
    while ascending and bps:
        best = int(np.argmin(deltas))  # smallest breakpoint on ties
        if deltas[best] > penalties[ascending[0]]:
            found[ascending.pop(0)] = tuple(bps)
            continue
        bps.pop(best)
        deltas.pop(best)
        # removing a breakpoint only changes its neighbors' merge costs
        idx = [i for i in (best - 1, best) if 0 <= i < len(bps)]
        for i, delta in zip(idx, merge_deltas(idx)):
            deltas[i] = delta

    return _as_given(penalty, _penalized_segmentations(cache, found, penalties))


def kcpd(signal: np.ndarray | CostCache, penalty: float | Sequence[float] = 1.0,
         min_size: int = 1, kernel: SegmentCost | None = None,
         ) -> Segmentation | list[Segmentation]:
    """Kernel change-point detection: the exact dynamic program over the rbf
    cost, with :func:`pelt`'s penalty forms."""
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

    Computed with O(1)-updated sliding dot products along diagonals,
    O(n^2) overall.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if m < 2:
        raise ValueError("subsequence length m must be >= 2")
    excl = (m + 1) // 2  # ceil(m / 2)
    if n < m + excl + 1:
        raise ValueError(f"series of length {n} too short for m={m} "
                         f"(needs at least {m + excl + 1})")
    n_sub = n - m + 1

    # center the whole series (z-normalized distances are shift-invariant)
    # so the streaming dot products stay well conditioned, and take window
    # moments from a sliding view, which is exact where cumsums cancel.
    x = x - x.mean()
    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    mu = windows.mean(axis=1)
    sigma = windows.std(axis=1)
    degen = sigma < DEGENERATE_STD

    profile = np.full(n_sub, np.inf)
    index = np.zeros(n_sub, dtype=int)
    sqrt_m = np.sqrt(m)

    for k in range(excl + 1, n_sub):
        # dot products of all subsequence pairs (i, i + k) in one cumsum
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
        one_degen = degen[i] ^ degen[j]
        d[one_degen] = sqrt_m
        d[degen[i] & degen[j]] = 0.0

        upd = d < profile[i]  # keep first (smallest) j on ties
        profile[i[upd]] = d[upd]
        index[i[upd]] = j[upd]
        upd = d <= profile[j]  # later candidates have smaller i: replace on ties
        profile[j[upd]] = d[upd]
        index[j[upd]] = i[upd]

    return profile, index


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
    x = _window_samples(window, config.znorm, memo)
    key = workspace_key(config)
    if config.method == "FLUSS":
        n = x.shape[0]
        excl = (config.m + 1) // 2
        if n < config.m + excl + 1:
            return None, 1.0
        if key not in memo:
            memo[key] = _fluss_curves(x, config.m)
        curves = memo[key]
        if config.channel_rule == "sum":
            curves = [np.mean(curves, axis=0)]
        pos, val = _fluss_best(curves)
        return (pos if val < config.threshold else None), val
    if key not in memo:
        memo[key] = CostCache(x, config.cost)
    solves = memo.setdefault(_solve_key(config), {})
    if solves.get(config.penalty) is None:
        # the first config of a solve key on a window solves every penalty
        # noted for it (see share_solves), its own among them
        solves[config.penalty] = None
        todo = [p for p, seg in solves.items() if seg is None]
        cache = memo[key]
        if config.method == "BINSEG":
            segs = binseg(cache, config.cost, todo, config.min_size)
        elif config.method == "BOTTOMUP":
            segs = bottomup(cache, config.cost, todo, config.min_size)
        elif config.method == "PELT":
            segs = pelt(cache, config.cost, todo, config.min_size)
        else:
            segs = kcpd(cache, todo, config.min_size, config.cost)
        solves.update(zip(todo, segs))
    seg = solves[config.penalty]
    if seg.breakpoints:
        return seg.breakpoints[-1], float(len(seg.breakpoints))
    return None, 0.0


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
