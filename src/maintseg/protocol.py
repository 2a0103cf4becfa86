"""Streaming first-alert evaluation: grow each cycle in fixed steps, stop at
the first alert, and classify the outcome against the business intervals.

Only the first alert counts; in the field a raised alert triggers
maintenance, which makes any later alert for the same cycle worthless.

:func:`replay` walks a cycle's windows once for a whole list of configs,
grouped by solve key (``detectors.solve_key``): at each window every key
with configs still running makes one call, which reads the last breakpoint
under each of their penalties (or FLUSS's two channel rules' arc-curve
minima) and compares the whole penalty or threshold axis at once. Configs
that fire drop out of the arrays. :func:`run_streaming_trace` walks the
windows for one config with ``detectors.detect_with_score``, whose
per-window score needs each window's whole segmentation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import LifeCycle, prefix_windows
# detect is not called here; bench/tracing.py times the detector under this name
from .detectors import (DetectorConfig, _change_points, detect,  # noqa: F401
                        detect_with_score, solve_key)

__all__ = ["Alert", "Verdict", "ALERT_TIMINGS", "replay", "run_streaming",
           "run_streaming_trace", "classify", "WindowTrace"]

# a = window end (the moment the system could act) by default; the
# change-point reading is one flag away.
ALERT_TIMINGS = ("window-end", "changepoint")


@dataclass(frozen=True)
class Alert:
    """The first detection for a cycle.

    ``a`` is the alert time compared against the pp/rd boundaries, in
    samples from cycle start.
    """

    step_end_index: int
    change_point_index: int
    a: int

    def __post_init__(self) -> None:
        if not 0 <= self.change_point_index < self.step_end_index:
            raise ValueError("change point must precede the window end")


class Verdict(enum.Enum):
    TP = "TP"
    FP = "FP"
    FN = "FN"


def replay(cycle: LifeCycle, configs: Sequence[DetectorConfig], step: int = 7,
           alert_at: str = "window-end") -> list[Union[Alert, None, Exception]]:
    """Evaluate growing prefix windows in order; each config stops at its
    first alert. Returns one outcome per config: its first :class:`Alert`,
    None when no window fired, or the exception its solve key raised on a
    window (which stops that key's configs only).

    The windows share a cycle memo, which holds the tables that depend on
    the cycle alone (``detectors.cycle_level``). A PELT or KCPD solve at
    one window also solves later ones (see ``detectors._pelt_solve``) and puts
    their tables and last breakpoints in their memos. Each window's memo is
    cleared once the window is done, and the cycle memo, with what it holds
    for the windows not reached, when the replay returns or raises.
    """
    if alert_at not in ALERT_TIMINGS:
        raise ValueError(f"alert_at must be one of {ALERT_TIMINGS}")
    outcomes: list[Union[Alert, None, Exception]] = [None] * len(configs)
    keys: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        keys.setdefault(solve_key(config), []).append(i)
    # per key: one of its configs, and its running configs' indices,
    # penalties or thresholds, and whether their channel rule is "sum"
    running = [(family[0], np.array(ids),
                np.array([c.threshold if c.penalty is None else c.penalty for c in family]),
                np.array([c.channel_rule == "sum" for c in family]))
               for ids in keys.values() for family in [[configs[i] for i in ids]]]
    cycle_memo: dict = {}
    try:
        for window in prefix_windows(cycle, step, cycle_memo):
            end, left = window.end_index, []
            for config, ids, axis, sums in running:
                try:
                    cps = _change_points(window, config, axis, sums)
                except Exception as exc:  # the other keys go on
                    for i in ids.tolist():
                        outcomes[i] = exc
                    continue
                fired = cps >= 0
                for i, cp in zip(ids[fired].tolist(), cps[fired].tolist()):
                    outcomes[i] = Alert(end, cp, end if alert_at == "window-end" else cp)
                if not fired.all():
                    left.append((config, ids[~fired], axis[~fired], sums[~fired]))
            window._memo.clear()
            if not (running := left):  # before the next window, which may hold tables
                break
    finally:  # the windows and the cycle memo link each other; a traceback may hold them
        cycle_memo.clear()
    return outcomes


def run_streaming(cycle: LifeCycle, config: DetectorConfig, step: int = 7,
                  alert_at: str = "window-end") -> Optional[Alert]:
    """:func:`replay` of one config: its first alert, or None when no
    window fires. A failed detection raises."""
    (outcome,) = replay(cycle, [config], step, alert_at)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class WindowTrace:
    """Diagnostics for one evaluated window of the streaming run."""

    end_index: int
    fired: bool
    change_point: Optional[int]
    score: float


def run_streaming_trace(cycle: LifeCycle, config: DetectorConfig, step: int = 7,
                        alert_at: str = "window-end",
                        ) -> tuple[Optional[Alert], list[WindowTrace]]:
    """:func:`run_streaming` with one trace row per evaluated window (so
    len(trace) = windows evaluated), each detected by
    :func:`~maintseg.detectors.detect_with_score`, which solves a PELT or
    KCPD config over the replay's batches of windows."""
    if alert_at not in ALERT_TIMINGS:
        raise ValueError(f"alert_at must be one of {ALERT_TIMINGS}")
    trace: list[WindowTrace] = []
    cycle_memo: dict = {}
    try:
        for window in prefix_windows(cycle, step, cycle_memo):
            cp, score = detect_with_score(window, config)
            trace.append(WindowTrace(window.end_index, cp is not None, cp, score))
            window._memo.clear()
            if cp is not None:
                end = window.end_index
                return Alert(end, cp, end if alert_at == "window-end" else cp), trace
    finally:
        cycle_memo.clear()
    return None, trace


def classify(alert: Optional[Alert], n: float, pp: float, rd: float) -> Verdict:
    """Verdict for one cycle: TP if the first alert lands in
    [n-(pp+rd), n-rd), FP anywhere else, FN when no alert was raised.

    pp and rd are in samples. When n <= pp + rd the interval is clipped or
    empty and the inequalities still apply literally.
    """
    if alert is None:
        return Verdict.FN
    a = alert.a
    if n - (pp + rd) <= a < n - rd:
        return Verdict.TP
    return Verdict.FP
