"""Streaming first-alert evaluation: grow each cycle in fixed steps, stop at
the first alert, and classify the outcome against the business intervals.

Only the first alert counts; in the field a raised alert triggers
maintenance, which makes any later alert for the same cycle worthless.

:func:`replay` is the one replay loop. It walks a cycle's windows once for
a whole list of configs, so every config still running on a window shares
that window's memo (see :class:`~maintseg.core.Window`), and the penalties
of those configs that share a solver, cost and min_size are solved together.
The tables that depend on the cycle alone are kept in one memo for all the
cycle's windows; the tables and segmentations that one batched PELT solve
makes ahead for a later window go into that window's own memo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .core import LifeCycle, Window, prefix_windows
from .detectors import DetectorConfig, detect, detect_with_score, share_solves

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


Detector = Callable[[Window, DetectorConfig], Optional[int]]


def replay(cycle: LifeCycle, configs: Sequence[DetectorConfig], step: int = 7,
           alert_at: str = "window-end", detector: Optional[Detector] = None,
           ) -> list[Union[Alert, None, Exception]]:
    """Evaluate growing prefix windows in order; each config stops at its
    first alert.

    At each window end every config that has not fired yet is detected, in
    the given order. Returns one outcome per config: its first
    :class:`Alert`, None when no window fired, or the exception its
    detection raised (which stops that config only). ``detector`` replaces
    the default dispatch, for instrumentation.

    The windows share a cycle memo. A PELT or KCPD solve at one window
    also solves later windows in the same column walk, up to the window by
    which its configs have all fired, and writes their segmentations and
    tables into their memos. The segmenters whose tables depend on the
    cycle alone (``detectors.cycle_level``) read prefixes of one set of
    tables, kept in the cycle memo, so their first solve covers every
    window; for the others, a solve on the i-th window covers the windows
    up to the 2i-th, within a stated memory budget. Each window's memo is
    cleared once the window is done, and the cycle memo, with what it
    holds for the windows not reached, when the replay returns or raises.
    """
    if alert_at not in ALERT_TIMINGS:
        raise ValueError(f"alert_at must be one of {ALERT_TIMINGS}")
    run = detector or detect
    outcomes: list[Union[Alert, None, Exception]] = [None] * len(configs)
    running = list(range(len(configs)))
    cycle_memo: dict = {}
    try:
        for window in prefix_windows(cycle, step, cycle_memo):
            end = window.end_index
            share_solves(window, [configs[i] for i in running])
            for i in running:
                try:
                    cp = run(window, configs[i])
                    if cp is not None:
                        cp = int(cp)
                        outcomes[i] = Alert(step_end_index=end, change_point_index=cp,
                                            a=end if alert_at == "window-end" else cp)
                except Exception as exc:  # the other configs go on
                    outcomes[i] = exc
            window._memo.clear()
            running = [i for i in running if outcomes[i] is None]
            if not running:  # before the next window, which may hold tables
                break
    finally:  # the windows and the cycle memo link each other; a traceback may hold them
        cycle_memo.clear()
    return outcomes


def run_streaming(cycle: LifeCycle, config: DetectorConfig, step: int = 7,
                  alert_at: str = "window-end", detector: Optional[Detector] = None,
                  ) -> Optional[Alert]:
    """:func:`replay` of one config: its first alert, or None when no
    window fires. A failed detection raises."""
    (outcome,) = replay(cycle, [config], step, alert_at, detector)
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
    """:func:`run_streaming` with one trace row per evaluated window
    (so len(trace) = windows evaluated)."""
    trace: list[WindowTrace] = []

    def recording(window: Window, cfg: DetectorConfig) -> Optional[int]:
        cp, score = detect_with_score(window, cfg)
        trace.append(WindowTrace(window.end_index, cp is not None, cp, score))
        return cp

    return run_streaming(cycle, config, step, alert_at, detector=recording), trace


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
