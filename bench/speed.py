"""A speed probe that scales wall times to a reference machine speed.

The shared host this benchmark runs on changes speed by up to a factor of
two for tens of seconds at a time: the same round of ``grid-daily`` took
between 2.6 s and 5.2 s within a few minutes. Such drift sets the spread
of any wall-clock figure, whatever the program does.

A daemon thread runs a fixed pure-Python loop every 50 ms and records the
loop's own CPU time (``time.thread_time``, so waiting for the GIL or for a
CPU does not count). That CPU time follows the machine's speed: over 49
rounds of ``grid-daily`` its mean per round correlated at 0.96 with the
round's wall time. A wall interval scaled by ``PROBE_REF_S`` over the mean
probe time in that interval is the time the interval would have taken on a
machine where one probe takes ``PROBE_REF_S`` seconds. The probe costs
about 1.5% of one CPU, the same on every commit. It calls nothing in
maintseg, so a change to the program moves the scaled figures as much as
it moves the wall-clock ones.
"""

from __future__ import annotations

import statistics
import threading
import time

PROBE_EVERY_S = 0.05
PROBE_REF_S = 1e-3  # CPU seconds of one probe on the reference machine
PROBE_LOOPS = 3000


def probe_work() -> float:
    """The fixed work one probe times: dict updates and float arithmetic."""
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc += (i * 0.5) % 3.0
    return acc


class SpeedProbe:
    """``with SpeedProbe() as probe:`` samples the machine's speed until the
    block ends; ``probe.scale(start, end)`` turns wall seconds between two
    ``time.perf_counter()`` readings into reference seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            wall, cpu = time.perf_counter(), time.thread_time()
            probe_work()
            self.samples.append((wall, time.thread_time() - cpu))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second between ``start`` and ``end``:
        the mean probe CPU time there (or, if no probe started there, that of
        the probe nearest to the interval's middle) against ``PROBE_REF_S``."""
        samples = list(self.samples)
        inside = [cpu for wall, cpu in samples if start <= wall < end]
        if not inside:
            if not samples:
                raise RuntimeError("the speed probe has no sample yet")
            middle = (start + end) / 2
            inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        return PROBE_REF_S / statistics.mean(inside)
