"""Spans around the calls between maintseg's layers, recorded from outside.

Inside ``with installed(tracer):`` public functions are replaced in the
namespaces of the modules that call them (``maintseg.protocol.detect`` is
the detector as the protocol sees it, ``maintseg.detectors.CostCache`` the
cost cache as the detectors see it); leaving the block puts the originals
back. Nothing in ``src/`` changes.

Calls that happen at most a few thousand times per round are spans: name,
start, end and parent, kept in memory and written out once at the end.
Calls made per segment or per record (cost queries, scoring, timestamp
parsing, z-normalization) would need millions of spans, so they are leaf
timers instead: their calls, seconds and units are summed into the span
that encloses them, which is enough to subtract them from its self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from maintseg import costs, detectors, ingest, protocol, sweep

SEGMENT_METHODS = ("PELT", "BINSEG", "BOTTOMUP", "KCPD")
COST_KINDS = ("l1", "l2", "normal", "rbf")


def _layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in the order they are reported."""
    units = {f"ingest.{k}": u for k, u in (
        ("parse_s", "s"), ("build_cycles_s", "s"), ("save_load_s", "s"), ("stats_s", "s"),
        ("rows", "count"), ("malformed", "count"), ("infected_removed", "count"))}
    for kind in COST_KINDS:
        units.update({f"costs.precompute_s.{kind}": "s", f"costs.tables.{kind}": "count",
                      f"costs.query_s.{kind}": "s", f"costs.segments.{kind}": "count"})
    for method in SEGMENT_METHODS:
        for kind in ("rbf",) if method == "KCPD" else COST_KINDS:
            units[f"detectors.solve_s.{method}.{kind}"] = "s"
        units[f"detectors.calls.{method}"] = "count"
    units.update({
        "detectors.matrix_profile_s": "s", "detectors.matrix_profile_calls": "count",
        "detectors.fluss_cac_s": "s", "detectors.matrix_profile_distinct_share": "share",
        "core.znormalize_s": "s", "core.znormalize_calls": "count",
        "protocol.replay_s": "s", "protocol.windows": "count",
        "protocol.windows_per_pair": "windows/pair",
        "protocol.pair_s.p50": "s", "protocol.pair_s.p99": "s",
        "metrics.score_s": "s",
        "sweep.load_s": "s", "sweep.summary_s": "s", "sweep.save_s": "s", "sweep.overhead_s": "s",
        "trace.overhead_s": "s", "trace.untraced_s": "s",
    })
    return units


LAYER_UNITS = _layer_units()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.leaves: dict[tuple[int, str], list] = {}  # (span, name) -> [calls, seconds, units]
        self.mp_keys: set = set()  # distinct (cycle, window end, channel, m) profiled
        self.window = None  # (cycle key, window end) of the detector call in progress
        self.channel = 0  # matrix profiles computed so far in that call
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def leaf(self, name: str, seconds: float, units: int = 1) -> None:
        key = (self._stack[-1] if self._stack else -1, name)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds, units]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += units

    def write(self, path: Path, meta: dict) -> None:
        """One JSON line of metadata, then one per span and one per leaf total."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for (span, name), (calls, seconds, units) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "span": span, "calls": calls,
                                     "seconds": seconds, "units": units}) + "\n")


def _span(tracer: Tracer, fn, name):
    """Wrap ``fn`` in a span; ``name`` is a string or a function of the call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _leaf(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - t0)
    return wrapper


def _solve_name(method: str):
    def name(signal, cost=None, *args, **kwargs):
        kind = kwargs.get("cost", cost)
        return f"detectors.solve.{method}.{kind.kind if kind is not None else 'l2'}"
    return name


def _traced_cost_cache(tracer: Tracer, base):
    """The detectors' CostCache with a span around the table build and leaf
    timers on segment queries; a ``values`` call that falls back to
    ``value`` per start is timed once, as one query of len(starts) segments."""
    names = {k: (f"costs.precompute.{k}", f"costs.query.{k}") for k in COST_KINDS}

    class TracedCostCache(base):
        def __init__(self, signal, spec=None):
            self._names = names[(spec or costs.SegmentCost()).kind]
            self._busy = False
            idx = tracer.begin(self._names[0])
            try:
                super().__init__(signal, spec)
            finally:
                tracer.end(idx)

        def value(self, a, b):
            if self._busy:
                return super().value(a, b)
            self._busy = True
            t0 = time.perf_counter()
            try:
                return super().value(a, b)
            finally:
                self._busy = False
                tracer.leaf(self._names[1], time.perf_counter() - t0, 1)

        def values(self, starts, b):
            self._busy = True
            t0 = time.perf_counter()
            try:
                return super().values(starts, b)
            finally:
                self._busy = False
                tracer.leaf(self._names[1], time.perf_counter() - t0, len(starts))

    TracedCostCache.__name__ = TracedCostCache.__qualname__ = base.__name__
    return TracedCostCache


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, replacement) for every traced call site."""

    def detect(window, config):
        tracer.window = (window.cycle.key, window.end_index)
        tracer.channel = 0
        return orig_detect(window, config)

    def matrix_profile(series, m):
        tracer.mp_keys.add((tracer.window, tracer.channel, m))
        tracer.channel += 1
        return orig_mp(series, m)

    orig_detect, orig_mp = protocol.detect, detectors.matrix_profile
    out = [
        (protocol, "detect", _span(tracer, functools.wraps(orig_detect)(detect),
                                   "detectors.detect")),
        (detectors, "matrix_profile", _span(tracer, functools.wraps(orig_mp)(matrix_profile),
                                            "detectors.matrix_profile")),
        (detectors, "fluss_cac", _leaf(tracer, detectors.fluss_cac, "detectors.fluss_cac")),
        (detectors, "znormalize", _leaf(tracer, detectors.znormalize, "core.znormalize")),
        (detectors, "CostCache", _traced_cost_cache(tracer, detectors.CostCache)),
        (detectors, "kcpd", _span(tracer, detectors.kcpd, "detectors.solve.KCPD.rbf")),
        (sweep, "run_streaming", _span(tracer, sweep.run_streaming, "protocol.run_streaming")),
        (sweep, "classify", _leaf(tracer, sweep.classify, "metrics.classify")),
        (sweep, "e_score", _leaf(tracer, sweep.e_score, "metrics.e_score")),
        (sweep, "best_average_config", _span(tracer, sweep.best_average_config,
                                             "metrics.best_average_config")),
        (sweep, "best_per_sample", _span(tracer, sweep.best_per_sample,
                                         "metrics.best_per_sample")),
        (ingest, "parse_timestamp", _leaf(tracer, ingest.parse_timestamp,
                                          "core.parse_timestamp")),
    ]
    for method in ("pelt", "binseg", "bottomup"):
        out.append((detectors, method, _span(tracer, getattr(detectors, method),
                                             _solve_name(method.upper()))))
    for module, names in ((sweep, ("run_sweep", "save_results", "load_results", "rescore",
                                   "sweep_summary")),
                          (ingest, ("parse_event_log", "remove_infected", "resample",
                                    "build_features", "build_cycles", "save_cycle",
                                    "load_cycle", "load_cycles", "dataset_stats"))):
        prefix = module.__name__.split(".")[-1]
        for name in names:
            out.append((module, name, _span(tracer, getattr(module, name), f"{prefix}.{name}")))
    return out


class installed:
    """Context manager: the tracer's patches are in place inside the block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module, attr, replacement in _patches(self.tracer):
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Reduce spans and leaf totals to the per-layer metrics, per round.

    Self time is a span's duration minus its child spans and its leaf
    timers. Layers a workload does not exercise read 0.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    leaf_in = [0.0] * len(spans)
    leaf_tot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for (span, name), (calls, seconds, units) in tracer.leaves.items():
        if span >= 0:
            leaf_in[span] += seconds
        tot = leaf_tot[name]
        tot[0] += calls
        tot[1] += seconds
        tot[2] += units

    total: dict[str, float] = defaultdict(float)  # inclusive seconds by span name
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i] - leaf_in[i]
        calls[name] += 1
    pair_s = [dur[i] for i, s in enumerate(spans) if s[0] == "protocol.run_streaming"]
    r = max(rounds, 1)
    m: dict[str, float] = {}

    m["ingest.parse_s"] = total["ingest.parse_event_log"] / r
    m["ingest.build_cycles_s"] = total["ingest.build_cycles"] / r
    m["ingest.save_load_s"] = (total["ingest.save_cycle"] + total["ingest.load_cycles"]) / r
    m["ingest.stats_s"] = total["ingest.dataset_stats"] / r

    for kind in COST_KINDS:
        m[f"costs.precompute_s.{kind}"] = total[f"costs.precompute.{kind}"] / r
        m[f"costs.tables.{kind}"] = calls[f"costs.precompute.{kind}"] / r
        q = leaf_tot[f"costs.query.{kind}"]
        m[f"costs.query_s.{kind}"] = q[1] / r
        m[f"costs.segments.{kind}"] = q[2] / r

    for method in SEGMENT_METHODS:
        kinds = ("rbf",) if method == "KCPD" else COST_KINDS
        for kind in kinds:
            m[f"detectors.solve_s.{method}.{kind}"] = self_s[f"detectors.solve.{method}.{kind}"] / r
        m[f"detectors.calls.{method}"] = sum(
            calls[f"detectors.solve.{method}.{k}"] for k in kinds) / r
    mp_calls = calls["detectors.matrix_profile"]
    m["detectors.matrix_profile_s"] = total["detectors.matrix_profile"] / r
    m["detectors.matrix_profile_calls"] = mp_calls / r
    m["detectors.fluss_cac_s"] = leaf_tot["detectors.fluss_cac"][1] / r
    # rounds repeat the same inputs, so the distinct keys are those of one round
    m["detectors.matrix_profile_distinct_share"] = (
        len(tracer.mp_keys) / (mp_calls / r) if mp_calls else 0.0)

    m["core.znormalize_s"] = leaf_tot["core.znormalize"][1] / r
    m["core.znormalize_calls"] = leaf_tot["core.znormalize"][0] / r

    pairs = calls["protocol.run_streaming"]
    windows = calls["detectors.detect"]
    m["protocol.replay_s"] = total["protocol.run_streaming"] / r
    m["protocol.windows"] = windows / r
    m["protocol.windows_per_pair"] = windows / pairs if pairs else 0.0
    m["protocol.pair_s.p50"] = _quantile(pair_s, 0.50)
    m["protocol.pair_s.p99"] = _quantile(pair_s, 0.99)

    m["metrics.score_s"] = (leaf_tot["metrics.classify"][1] + leaf_tot["metrics.e_score"][1]) / r

    m["sweep.save_s"] = total["sweep.save_results"] / r
    m["sweep.load_s"] = total["sweep.load_results"] / r
    m["sweep.summary_s"] = total["sweep.sweep_summary"] / r
    # run_sweep's own time: fingerprint, task list, per-record writes, sort
    m["sweep.overhead_s"] = self_s["sweep.run_sweep"] / r
    return m


def top_level_seconds(tracer: Tracer, since: int = 0) -> float:
    """Summed duration of the spans without a parent, from span ``since`` on."""
    return sum(end - start for _, start, end, parent in tracer.spans[since:] if parent < 0)
