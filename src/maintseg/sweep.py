"""Parameter-grid expansion and the parallel (cycle x config) evaluation run.

The work unit is one (cycle, family) task: the configs of one
``detectors.workspace_key`` (segmenters of one cost label and znorm setting,
FLUSS configs of one m and znorm setting) replayed together over the
cycle's windows, so they share each window's cost tables or FLUSS curves.
Records are still one per (cycle, config) pair and failures are recorded
per pair. Results are appended to disk as each task finishes so an
interrupted run can be resumed by skipping completed pairs, and the final
table is canonically sorted so output is identical at any worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .core import BusinessParams, LifeCycle
from .costs import cost_from_label
from .detectors import METHODS, DetectorConfig, workspace_key
from .metrics import EvaluationRecord, best_average_config, best_per_sample, e_score
# run_streaming is not called here; bench/tracing.py times it under this name
from .protocol import ALERT_TIMINGS, Alert, Verdict, classify, replay, run_streaming  # noqa: F401

__all__ = [
    "GridSpecError",
    "MethodGrid",
    "GridSpec",
    "build_grid",
    "default_grid",
    "ResultsTable",
    "SweepFailure",
    "run_sweep",
    "rescore",
    "score_alert",
    "sweep_summary",
    "corpus_fingerprint",
    "save_results",
    "load_results",
    "RESULT_COLUMNS",
]

log = logging.getLogger("maintseg.sweep")

RESULT_COLUMNS = ("atm_id", "cycle_index", "config_id", "verdict",
                  "step_end_index", "change_point_index", "a", "n", "e_score")

# innermost traceback frames kept in a failure's reason
TRACEBACK_FRAMES = 4


class GridSpecError(ValueError):
    """The grid spec expands to duplicate config identifiers."""


@dataclass(frozen=True)
class MethodGrid:
    """Parameter lists for one method; cartesian expansion yields its configs."""

    costs: tuple[str, ...] = ()
    penalties: tuple[float, ...] = ()
    thresholds: tuple[float, ...] = ()
    ms: tuple[int, ...] = ()
    min_sizes: tuple[int, ...] = ()
    znorm: tuple[bool, ...] = (False, True)
    channel_rules: tuple[str, ...] = ("any",)


@dataclass(frozen=True)
class GridSpec:
    methods: dict[str, MethodGrid] = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        doc = json.loads(text)
        methods = {}
        for method, params in doc.items():
            methods[method] = MethodGrid(
                costs=tuple(params.get("costs", ())),
                penalties=tuple(params.get("penalties", ())),
                thresholds=tuple(params.get("thresholds", ())),
                ms=tuple(params.get("ms", ())),
                min_sizes=tuple(params.get("min_sizes", ())),
                znorm=tuple(params.get("znorm", (False, True))),
                channel_rules=tuple(params.get("channel_rules", ("any",))),
            )
        return cls(methods=methods)

    def to_json(self) -> str:
        doc = {}
        for method, g in self.methods.items():
            entry: dict = {"znorm": list(g.znorm)}
            if method == "FLUSS":
                entry.update(thresholds=list(g.thresholds), ms=list(g.ms),
                             channel_rules=list(g.channel_rules))
            else:
                entry.update(costs=list(g.costs), penalties=list(g.penalties),
                             min_sizes=list(g.min_sizes))
            doc[method] = entry
        return json.dumps(doc, indent=2)


def build_grid(spec: GridSpec) -> list[DetectorConfig]:
    """Expand a grid spec into configs, ordered by method then parameters.

    Raises :class:`GridSpecError` if two expansions share an identifier.
    """
    configs: list[DetectorConfig] = []
    for method in METHODS:
        if method not in spec.methods:
            continue
        g = spec.methods[method]
        if method == "FLUSS":
            for tau, m, zn, rule in itertools.product(
                    g.thresholds, g.ms, g.znorm, g.channel_rules):
                configs.append(DetectorConfig(
                    method=method, threshold=float(tau), m=int(m),
                    znorm=bool(zn), channel_rule=rule))
        else:
            for cost_label, pen, ms, zn in itertools.product(
                    g.costs, g.penalties, g.min_sizes, g.znorm):
                configs.append(DetectorConfig(
                    method=method, cost=cost_from_label(cost_label),
                    penalty=float(pen), min_size=int(ms), znorm=bool(zn)))
    ids = [c.config_id for c in configs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise GridSpecError(f"duplicate config identifiers: {dupes[:3]}")
    return configs


def default_grid() -> GridSpec:
    """The shipped default grid (~250-350 configs per method)."""
    text = resources.files("maintseg").joinpath("data/default_grid.json").read_text()
    return GridSpec.from_json(text)


@dataclass(frozen=True)
class SweepFailure:
    atm_id: str
    cycle_index: int
    config_id: str
    reason: str


@dataclass
class ResultsTable:
    """All evaluation records of one sweep plus run provenance."""

    records: list[EvaluationRecord]
    config_ids: tuple[str, ...]
    fingerprint: str
    params: BusinessParams
    step: int
    alert_at: str
    period_hours: float
    version: str = __version__
    failures: list[SweepFailure] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    def sort(self) -> None:
        self.records.sort(key=lambda r: (r.atm_id, r.cycle_index, r.config_id))


def corpus_fingerprint(cycles: Sequence[LifeCycle]) -> str:
    """Content hash of a cycle corpus, stable across save/load round-trips."""
    h = hashlib.sha256()
    for c in sorted(cycles, key=lambda c: c.key):
        h.update(repr((c.atm_id, c.cycle_index, c.period,
                       c.feature_names, c.ended_in_failure)).encode())
        h.update(c.samples.tobytes())
    return h.hexdigest()


def score_alert(atm_id: str, cycle_index: int, config_id: str, alert: Optional[Alert],
                n: int, params: BusinessParams, period_hours: float) -> EvaluationRecord:
    """Turn one cycle's first alert (or None) into its verdict, score and record."""
    rd_s, pp_s = params.to_samples(period_hours)
    verdict = classify(alert, n, pp_s, rd_s)
    e = e_score(alert.a if alert else None, n, pp_s, rd_s, params.s)
    return EvaluationRecord(atm_id=atm_id, cycle_index=cycle_index, config_id=config_id,
                            verdict=verdict, alert=alert, e=e, n=n, params=params)


def _failure_reason(exc: BaseException) -> str:
    """repr(exc) and the innermost traceback frames, formatted where the
    traceback still exists (it does not survive the process pool). Frames
    name the file, not its path, so the reason is the same in any checkout."""
    frames = traceback.extract_tb(exc.__traceback__)[-TRACEBACK_FRAMES:]
    return "\n".join([repr(exc), *(f"  {Path(f.filename).name}:{f.lineno} in {f.name}: {f.line}"
                                    for f in frames)])


def _evaluate_family(task) -> list[EvaluationRecord | str]:
    """One cycle replayed under one family of configs: a record per config,
    or the reason its pair failed."""
    cycle, configs, params, step, alert_at = task
    out: list[EvaluationRecord | str] = []
    for config, alert in zip(configs, replay(cycle, configs, step, alert_at)):
        try:
            if isinstance(alert, Exception):
                raise alert
            out.append(score_alert(cycle.atm_id, cycle.cycle_index, config.config_id,
                                   alert, cycle.n, params, cycle.period))
        except Exception as exc:  # recorded, not fatal for the run
            out.append(_failure_reason(exc))
    return out


def run_sweep(cycles: Sequence[LifeCycle], configs: Sequence[DetectorConfig],
              params: BusinessParams, step: int = 7, workers: int = 1,
              alert_at: str = "window-end",
              results_path: Optional[Path] = None) -> ResultsTable:
    """Evaluate every (cycle, config) pair through the streaming protocol.

    Deterministic regardless of worker count (records come back canonically
    sorted). With ``results_path`` records are persisted incrementally and a
    partially written file is resumed instead of recomputed. A failing pair
    is recorded with its reason and the run continues; more than 1% failed
    pairs is reported as a run-level error summary.
    """
    if not cycles:
        raise ValueError("no cycles to evaluate")
    if step < 1:
        raise ValueError("step must be >= 1")
    if alert_at not in ALERT_TIMINGS:
        raise ValueError(f"alert_at must be one of {ALERT_TIMINGS}")
    period_hours = cycles[0].period
    if any(c.period != period_hours for c in cycles):
        raise ValueError("cycles must share one resampling period")
    table = ResultsTable(records=[], config_ids=tuple(c.config_id for c in configs),
                         fingerprint=corpus_fingerprint(cycles), params=params,
                         step=step, alert_at=alert_at, period_hours=period_hours)

    done: dict[tuple[str, int, str], EvaluationRecord] = {}
    results_path = None if results_path is None else Path(results_path)
    resuming = (results_path is not None and results_path.exists()
                and _cut_torn_tail(results_path))
    if resuming:
        prior = load_results(results_path, params=params)
        if (prior.params, prior.step, prior.alert_at) != (params, step, alert_at):
            raise ValueError("existing results were produced under different settings")
        if prior.fingerprint and prior.fingerprint != table.fingerprint:
            raise ValueError("existing results belong to a different cycle corpus")
        done = {(r.atm_id, r.cycle_index, r.config_id): r for r in prior.records}
        log.info("resuming: %d of %d pairs already done", len(done),
                 len(cycles) * len(configs))

    tasks = []
    for cycle in sorted(cycles, key=lambda c: c.key):
        families: dict[tuple, list[DetectorConfig]] = {}
        for config in configs:
            if (cycle.atm_id, cycle.cycle_index, config.config_id) not in done:
                families.setdefault(workspace_key(config), []).append(config)
        tasks.extend((cycle, family, params, step, alert_at) for family in families.values())

    sink = None
    if results_path is not None:
        results_path.parent.mkdir(parents=True, exist_ok=True)
        # the sidecar goes first, so an interrupted file still names its
        # corpus and settings when it is resumed
        _write_meta(table, results_path)
        sink = open(results_path, "a" if resuming else "w", encoding="utf-8", newline="")
        if not resuming:
            sink.write(",".join(RESULT_COLUMNS) + "\n")

    records = list(done.values())
    failures: list[SweepFailure] = []
    total = sum(len(task[1]) for task in tasks)
    finished, tenth = 0, max(total // 10, 1)
    try:
        for (cycle, family, *_), outcomes in zip(tasks, _run_tasks(tasks, workers)):
            for config, outcome in zip(family, outcomes):
                if isinstance(outcome, str):
                    failures.append(SweepFailure(cycle.atm_id, cycle.cycle_index,
                                                 config.config_id, outcome))
                    continue
                records.append(outcome)
                if sink is not None:
                    sink.write(_csv_line(outcome))
            if sink is not None:
                sink.flush()
            before, finished = finished, finished + len(family)
            if total >= 20 and before // tenth < finished // tenth:
                log.info("sweep progress: %d/%d pairs", finished, total)
    finally:
        if sink is not None:
            sink.close()

    # failures in (cycle, config) order, whatever the families' order
    position = {config_id: i for i, config_id in enumerate(table.config_ids)}
    failures.sort(key=lambda f: (f.atm_id, f.cycle_index, position[f.config_id]))
    table.records = records
    table.failures = failures
    table.sort()
    if failures:
        frac = len(failures) / max(len(cycles) * len(configs), 1)
        level = logging.ERROR if frac > 0.01 else logging.WARNING
        log.log(level, "sweep finished with %d failed pairs (%.2f%%); first: %s",
                len(failures), 100 * frac, failures[0])
    if results_path is not None:
        save_results(table, results_path)
    return table


def _run_tasks(tasks, workers: int) -> Iterable:
    if workers <= 1:
        for task in tasks:
            yield _evaluate_family(task)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_evaluate_family, tasks, chunksize=1)


def _csv_line(r: EvaluationRecord) -> str:
    if "," in r.atm_id:
        raise ValueError(f"atm_id {r.atm_id!r} may not contain commas")
    if r.alert is None:
        step_end = cp = a = ""
    else:
        step_end, cp, a = r.alert.step_end_index, r.alert.change_point_index, r.alert.a
    return (f"{r.atm_id},{r.cycle_index},{r.config_id},{r.verdict.value},"
            f"{step_end},{cp},{a},{r.n},{r.e!r}\n")


def save_results(table: ResultsTable, path) -> None:
    """Write the records CSV (stable column order) plus a metadata sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table.sort()
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for r in table.records:
            fh.write(_csv_line(r))
    os.replace(tmp, path)
    _write_meta(table, path)


def _write_meta(table: ResultsTable, path: Path) -> None:
    meta = {
        "config_ids": list(table.config_ids),
        "fingerprint": table.fingerprint,
        "params": {"rd": table.params.rd, "pp": table.params.pp,
                   "ii": table.params.ii, "s": table.params.s},
        "step": table.step,
        "alert_at": table.alert_at,
        "period_hours": table.period_hours,
        "version": table.version,
        "failures": [{"atm_id": f.atm_id, "cycle_index": f.cycle_index,
                      "config_id": f.config_id, "reason": f.reason}
                     for f in table.failures],
    }
    meta_path = _meta_path(path)
    tmp = meta_path.with_suffix(meta_path.suffix + ".tmp")
    tmp.write_text(json.dumps(meta, indent=2))
    os.replace(tmp, meta_path)


def _cut_torn_tail(path: Path) -> bool:
    """Truncate ``path`` after its last newline, dropping a last line that a
    kill cut short. Returns whether any complete line is left."""
    with open(path, "r+b") as fh:
        keep = fh.read().rfind(b"\n") + 1
        fh.truncate(keep)
    return keep > 0


def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def load_results(path, params: Optional[BusinessParams] = None) -> ResultsTable:
    """Read a results CSV (and its sidecar when present) back into a table."""
    path = Path(path)
    meta_path = _meta_path(path)
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    if "params" in meta:
        params = BusinessParams(**meta["params"])
    if params is None:
        raise ValueError("no metadata sidecar; pass the business params explicitly")

    records: list[EvaluationRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if tuple(header) != RESULT_COLUMNS:
            raise ValueError(f"unexpected results header {header}")
        for line in fh:
            if not line.endswith("\n"):
                continue  # a last record that a kill cut short
            line = line.rstrip("\n")
            if not line:
                continue
            atm_id, cyc, config_id, verdict, step_end, cp, a, n, e = line.split(",")
            alert = None
            if step_end != "":
                alert = Alert(step_end_index=int(step_end),
                              change_point_index=int(cp), a=int(a))
            records.append(EvaluationRecord(
                atm_id=atm_id, cycle_index=int(cyc), config_id=config_id,
                verdict=Verdict(verdict), alert=alert, e=float(e), n=int(n),
                params=params))
    table = ResultsTable(
        records=records,
        config_ids=tuple(meta.get("config_ids", sorted({r.config_id for r in records}))),
        fingerprint=meta.get("fingerprint", ""),
        params=params,
        step=int(meta.get("step", 7)),
        alert_at=meta.get("alert_at", "window-end"),
        period_hours=float(meta.get("period_hours", 24.0)),
        version=meta.get("version", __version__),
        failures=[SweepFailure(**f) for f in meta.get("failures", [])],
    )
    table.sort()
    return table


def rescore(records: Sequence[EvaluationRecord], params: BusinessParams,
            period_hours: float = 24.0) -> list[EvaluationRecord]:
    """Re-derive verdicts and scores from stored alerts under new params.

    The alert positions depend only on the detector and the protocol step,
    so metric parameters can be swept without re-running detectors.
    """
    return [score_alert(r.atm_id, r.cycle_index, r.config_id, r.alert, r.n, params,
                        period_hours) for r in records]


def sweep_summary(records: Sequence[EvaluationRecord], params: BusinessParams,
                  pp_list: Sequence[float], period_hours: float = 24.0) -> list[dict]:
    """Per-pp summary: each method's best average config and the informed
    per-cycle best, i.e. the data behind the metric-vs-padding curves."""
    entries = []
    for pp in pp_list:
        scored = rescore(records, replace(params, pp=pp), period_hours)
        by_method: dict[str, list[EvaluationRecord]] = {}
        for r in scored:
            by_method.setdefault(r.config_id.split("/")[0], []).append(r)
        methods = {}
        for method in sorted(by_method):
            config_id, agg = best_average_config(by_method[method])
            methods[method] = {"config_id": config_id, "mean_e": agg.mean_e,
                               "precision": agg.precision, "recall": agg.recall}
        best = best_per_sample(scored)
        entries.append({
            "pp": pp,
            "methods": methods,
            "best_per_sample_mean": best.mean_e,
            "best_average_mean": max(m["mean_e"] for m in methods.values()),
        })
    return entries
