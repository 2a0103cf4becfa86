"""Parameter-grid expansion and the parallel (cycle x config) evaluation run.

The work unit is one (cycle, family) task: the configs of one
``detectors.workspace_key`` (segmenters of one cost label and znorm setting,
FLUSS configs of one m and znorm setting) replayed together over the
cycle's windows, so they share each window's cost tables or FLUSS curves.
Records are still one per (cycle, config) pair and failures are recorded
per pair. Results are appended to disk as each task finishes, and the
final table is canonically sorted so output is identical at any worker
count. A results file and its ``.meta.json`` sidecar are one unit: an
interrupted run resumes only with its sidecar and the same corpus, grid
and settings, and another grid needs another results file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import traceback
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .core import BusinessParams, LifeCycle, csv_line, write_csv, write_json
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
    "shared_period",
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
    """A grid spec is malformed, expands to no config or expands to
    duplicate config identifiers."""


# the MethodGrid fields a grid spec may give for each method; all but
# znorm and channel_rules, which have defaults, must be given
GRID_FIELDS = {method: ("znorm", "thresholds", "ms", "channel_rules") if method == "FLUSS"
               else ("znorm", "costs", "penalties", "min_sizes") for method in METHODS}
_DEFAULTED = ("znorm", "channel_rules")

# the JSON type of each field's values; a bool, which Python counts as an
# int, is refused where a number is meant
_FIELD_TYPES = {"znorm": ("a boolean", bool), "costs": ("a string", str),
                "channel_rules": ("a string", str), "min_sizes": ("an integer", int),
                "ms": ("an integer", int), "penalties": ("a number", (int, float)),
                "thresholds": ("a number", (int, float))}


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
        """Raises :class:`GridSpecError` naming an unknown method or field,
        a missing or empty field (so that every method named expands to at
        least one config), or a value whose JSON type is not its field's.
        A spec that names no method is refused too."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or not all(isinstance(p, dict) for p in doc.values()):
            raise GridSpecError("a grid spec is a JSON object of method -> object of lists")
        if not doc:
            raise GridSpecError(f"grid spec names no method, expected some of {METHODS}")
        for method, params in doc.items():
            if method not in GRID_FIELDS:
                raise GridSpecError(f"grid spec: unknown method {method!r}, "
                                    f"expected one of {METHODS}")
            bad = [k for k, v in params.items()
                   if k not in GRID_FIELDS[method] or not isinstance(v, list)]
            if bad:
                raise GridSpecError(f"grid spec {method}: {bad[0]!r} is not one of its "
                                    f"lists {GRID_FIELDS[method]}")
            for key in GRID_FIELDS[method]:
                if key not in params and key not in _DEFAULTED:
                    raise GridSpecError(f"grid spec {method}: missing {key!r}")
                if params.get(key) == []:
                    raise GridSpecError(f"grid spec {method}: {key!r} is empty")
            for key, values in params.items():
                kind, types = _FIELD_TYPES[key]
                wrong = [v for v in values
                         if not isinstance(v, types) or isinstance(v, bool) != (types is bool)]
                if wrong:
                    raise GridSpecError(f"grid spec {method}: {key} value {wrong[0]!r} "
                                        f"is not {kind}")
        return cls({method: MethodGrid(**{k: tuple(v) for k, v in params.items()})
                    for method, params in doc.items()})


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
    text = resources.files("maintseg").joinpath("data/default_grid.json").read_text(
        encoding="utf-8")
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


def shared_period(cycles: Sequence[LifeCycle]) -> float:
    """The resampling period in hours that every cycle shares."""
    period_hours = cycles[0].period
    if any(c.period != period_hours for c in cycles):
        raise ValueError("cycles must share one resampling period")
    return period_hours


def run_sweep(cycles: Sequence[LifeCycle], configs: Sequence[DetectorConfig],
              params: BusinessParams, step: int = 7, workers: int = 1,
              alert_at: str = "window-end",
              results_path: Optional[Path] = None,
              on_start: Optional[Callable[[], None]] = None) -> ResultsTable:
    """Evaluate every (cycle, config) pair through the streaming protocol.

    Deterministic regardless of worker count (records come back canonically
    sorted). With ``results_path`` records are persisted incrementally, and
    an existing file is resumed if its sidecar's settings equal this run's.
    ``on_start`` is called once the arguments and any file to resume are
    accepted, before the first pair runs.
    A failing pair, or each pair of a task whose worker died, is recorded
    with its reason and the run continues; more than 1% failed pairs is
    reported as a run-level error summary.
    """
    if not cycles:
        raise ValueError("no cycles to evaluate")
    if not configs:
        raise ValueError("no configs to evaluate")
    if step < 1:
        raise ValueError("step must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if alert_at not in ALERT_TIMINGS:
        raise ValueError(f"alert_at must be one of {ALERT_TIMINGS}")
    period_hours = shared_period(cycles)
    table = ResultsTable(records=[], config_ids=tuple(c.config_id for c in configs),
                         fingerprint=corpus_fingerprint(cycles), params=params,
                         step=step, alert_at=alert_at, period_hours=period_hours)

    if results_path is not None:
        results_path = Path(results_path)
        if results_path.exists():
            prior = load_results(results_path)
            ours, theirs = _settings(table), _settings(prior)
            if ours["fingerprint"] != theirs["fingerprint"]:
                raise ValueError("existing results belong to a different cycle corpus")
            if ours != theirs:
                raise ValueError("existing results were produced under different settings: "
                                 + ", ".join(k for k in ours if ours[k] != theirs[k]))
            table.records = prior.records
            log.info("resuming: %d of %d pairs already done", len(table.records),
                     len(cycles) * len(configs))
        # the sidecar, then the records so far (without a torn last line);
        # from here on the run only appends
        save_results(table, results_path)
    if on_start is not None:
        on_start()

    done = {(r.atm_id, r.cycle_index, r.config_id) for r in table.records}
    tasks = []
    for cycle in sorted(cycles, key=lambda c: c.key):
        families: dict[tuple, list[DetectorConfig]] = {}
        for config in configs:
            if (cycle.atm_id, cycle.cycle_index, config.config_id) not in done:
                families.setdefault(workspace_key(config), []).append(config)
        tasks.extend((cycle, family, params, step, alert_at) for family in families.values())

    total = sum(len(task[1]) for task in tasks)
    finished, tenth = 0, max(total // 10, 1)
    sink = None if results_path is None else open(results_path, "a", encoding="utf-8",
                                                   newline="")
    try:
        for (cycle, family, *_), outcomes in zip(tasks, _run_tasks(tasks, workers)):
            for config, outcome in zip(family, outcomes):
                if isinstance(outcome, str):
                    table.failures.append(SweepFailure(cycle.atm_id, cycle.cycle_index,
                                                       config.config_id, outcome))
                    continue
                table.records.append(outcome)
                if sink is not None:
                    sink.write(csv_line(_row(outcome)))
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
    table.failures.sort(key=lambda f: (f.atm_id, f.cycle_index, position[f.config_id]))
    table.sort()
    if table.failures:
        frac = len(table.failures) / max(len(cycles) * len(configs), 1)
        level = logging.ERROR if frac > 0.01 else logging.WARNING
        log.log(level, "sweep finished with %d failed pairs (%.2f%%); first: %s",
                len(table.failures), 100 * frac, table.failures[0])
    if results_path is not None:
        save_results(table, results_path)
    return table


def _run_tasks(tasks, workers: int) -> Iterable:
    workers = min(workers, len(tasks))  # a pool forks all its workers up front
    if workers <= 1:
        for task in tasks:
            yield _evaluate_family(task)
        return
    # imported here: multiprocessing costs every ``import maintseg`` ~35 ms
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_evaluate_family, task) for task in tasks]
        try:
            for (_, family, *_), future in zip(tasks, futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    # a worker died before this task came back; tasks that
                    # finished on the other workers keep their records
                    outcome = [repr(exc)] * len(family)
                yield outcome
        finally:  # cancels the pending tasks if the caller stops early
            for future in futures:
                future.cancel()


def _row(r: EvaluationRecord) -> tuple:
    """A record's fields in ``RESULT_COLUMNS`` order; no alert is three
    empty fields."""
    alert = (("", "", "") if r.alert is None
             else (r.alert.step_end_index, r.alert.change_point_index, r.alert.a))
    return (r.atm_id, r.cycle_index, r.config_id, r.verdict.value, *alert, r.n, r.e)


def _settings(table: ResultsTable) -> dict:
    """What identifies a run: its sidecar without the failures and version.
    A resume must match it field for field."""
    return {
        "config_ids": list(table.config_ids),
        "fingerprint": table.fingerprint,
        "params": asdict(table.params),
        "step": table.step,
        "alert_at": table.alert_at,
        "period_hours": table.period_hours,
    }


def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def save_results(table: ResultsTable, path) -> None:
    """Write the metadata sidecar, then the records CSV (stable column order)."""
    path = Path(path)
    table.sort()
    meta = {**_settings(table), "version": table.version,
            "failures": [asdict(f) for f in table.failures]}
    write_json(_meta_path(path), meta)
    write_csv(path, RESULT_COLUMNS, map(_row, table.records))


def load_results(path) -> ResultsTable:
    """Read a results CSV and its sidecar back into a table. A last line that
    a kill cut short is not a record."""
    path = Path(path)
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise ValueError(f"results file {path} has no sidecar {meta_path.name}, "
                         "so its corpus and settings are unknown")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    try:
        params = BusinessParams(**meta["params"])
        table = ResultsTable(
            records=[], config_ids=tuple(meta["config_ids"]), fingerprint=meta["fingerprint"],
            params=params, step=meta["step"], alert_at=meta["alert_at"],
            period_hours=meta["period_hours"], version=meta["version"],
            failures=[SweepFailure(**f) for f in meta["failures"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed results sidecar {meta_path}: {exc!r}") from exc

    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    if rows and (not text.endswith("\n") or len(rows[-1]) != len(RESULT_COLUMNS)):
        rows.pop()  # cut short by a kill, maybe after a line break in a quoted id
    header = rows[0] if rows else []
    if tuple(header) != RESULT_COLUMNS:
        raise ValueError(f"unexpected results header {header}")
    for row in rows[1:]:
        if not row:
            continue
        atm_id, cyc, config_id, verdict, step_end, cp, a, n, e = row
        alert = None
        if step_end != "":
            alert = Alert(step_end_index=int(step_end),
                          change_point_index=int(cp), a=int(a))
        table.records.append(EvaluationRecord(
            atm_id=atm_id, cycle_index=int(cyc), config_id=config_id,
            verdict=Verdict(verdict), alert=alert, e=float(e), n=int(n),
            params=params))
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
