"""Command-line entry point: ingest, evaluate, sweep, report, stats, synth.

Every command takes --out and only the other flags it reads:

  ingest    --grouping --format --period-hours --ii
  evaluate  --config --rd --pp --s --step --alert-at
  sweep     --rd --pp --s --step --alert-at --workers --grid --pp-list
  report    --pp --pp-list (rd, s and the other settings come from the sidecar)
  stats     (none)
  synth     --seed --n-cycles --n-days-min --n-days-max --change-offset

All durations on the CLI are in days and converted internally using the
resampling period. Plot data is emitted as CSV, not images. Outputs are UTF-8
with "\n" line ends, each written whole (results.csv grows as a sweep runs).
Exit codes: 0 success, 1 usage or input error, 2 a sweep completed with
failed pairs. Set MAINTSEG_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace
from datetime import timedelta
from pathlib import Path

from . import __version__
from .core import BusinessParams, write_csv, write_json
from .detectors import DetectorConfig
from .ingest import (
    CodeGroupingConfig,
    DatasetStats,
    LogFormat,
    ParseQualityError,
    build_cycles,
    cycle_basename,
    dataset_stats,
    default_grouping,
    load_cycles,
    parse_event_log,
    save_cycle,
)
from .metrics import aggregate, best_per_sample, model_stability
from .protocol import run_streaming_trace
from .sweep import (
    GridSpec,
    build_grid,
    default_grid,
    load_results,
    rescore,
    run_sweep,
    score_alert,
    shared_period,
    sweep_summary,
)
from .synth import SynthSpec, generate_corpus

log = logging.getLogger("maintseg.cli")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="maintseg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"maintseg {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.commands = sub.choices
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("maintseg_out"))
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--rd", type=float, default=1.0, help="responsive duration, days")
    scoring.add_argument("--pp", type=float, default=14.0, help="predictive padding, days")
    scoring.add_argument("--s", type=float, default=0.2, help="early-alert sensibility")
    scoring.add_argument("--step", type=int, default=7, help="streaming step T, days")
    scoring.add_argument("--alert-at", choices=("window-end", "changepoint"),
                         default="window-end", help="alert timing rule for a")

    p = sub.add_parser("ingest", parents=[out],
                       help="parse a raw event log into canonical cycle files")
    p.add_argument("log", type=Path)
    p.add_argument("--grouping", type=Path, help="code grouping config JSON")
    p.add_argument("--format", dest="log_format", type=Path,
                   help="column mapping JSON for the log layout")
    p.add_argument("--period-hours", type=float, default=24.0)
    p.add_argument("--ii", type=float, default=1.0, help="infected interval, days")

    p = sub.add_parser("evaluate", parents=[out, scoring],
                       help="run one config over a cycle corpus with traces")
    p.add_argument("cycles", type=Path)
    p.add_argument("--config", required=True, help="config id, e.g. PELT/l2/5.0/2/-/0/-")

    p = sub.add_parser("sweep", parents=[out, scoring],
                       help="evaluate a whole config grid over a cycle corpus")
    p.add_argument("cycles", type=Path)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--grid", type=Path, help="grid spec JSON (default: shipped grid)")
    p.add_argument("--pp-list", default="7,14,21", help="summary pp values, comma-separated")

    p = sub.add_parser("report", parents=[out],
                       help="plot-ready curves and stability stats from results")
    p.add_argument("results", type=Path)
    p.add_argument("--pp", type=float, default=14.0, help="pp of best_per_cycle.csv, days")
    p.add_argument("--pp-list", default="7,14,21")

    p = sub.add_parser("stats", parents=[out],
                       help="dataset statistics of a cycle corpus")
    p.add_argument("cycles", type=Path)

    p = sub.add_parser("synth", parents=[out],
                       help="generate a synthetic cycle corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cycles", type=int, default=50)
    p.add_argument("--n-days-min", type=int, default=40)
    p.add_argument("--n-days-max", type=int, default=90)
    p.add_argument("--change-offset", type=int, default=10,
                   help="planted change, days before failure")
    return parser


def _write_manifest(args, extra: dict | None = None) -> None:
    write_json(args.out / "manifest.json", {
        "tool": f"maintseg {__version__}",
        "command": args.command,
        "args": {k: (str(v) if isinstance(v, Path) else v)
                 for k, v in sorted(vars(args).items())},
        **(extra or {}),
    })


def _step_buckets(step_days: int, period_hours: float) -> int:
    """The --step duration in days as a whole number of resampling buckets."""
    buckets = step_days * 24.0 / period_hours
    if step_days < 1 or abs(buckets - round(buckets)) > 1e-9:
        raise ValueError(f"--step {step_days} days is not a whole number of "
                         f"{period_hours:g}-hour buckets")
    return round(buckets)


def _write_cycles(cycles, cycle_dir: Path) -> None:
    """Save the cycles as the whole content of ``cycle_dir``: cycle files
    that an earlier run left there would otherwise be loaded with them."""
    cycle_dir.mkdir(parents=True, exist_ok=True)
    written = {save_cycle(cycle, cycle_dir).stem for cycle in cycles}
    for path in [*cycle_dir.glob("*.csv"), *cycle_dir.glob("*.json")]:
        if path.stem not in written:
            path.unlink()


def _pp_list(text: str) -> list[float]:
    """The --pp-list values, each refused up front unless it is a valid pp."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
        for pp in values:
            BusinessParams(pp=pp)
    except ValueError as exc:
        raise ValueError(f"--pp-list {text!r}: {exc}") from None
    return values


def _check_durations(period_hours: float, ii_days: float) -> None:
    """Refuse a --period-hours or --ii that is not finite or that no
    timedelta holds, before the log is read."""
    for flag, value, unit in (("--period-hours", period_hours, "hours"), ("--ii", ii_days, "days")):
        try:
            timedelta(**{unit: value})
        except (OverflowError, ValueError):
            raise ValueError(f"{flag} must be a finite number of {unit} that a timedelta "
                             f"holds, got {value!r}") from None


def _print_groups(stats: DatasetStats) -> None:
    """The per-group table of ``stats``, with a mean daily withdrawals
    column when the ingest counted withdrawals."""
    withdrawals = all(g.mean_daily_withdrawals is not None for g in stats.groups)
    print(f"{'cycles/ATM':>10} {'ATMs':>6} {'cycles':>7} {'min d':>8} {'median d':>9} "
          f"{'max d':>8}" + (f" {'withdrawals/d':>13}" if withdrawals else ""))
    for g in stats.groups:
        row = (f"{g.cycles_per_atm:>10} {g.n_atms:>6} {g.n_cycles:>7} {g.min_days:>8.1f} "
               f"{g.median_days:>9.1f} {g.max_days:>8.1f}")
        print(row + (f" {g.mean_daily_withdrawals:>13.1f}" if withdrawals else ""))


def cmd_ingest(args) -> int:
    _check_durations(args.period_hours, args.ii)
    fmt = (LogFormat.from_json(args.log_format.read_text(encoding="utf-8"))
           if args.log_format else LogFormat())
    grouping = (CodeGroupingConfig.from_json(args.grouping.read_text(encoding="utf-8"))
                if args.grouping else default_grouping())
    parsed = parse_event_log(args.log, fmt)
    if not parsed.records:
        print("error: no parseable event records in input", file=sys.stderr)
        return 1
    result = build_cycles(parsed.records, grouping, period_hours=args.period_hours,
                          ii_days=args.ii)
    owners: dict[str, str] = {}
    for cycle in result.cycles:
        name = cycle_basename(cycle)
        if owners.setdefault(name, cycle.atm_id) != cycle.atm_id:
            print(f"error: machine ids {owners[name]!r} and {cycle.atm_id!r} both map to "
                  f"cycle file {name}.csv", file=sys.stderr)
            return 1
    _write_manifest(args)
    cycle_dir = args.out / "cycles"
    _write_cycles(result.cycles, cycle_dir)
    stats = dataset_stats(result.cycles, result.withdrawal_daily)
    print(f"{stats.total_cycles} cycles, {stats.total_atms} ATMs, "
          f"{result.n_codes_seen} unique event codes")
    print(f"records: {result.n_records} parsed, {parsed.malformed_count} malformed, "
          f"{result.n_removed_infected} removed as infected")
    print(f"life cycles dropped with no grouped event code: {result.n_skipped_groups}")
    _print_groups(stats)
    print(f"cycle files written to {cycle_dir}")
    return 0


def cmd_evaluate(args) -> int:
    params = BusinessParams(rd=args.rd, pp=args.pp, s=args.s)
    cycles = load_cycles(args.cycles)
    config = DetectorConfig.from_id(args.config)
    period = shared_period(cycles)
    step = _step_buckets(args.step, period)
    _write_manifest(args)

    records, rows = [], []
    for cycle in sorted(cycles, key=lambda c: c.key):
        alert, trace = run_streaming_trace(cycle, config, step, args.alert_at)
        rows.extend((cycle.atm_id, cycle.cycle_index, row.end_index, int(row.fired),
                     row.change_point, row.score)
                    for row in trace)
        records.append(score_alert(cycle.atm_id, cycle.cycle_index, config.config_id,
                                   alert, cycle.n, params, period))
    trace_path = args.out / "traces.csv"
    write_csv(trace_path, ["atm_id", "cycle_index", "window_end", "fired", "change_point",
                           "score"], rows)
    agg = aggregate(records)
    print(f"config: {config.config_id}")
    print(f"cycles: {agg.n_records}  TP={agg.tp} FP={agg.fp} FN={agg.fn}")
    print(f"mean E_s: {agg.mean_e:.4f}  precision: {agg.precision:.4f}"
          f"{'' if agg.precision_defined else ' (no predicted positives)'}"
          f"  recall: {agg.recall:.4f}")
    print(f"traces written to {trace_path}")
    return 0


def cmd_sweep(args) -> int:
    params = BusinessParams(rd=args.rd, pp=args.pp, s=args.s)
    pp_values = _pp_list(args.pp_list)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    cycles = load_cycles(args.cycles)
    spec = (GridSpec.from_json(args.grid.read_text(encoding="utf-8"))
            if args.grid else default_grid())
    configs = build_grid(spec)
    step = _step_buckets(args.step, shared_period(cycles))
    results_path = args.out / "results.csv"
    # the manifest once run_sweep has accepted any results file it resumes
    table = run_sweep(cycles, configs, params, step=step, workers=args.workers,
                      alert_at=args.alert_at, results_path=results_path,
                      on_start=lambda: _write_manifest(
                          args, {"n_configs": len(configs), "n_cycles": len(cycles)}))
    print(f"results written to {results_path}")
    if table.partial:  # no summary over an incomplete grid; a re-run resumes the sweep
        print(f"warning: {len(table.failures)} pairs failed; results are partial",
              file=sys.stderr)
        return 2
    entries = sweep_summary(table.records, params, pp_values, table.period_hours)
    write_json(args.out / "summary.json", entries)
    for entry in entries:
        print(f"pp={entry['pp']:g}: best-per-sample mean E_s = "
              f"{entry['best_per_sample_mean']:.4f}")
        for method, info in entry["methods"].items():
            print(f"  {method:9s} mean E_s {info['mean_e']:.4f} "
                  f"precision {info['precision']:.4f} recall {info['recall']:.4f} "
                  f"({info['config_id']})")
    return 0


def cmd_report(args) -> int:
    BusinessParams(pp=args.pp)  # refuses an out-of-range --pp before any work
    pp_values = _pp_list(args.pp_list)
    if not args.results.exists():
        print(f"error: results file {args.results} not found", file=sys.stderr)
        return 1
    table = load_results(args.results)
    _write_manifest(args)
    entries = sweep_summary(table.records, table.params, pp_values, table.period_hours)

    methods = sorted({r.config_id.split("/")[0] for r in table.records})
    columns = ["mean_e", "precision", "recall", "config_id"]
    for method in methods:
        write_csv(args.out / f"curve_{method}.csv", ["pp", *columns],
                  ([e["pp"], *(e["methods"][method][k] for k in columns)] for e in entries))
    write_csv(args.out / "curve_best_per_sample.csv", ["pp", "mean_e"],
              ([e["pp"], e["best_per_sample_mean"]] for e in entries))

    scored = rescore(table.records, replace(table.params, pp=args.pp),
                     table.period_hours)
    best = best_per_sample(scored)
    write_csv(args.out / "best_per_cycle.csv", ["atm_id", "cycle_index", "e_score", "config_id"],
              ([b.atm_id, b.cycle_index, b.e, b.config_id] for b in best.per_cycle))

    stability = model_stability(best.per_cycle)
    write_json(args.out / "stability.json", asdict(stability))
    print(f"curves written for {len(methods)} methods to {args.out}")
    print(f"same-model fraction: {stability.same_model_fraction:.2f} "
          f"({stability.n_atms_multi_cycle} multi-cycle ATMs)")
    print(f"one-change fraction: {stability.one_change_fraction:.2f} "
          f"({stability.n_atms_over_two_cycles} ATMs with >2 cycles)")
    return 0


def cmd_stats(args) -> int:
    cycles = load_cycles(args.cycles)
    stats = dataset_stats(cycles)
    _write_manifest(args)
    print(f"{stats.total_cycles} cycles, {stats.total_atms} ATMs")
    _print_groups(stats)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(n_days_min=args.n_days_min, n_days_max=args.n_days_max,
                     change_offset_days=args.change_offset)
    cycles = generate_corpus(args.seed, args.n_cycles, spec)
    _write_manifest(args)
    cycle_dir = args.out / "cycles"
    _write_cycles(cycles, cycle_dir)
    if not cycles:
        print("warning: n-cycles is 0, wrote an empty corpus", file=sys.stderr)
        return 0
    atms = len({c.atm_id for c in cycles})
    print(f"wrote {len(cycles)} cycles ({atms} ATMs) to {cycle_dir}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "stats": cmd_stats,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    level = os.environ.get("MAINTSEG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # with the usage of the command that lacks them
            parser.commands.get(args.command, parser).error(
                f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ParseQualityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
