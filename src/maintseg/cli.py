"""Command-line entry point: ingest, evaluate, sweep, report, stats, synth.

Every command takes --out and only the other flags it reads:

  ingest    --grouping --format --period-hours --ii
  evaluate  --config --rd --pp --s --step --alert-at
  sweep     --rd --pp --s --step --alert-at --workers --grid --pp-list
  report    --pp --pp-list (rd, s and the other settings come from the sidecar)
  stats     (none)
  synth     --seed --n-cycles --n-days-min --n-days-max --change-offset

All durations on the CLI are in days and converted internally using the
resampling period. Plot data is emitted as CSV, not images. Exit codes:
0 success, 1 usage or input error, 2 a sweep completed with failed pairs.
Set MAINTSEG_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core import BusinessParams
from .detectors import DetectorConfig
from .ingest import (
    CodeGroupingConfig,
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
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": f"maintseg {__version__}",
        "command": args.command,
        "args": {k: (str(v) if isinstance(v, Path) else v)
                 for k, v in sorted(vars(args).items())},
    }
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


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
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_ingest(args) -> int:
    if args.ii < 0:
        raise ValueError("ii must be >= 0")
    fmt = LogFormat.from_json(args.log_format.read_text()) if args.log_format else LogFormat()
    grouping = (CodeGroupingConfig.from_json(args.grouping.read_text())
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
    print(f"cycle files written to {cycle_dir}")
    return 0


def cmd_evaluate(args) -> int:
    params = BusinessParams(rd=args.rd, pp=args.pp, s=args.s)
    cycles = load_cycles(args.cycles)
    config = DetectorConfig.from_id(args.config)
    period = cycles[0].period
    step = _step_buckets(args.step, period)
    _write_manifest(args)

    records = []
    trace_path = args.out / "traces.csv"
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["atm_id", "cycle_index", "window_end", "fired",
                         "change_point", "score"])
        for cycle in sorted(cycles, key=lambda c: c.key):
            alert, trace = run_streaming_trace(cycle, config, step, args.alert_at)
            for row in trace:
                writer.writerow([cycle.atm_id, cycle.cycle_index, row.end_index,
                                 int(row.fired),
                                 "" if row.change_point is None else row.change_point,
                                 repr(row.score)])
            records.append(score_alert(cycle.atm_id, cycle.cycle_index, config.config_id,
                                       alert, cycle.n, params, period))
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
    cycles = load_cycles(args.cycles)
    spec = GridSpec.from_json(args.grid.read_text()) if args.grid else default_grid()
    configs = build_grid(spec)
    step = _step_buckets(args.step, cycles[0].period)
    _write_manifest(args, {"n_configs": len(configs), "n_cycles": len(cycles)})
    results_path = args.out / "results.csv"
    table = run_sweep(cycles, configs, params, step=step, workers=args.workers,
                      alert_at=args.alert_at, results_path=results_path)
    print(f"results written to {results_path}")
    if table.partial:  # no summary over an incomplete grid; a re-run resumes the sweep
        print(f"warning: {len(table.failures)} pairs failed; results are partial",
              file=sys.stderr)
        return 2
    entries = sweep_summary(table.records, params, _pp_list(args.pp_list),
                            table.period_hours)
    (args.out / "summary.json").write_text(json.dumps(entries, indent=2))
    for entry in entries:
        print(f"pp={entry['pp']:g}: best-per-sample mean E_s = "
              f"{entry['best_per_sample_mean']:.4f}")
        for method, info in entry["methods"].items():
            print(f"  {method:9s} mean E_s {info['mean_e']:.4f} "
                  f"precision {info['precision']:.4f} recall {info['recall']:.4f} "
                  f"({info['config_id']})")
    return 0


def cmd_report(args) -> int:
    if not args.results.exists():
        print(f"error: results file {args.results} not found", file=sys.stderr)
        return 1
    table = load_results(args.results)
    _write_manifest(args)
    pp_values = _pp_list(args.pp_list)
    entries = sweep_summary(table.records, table.params, pp_values, table.period_hours)

    methods = sorted({r.config_id.split("/")[0] for r in table.records})
    for method in methods:
        path = args.out / f"curve_{method}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pp", "mean_e", "precision", "recall", "config_id"])
            for entry in entries:
                info = entry["methods"][method]
                writer.writerow([entry["pp"], repr(info["mean_e"]),
                                 repr(info["precision"]), repr(info["recall"]),
                                 info["config_id"]])
    best_curve = args.out / "curve_best_per_sample.csv"
    with open(best_curve, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pp", "mean_e"])
        for entry in entries:
            writer.writerow([entry["pp"], repr(entry["best_per_sample_mean"])])

    scored = rescore(table.records, replace(table.params, pp=args.pp),
                     table.period_hours)
    best = best_per_sample(scored)
    best_path = args.out / "best_per_cycle.csv"
    with open(best_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["atm_id", "cycle_index", "e_score", "config_id"])
        for b in best.per_cycle:
            writer.writerow([b.atm_id, b.cycle_index, repr(b.e), b.config_id])

    stability = model_stability(best.per_cycle)
    (args.out / "stability.json").write_text(json.dumps({
        "same_model_fraction": stability.same_model_fraction,
        "one_change_fraction": stability.one_change_fraction,
        "n_atms_multi_cycle": stability.n_atms_multi_cycle,
        "n_atms_over_two_cycles": stability.n_atms_over_two_cycles,
    }, indent=2))
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
    print(f"{'cycles/ATM':>10} {'ATMs':>6} {'cycles':>7} "
          f"{'min d':>8} {'median d':>9} {'max d':>8}")
    for g in stats.groups:
        print(f"{g.cycles_per_atm:>10} {g.n_atms:>6} {g.n_cycles:>7} "
              f"{g.min_days:>8.1f} {g.median_days:>9.1f} {g.max_days:>8.1f}")
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
        args = parser.parse_args(argv)
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
