#!/usr/bin/env python3
"""The maintseg benchmark: four workloads through the package's public API.

    python3 bench/run.py --workload grid-daily --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1          # each workload in turn
    python3 bench/run.py --workload all --seed 1 --dump-inputs DIR

Run from the repository root; the package is imported from ``src/``. A
run sets up its seeded inputs three times (set-up time is the median),
then repeats identical rounds for about ``--seconds``, then checks
the outputs against the reference computations in ``reference.py``.
End-to-end times are scaled to a reference machine speed by the probe in
``speed.py``; the wall-clock figures go to stderr.
Human-readable lines go to stderr; the last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads (workers inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
NAMES = ("grid-daily", "long-hourly", "ingest-log", "grid-daily-2w")
SETUPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dump-inputs", type=Path, metavar="DIR",
                   help="write the seeded inputs under DIR and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maintseg" / "__init__.py").is_file():
        print(f"error: maintseg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.dump_inputs is None:
        for name in NAMES:  # one process each, so peak memory is per workload
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode != 0:
                return 1
        return 0

    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import numpy  # noqa: F401
        import maintseg  # noqa: F401
        import_s = time.perf_counter() - t0

        if args.dump_inputs is not None:
            for name in NAMES if args.workload == "all" else (args.workload,):
                dump_inputs(name, args.seed, args.dump_inputs / name)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              t0, import_s, probe)
    print(json.dumps(result))
    return 0


# --- set-up ------------------------------------------------------------------

def set_up(name: str, seed: int, work_dir: Path):
    """Generate the workload's inputs and warm every code path once."""
    import io

    import workloads as wl
    from maintseg import ingest, sweep

    if wl.WORKLOADS[name].kind == "ingest":
        inputs = wl.make_event_log(seed, work_dir / "events.csv")
        inputs.grouping = ingest.default_grouping()
        with open(inputs.log_path, encoding="utf-8") as fh:
            head = "".join(fh.readline() for _ in range(2000))
        built = ingest.build_cycles(ingest.parse_event_log(io.StringIO(head)).records,
                                    inputs.grouping)
        ingest.save_cycle(built.cycles[0], work_dir / "warm")
        ingest.dataset_stats(ingest.load_cycles(work_dir / "warm"))
        return inputs
    inputs = wl.sweep_inputs(name, seed)
    one_each = list({c.method: c for c in inputs.configs}.values())
    sweep.run_sweep(inputs.cycles, one_each, wl.PARAMS, step=inputs.step,
                    workers=wl.WORKLOADS[name].workers)
    return inputs


def dump_inputs(name: str, seed: int, out: Path) -> None:
    import workloads as wl
    from maintseg import ingest

    out.mkdir(parents=True, exist_ok=True)
    if wl.WORKLOADS[name].kind == "ingest":
        wl.make_event_log(seed, out / "events.csv")
    else:
        inputs = wl.sweep_inputs(name, seed)
        for cycle in inputs.check_corpus or inputs.cycles:
            ingest.save_cycle(cycle, out / "cycles")
        (out / "configs.txt").write_text("".join(c.config_id + "\n" for c in inputs.configs))
    print(f"{name}: inputs for seed {seed} written to {out}", file=sys.stderr)


# --- rounds ------------------------------------------------------------------

ROUND_DIRS = itertools.count()


def do_round(name: str, inputs, workers: int, work_dir: Path):
    """One round, writing into a directory of its own; nothing is deleted
    until the run ends. On an ext4 mounted with ``discard``, deleting and
    rewriting the ingest's cycle files every round made saving them grow
    from ~0.15 s to ~0.5 s per round within two minutes; in a new directory
    per round it stayed near 0.17 s."""
    import workloads as wl

    round_dir = work_dir / f"round-{next(ROUND_DIRS)}"
    round_dir.mkdir()
    if wl.WORKLOADS[name].kind == "ingest":
        return wl.ingest_round(inputs, round_dir)
    return wl.sweep_round(inputs, workers, round_dir)


@dataclass
class RoundStat:
    """What is kept of a round once the next one starts."""

    items: int
    run_s: float
    wall_s: float
    failed: int
    digest: int  # hash of the round's records; identical rounds must agree
    problems: list
    ref_run_s: float = 0.0  # run_s scaled to the reference speed


def round_stat(name: str, inputs, r) -> RoundStat:
    import checks
    import workloads as wl

    if wl.WORKLOADS[name].kind == "ingest":
        failed, problems = checks.ingest_round_problems(inputs, r)
        return RoundStat(r.items, r.run_s, r.wall_s, failed, 0, problems)
    return RoundStat(r.items, r.run_s, r.wall_s, len(r.table.failures),
                     hash(tuple(r.table.records)), [])


def repeat(name, inputs, workers, work_dir, seconds, probe):
    """Whole rounds for about ``seconds`` (at least one): another round
    starts while it would end no more than half a round past ``seconds``.
    Returns the per-round stats and the last round's full outputs."""
    stats: list[RoundStat] = []
    last = None
    start = time.perf_counter()
    while not stats or (time.perf_counter() - start
                        + 0.5 * statistics.mean(r.wall_s for r in stats) < seconds):
        last = None  # let the previous round's outputs go before the next one
        begun = time.perf_counter()
        last = do_round(name, inputs, workers, work_dir)
        scale = probe.scale(begun, time.perf_counter())
        stats.append(round_stat(name, inputs, last))
        stats[-1].ref_run_s = last.run_s * scale
    return stats, last


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool, t0: float,
                 import_s: float, probe: speed.SpeedProbe) -> dict:
    """One workload's run. ``t0`` is when the imports began, ``import_s``
    how long they took."""
    import checks
    import workloads as wl

    workload = wl.WORKLOADS[name]
    work_dir = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup_times = []
        for i in range(SETUPS):
            setup_dir = work_dir / f"setup-{i}"  # a new one each time, as in do_round
            setup_dir.mkdir()
            t = time.perf_counter()
            inputs = set_up(name, seed, setup_dir)
            setup_times.append(time.perf_counter() - t)
        setup_wall_s = import_s + statistics.median(setup_times)
        setup_s = setup_wall_s * probe.scale(t0, time.perf_counter())

        if not trace:
            stats, last = repeat(name, inputs, workload.workers, work_dir, seconds, probe)
            items = sum(r.items for r in stats)
            # a whole-run ratio, not a median of rounds: every round weighs
            # by its length, as in the wall-clock throughput
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_ref_s": (items / sum(r.ref_run_s for r in stats), "items/ref-s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            print(f"{name} seed={seed} wall clock: setup {setup_wall_s:.4g} s, "
                  f"{items / sum(r.run_s for r in stats):.6g} items/s", file=sys.stderr)
            print(f"{name} seed={seed} rounds (wall s / reference s): "
                  + " ".join(f"{r.run_s:.3f}/{r.ref_run_s:.3f}" for r in stats), file=sys.stderr)
        else:
            stats, last, metrics = traced_rounds(name, inputs, work_dir, seconds, seed)
        problems = [p for r in stats for p in r.problems]
        if workload.kind == "sweep":
            problems += checks.sweep_problems(name, seed, inputs, stats, last, workload.workers)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.items if workload.kind == "sweep" else len(inputs.cycles) for r in stats)
    failed = sum(r.failed for r in stats)
    for key, (value, unit) in metrics.items():
        print(f"{name} seed={seed} {key} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{name} seed={seed} rounds={len(stats)} attempted={attempted} failed={failed} "
          f"problems={len(problems)}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_rounds(name, inputs, work_dir, seconds, seed):
    """Untraced and traced rounds in turn, at one worker, for about
    ``seconds``. The difference of their median round times is the tracing
    overhead; taking them in turn keeps the machine's drift out of it."""
    import tracing
    import workloads as wl

    tracer = tracing.Tracer()
    untraced, traced, uncovered = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + 0.5 * statistics.mean(r.wall_s for r in untraced + traced) < seconds):
        last = None  # let the previous round's outputs go before the next one
        untraced.append(round_stat(name, inputs, do_round(name, inputs, 1, work_dir)))
        mark = len(tracer.spans)
        with tracing.installed(tracer):
            last = do_round(name, inputs, 1, work_dir)
        uncovered.append(last.wall_s - tracing.top_level_seconds(tracer, mark))
        traced.append(round_stat(name, inputs, last))
    layer = tracing.layer_metrics(tracer, len(traced))
    ingested = wl.WORKLOADS[name].kind == "ingest"
    layer["ingest.rows"] = last.parsed.total_rows if ingested else 0
    layer["ingest.malformed"] = last.parsed.malformed_count if ingested else 0
    layer["ingest.infected_removed"] = last.built.n_removed_infected if ingested else 0
    wall = [r.wall_s for r in traced]
    layer["trace.overhead_s"] = (statistics.median(wall)
                                 - statistics.median(r.wall_s for r in untraced))
    layer["trace.untraced_s"] = statistics.mean(uncovered)
    tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl",
                 {"workload": name, "seed": seed, "traced_rounds": len(traced),
                  "untraced_rounds": len(untraced), "round_s": wall})
    metrics = {k: (float(layer[k]), unit) for k, unit in tracing.LAYER_UNITS.items()}
    return untraced + traced, last, metrics


if __name__ == "__main__":
    sys.exit(main())
