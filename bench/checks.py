"""Checks of the program's outputs against the reference computations.

A check returns a list of problems; an empty list means it passed. A
disagreement between the program and the reference is accepted only as a
tie: the program's own solution at that window (recomputed through its
public functions, and required to match the record) must reach the same
objective as the reference solution within ``OBJECTIVE_TOL`` (penalized
segmentation cost) or ``CURVE_TOL`` (arc-curve minimum). PELT and KCPD
are the exception, see ``check_pair``.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

import numpy as np

import reference as ref
import workloads as wl
from maintseg import detectors, sweep
from maintseg.core import BusinessParams, LifeCycle, Window, znormalize
from maintseg.detectors import DetectorConfig
from maintseg.protocol import Alert

OBJECTIVE_TOL = 1e-9  # relative, with the same absolute floor
CURVE_TOL = 1e-12
SCORE_TOL = 1e-12
PAIR_SAMPLE_SEED = 7919  # mixed with --seed to pick the pairs replayed by the reference
SAME_AS_ONE_WORKER = 24  # records of a multi-worker run replayed at one worker


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _program_segmentation(x: np.ndarray, config: DetectorConfig) -> detectors.Segmentation:
    if config.method == "KCPD":
        return detectors.kcpd(x, config.penalty, config.min_size, config.cost)
    fn = {"PELT": detectors.pelt, "BINSEG": detectors.binseg,
          "BOTTOMUP": detectors.bottomup}[config.method]
    return fn(x, config.cost, config.penalty, config.min_size)


def check_pair(cycle: LifeCycle, config: DetectorConfig, step: int,
               alert: Optional[Alert]) -> tuple[list[str], int, int]:
    """Replay one (cycle, config) pair with the reference detectors and
    compare the first alert.

    Returns (problems, ties accepted, windows where the program's PELT
    segmentation costs more than the exact optimum). PELT and KCPD are not
    held to the exact optimum: ``detectors.pelt`` is not exact when
    min_size > 1 (see the benchmark README), so that comparison would fail
    on some seeds and not on others. Their windows are counted instead,
    and each window's segmentation must still match the record, respect
    min_size, and report the cost that direct computation gives.
    """
    problems: list[str] = []
    ties = above_optimum = 0
    samples = np.asarray(cycle.samples)
    reached = alert is None
    where = f"{cycle.atm_id}/{cycle.cycle_index} {config.config_id}"
    if alert is not None and alert.a != alert.step_end_index:
        problems.append(f"{where}: window-end alert has a={alert.a}, end={alert.step_end_index}")
    for end in ref.window_ends(samples.shape[0], step):
        x = ref.znorm_columns(samples[:end]) if config.znorm else samples[:end]
        fires_here = alert is not None and alert.step_end_index == end
        rec_cp = alert.change_point_index if fires_here else None
        if config.method in ("PELT", "KCPD"):
            problem, worse = _against_optimum(cycle, config, end, rec_cp, x)
            above_optimum += worse
        else:
            problem, tied = _against_reference(cycle, config, end, rec_cp, x)
            ties += tied
        if problem:
            problems.append(f"{where} window {end}: {problem}")
            return problems, ties, above_optimum
        if fires_here:
            reached = True
            break
    if not reached:
        problems.append(f"{where}: alert at {alert.step_end_index}, which is not a window end")
    return problems, ties, above_optimum


def _program_x(cycle: LifeCycle, config: DetectorConfig, end: int) -> np.ndarray:
    x = Window(cycle, end).samples
    return znormalize(x) if config.znorm else x


def _against_optimum(cycle, config, end, rec_cp, x) -> tuple[str, int]:
    """PELT / KCPD at one window; returns (problem, 1 if above the optimum)."""
    cost = ref.DirectCost(x, config.cost.kind, config.cost.gamma)
    seg = _program_segmentation(_program_x(cycle, config, end), config)
    bps = seg.breakpoints
    prog_cp = bps[-1] if bps else None
    if prog_cp != rec_cp:
        return f"record says {rec_cp}, the program's detector gives {prog_cp}", 0
    bounds = (0, *bps, end)
    if any(b - a < config.min_size for a, b in zip(bounds, bounds[1:])):
        return f"breakpoints {bps} leave a segment shorter than {config.min_size}", 0
    prog_obj = ref.penalized_cost(cost, end, bps, config.penalty)
    if not _close(prog_obj, seg.total_cost, OBJECTIVE_TOL):
        return f"reported cost {seg.total_cost!r}, direct cost {prog_obj!r}", 0
    best = ref.optimal_partition(cost, end, config.penalty, config.min_size)
    return "", int(not _close(prog_obj, best.objective, OBJECTIVE_TOL))


def _against_reference(cycle, config, end, rec_cp, x) -> tuple[str, int]:
    """BINSEG, BOTTOMUP and FLUSS at one window: the record must equal the
    reference, or tie with it (returns (problem, 1 if tied))."""
    if config.method == "FLUSS":
        found = ref.fluss_minimum(x, config.m, config.channel_rule)
        fires = found is not None and found[1] < config.threshold
        if (found[0] if fires else None) == rec_cp:
            return "", 0
        prog_cp, prog_val = detectors.detect_with_score(Window(cycle, end), config)
        if prog_cp != rec_cp:
            return f"record says {rec_cp}, the program's detector gives {prog_cp}", 0
        ref_val = found[1] if found is not None else 1.0
        if not _close(prog_val, ref_val, CURVE_TOL):
            return (f"change point {rec_cp}, arc-curve minimum {prog_val!r}; reference "
                    f"{found[0] if fires else None}, {ref_val!r}"), 0
        return "", 1
    cost = ref.DirectCost(x, config.cost.kind, config.cost.gamma)
    greedy = ref.greedy_split if config.method == "BINSEG" else ref.greedy_merge
    seg = greedy(cost, end, config.penalty, config.min_size)
    if (seg.breakpoints[-1] if seg.breakpoints else None) == rec_cp:
        return "", 0
    bps = _program_segmentation(_program_x(cycle, config, end), config).breakpoints
    prog_cp = bps[-1] if bps else None
    if prog_cp != rec_cp:
        return f"record says {rec_cp}, the program's detector gives {prog_cp}", 0
    prog_obj = ref.penalized_cost(cost, end, bps, config.penalty)
    if not _close(prog_obj, seg.objective, OBJECTIVE_TOL):
        return (f"breakpoints {bps} vs reference {seg.breakpoints}; objective "
                f"{prog_obj!r} vs {seg.objective!r}"), 0
    return "", 1


def check_records(records, params: BusinessParams, period_hours: float) -> list[str]:
    """Verdict and score of every record, recomputed from the definitions."""
    rd, pp = params.rd * 24.0 / period_hours, params.pp * 24.0 / period_hours
    problems = []
    for r in records:
        a = r.alert.a if r.alert is not None else None
        verdict = ref.verdict(a, r.n, pp, rd)
        e = ref.score(a, r.n, pp, rd, params.s)
        if r.verdict.value != verdict or not _close(r.e, e, SCORE_TOL):
            problems.append(f"{r.atm_id}/{r.cycle_index} {r.config_id}: "
                            f"{r.verdict.value} {r.e!r}, expected {verdict} {e!r}")
    return problems


def check_summary(summary: Sequence[dict], records, params: BusinessParams,
                  period_hours: float) -> list[str]:
    """Per pp: best-per-sample mean >= best-average mean, and both equal
    to the means recomputed from the records with the reference score."""
    problems = []
    for entry in summary:
        pp = entry["pp"] * 24.0 / period_hours
        rd = params.rd * 24.0 / period_hours
        by_config: dict[str, list[float]] = {}
        by_cycle: dict[tuple, float] = {}
        for r in records:
            e = ref.score(r.alert.a if r.alert else None, r.n, pp, rd, params.s)
            by_config.setdefault(r.config_id, []).append(e)
            by_cycle[r.cycle_key] = max(by_cycle.get(r.cycle_key, 0.0), e)
        best_avg = max(sum(v) / len(v) for v in by_config.values())
        best_each = sum(by_cycle.values()) / len(by_cycle)
        if not entry["best_per_sample_mean"] >= entry["best_average_mean"]:
            problems.append(f"pp={entry['pp']}: best-per-sample mean "
                            f"{entry['best_per_sample_mean']} < best-average mean "
                            f"{entry['best_average_mean']}")
        if not (_close(entry["best_average_mean"], best_avg, 1e-9)
                and _close(entry["best_per_sample_mean"], best_each, 1e-9)):
            problems.append(f"pp={entry['pp']}: summary means {entry['best_average_mean']!r}, "
                            f"{entry['best_per_sample_mean']!r}; recomputed {best_avg!r}, "
                            f"{best_each!r}")
    return problems


def recall_precision(alerts: Sequence[Optional[Alert]], ns: Sequence[int],
                     params: BusinessParams, period_hours: float) -> tuple[float, float]:
    rd, pp = params.rd * 24.0 / period_hours, params.pp * 24.0 / period_hours
    verdicts = [ref.verdict(a.a if a else None, n, pp, rd) for a, n in zip(alerts, ns)]
    tp, fp, fn = (verdicts.count(v) for v in ("TP", "FP", "FN"))
    return (tp / (tp + fn) if tp + fn else 0.0), (tp / (tp + fp) if tp + fp else 0.0)


def check_cycles(loaded: Sequence[LifeCycle], expected: dict,
                 feature_names) -> tuple[int, list[str]]:
    """Compare ingested cycles with the generator's own features; returns
    (cycles that failed, problems). A missing cycle fails; an extra one is
    a problem."""
    problems = []
    failed = 0
    got = {c.key: c for c in loaded}
    for key, exp in expected.items():
        c = got.pop(key, None)
        if c is None:
            failed += 1
            problems.append(f"cycle {key} missing")
        elif (c.samples.shape != exp.samples.shape or not np.array_equal(c.samples, exp.samples)
              or c.start_time != exp.start_time or c.feature_names != tuple(feature_names)
              or c.period != 24.0):
            failed += 1
            problems.append(f"cycle {key} differs from the generated events")
    problems.extend(f"unexpected cycle {key}" for key in sorted(got))
    return failed, problems


def ingest_round_problems(inputs, r) -> tuple[int, list[str]]:
    """(cycles that failed their check, problems) for one ingest round."""
    names = [f[0] for f in wl.FEATURES]
    failed, problems = check_cycles(r.loaded, inputs.cycles, names)
    if tuple(names) != inputs.grouping.feature_names:
        problems.append(f"default grouping features {inputs.grouping.feature_names} != {names}")
    counts = (r.parsed.total_rows, r.parsed.malformed_count, r.built.n_removed_infected)
    if counts != (inputs.rows, inputs.malformed, inputs.infected):
        problems.append(f"rows/malformed/infected {counts}, expected "
                        f"{(inputs.rows, inputs.malformed, inputs.infected)}")
    per_group = {g.cycles_per_atm: g.n_atms for g in r.stats.groups}
    if (r.stats.total_cycles, r.stats.total_atms, per_group) != (
            len(inputs.cycles), sum(inputs.machines_by_cycle_count.values()),
            inputs.machines_by_cycle_count):
        problems.append(f"dataset stats {r.stats} disagree with the generated fleet")
    return failed, problems


def sweep_problems(name, seed, inputs, stats, last, workers) -> list[str]:
    """Checks of a sweep workload's run: ``stats`` of every round, the
    full outputs of the ``last`` one."""
    problems = []
    if len({r.digest for r in stats}) != 1:
        problems.append("rounds over identical inputs gave different records")
    period = last.table.period_hours
    if last.loaded.records != last.table.records:
        problems.append("results.csv does not read back to the records run_sweep returned")
    problems += check_records(last.table.records, wl.PARAMS, period)
    problems += check_summary(last.summary, last.loaded.records, wl.PARAMS, period)

    rng = np.random.default_rng([seed, PAIR_SAMPLE_SEED])
    by_key = {c.key: c for c in inputs.cycles}
    ties = above_optimum = 0
    for method in ("PELT", "BINSEG", "BOTTOMUP", "KCPD", "FLUSS"):
        candidates = [r for r in last.table.records if r.config_id.startswith(method + "/")]
        r = candidates[int(rng.integers(len(candidates)))]
        found, tied, worse = check_pair(
            by_key[r.cycle_key], DetectorConfig.from_id(r.config_id), inputs.step, r.alert)
        problems += found
        ties += tied
        above_optimum += worse
    print(f"{name}: reference replay of 5 pairs: {ties} ties accepted, {above_optimum} "
          f"PELT/KCPD windows above the exact optimum", file=sys.stderr)

    if inputs.check_corpus:
        known = sweep.run_sweep(inputs.check_corpus, [wl.KNOWN_GOOD], wl.PARAMS, step=inputs.step)
        recall, precision = recall_precision(
            [r.alert for r in known.records], [r.n for r in known.records], wl.PARAMS, period)
        if recall < 0.9 or precision < 0.9:
            problems.append(f"{wl.KNOWN_GOOD.config_id} on {len(inputs.check_corpus)} cycles: "
                            f"recall {recall:.3f}, precision {precision:.3f} (need >= 0.9)")
    if workers > 1:
        picked = rng.choice(len(last.table.records), SAME_AS_ONE_WORKER, replace=False)
        sample = [last.table.records[int(i)] for i in sorted(picked)]
        configs = [DetectorConfig.from_id(r.config_id) for r in sample]
        single = sweep.run_sweep(inputs.cycles, configs, wl.PARAMS, step=inputs.step, workers=1)
        want = {r.config_id: r for r in sample}
        if sorted(want) != sorted(r.config_id for r in single.records) or any(
                want[r.config_id] != r for r in single.records):
            problems.append(f"{workers}-worker records differ from a 1-worker replay")
    return problems
