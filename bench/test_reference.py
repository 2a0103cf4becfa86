"""Tests of the benchmark's reference computations and output checks.

Run with ``python -m pytest bench``. The references are held to brute
force on small exhaustive cases, and the checks must reject fabricated
wrong outputs.
"""

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import speed
import tracing
import workloads as wl
from maintseg import detectors
from maintseg.core import BusinessParams, LifeCycle
from maintseg.costs import SegmentCost
from maintseg.detectors import DetectorConfig
from maintseg.metrics import EvaluationRecord
from maintseg.protocol import Alert, Verdict, run_streaming
from maintseg.synth import SynthSpec, generate_corpus

KINDS = ("l1", "l2", "normal", "rbf")


def _signal(seed, n, d=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[n // 2:] += rng.uniform(1.0, 4.0)
    return x


def _all_segmentations(cost, n, penalty, min_size):
    """Brute force over every admissible breakpoint set."""
    best = math.inf
    for k in range(n):
        for bps in itertools.combinations(range(min_size, n - min_size + 1), k):
            bounds = (0, *bps, n)
            if any(b - a < min_size for a, b in zip(bounds, bounds[1:])):
                continue
            best = min(best, ref.penalized_cost(cost, n, bps, penalty))
    return best


@pytest.mark.parametrize("kind", KINDS)
def test_optimal_partition_is_the_exhaustive_optimum(kind):
    for case in range(12):
        n = 4 + case % 6
        min_size = 1 + case % 2
        penalty = [0.0, 0.5, 3.0][case % 3]
        cost = ref.DirectCost(_signal(case, n), kind)
        seg = ref.optimal_partition(cost, n, penalty, min_size)
        assert seg.objective == pytest.approx(_all_segmentations(cost, n, penalty, min_size),
                                              rel=1e-12, abs=1e-12)
        assert seg.objective == pytest.approx(
            ref.penalized_cost(cost, n, seg.breakpoints, penalty), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_greedy_references_agree_with_the_program(kind):
    for case in range(6):
        x = _signal(100 + case, 24, d=3)
        cost = ref.DirectCost(x, kind)
        spec = SegmentCost(kind)
        for penalty in (0.5, 5.0):
            got = detectors.binseg(x, spec, penalty, 2).breakpoints
            assert got == ref.greedy_split(cost, 24, penalty, 2).breakpoints
            got = detectors.bottomup(x, spec, penalty, 2).breakpoints
            assert got == ref.greedy_merge(cost, 24, penalty, 2).breakpoints


@pytest.mark.parametrize("kind", KINDS)
def test_pelt_is_exact_at_min_size_one(kind):
    for case in range(8):
        x = _signal(200 + case, 30)
        cost = ref.DirectCost(x, kind)
        for penalty in (0.1, 2.0):
            seg = detectors.pelt(x, SegmentCost(kind), penalty, 1)
            best = ref.optimal_partition(cost, 30, penalty, 1)
            assert ref.penalized_cost(cost, 30, seg.breakpoints, penalty) == pytest.approx(
                best.objective, rel=1e-9, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="detectors.pelt prunes start s at time t although "
                   "an end t' < t + min_size cannot use t as a breakpoint")
def test_pelt_is_exact_at_min_size_two():
    x = generate_corpus(29, 1, SynthSpec(n_days_min=44, n_days_max=44))[0].samples
    penalty = 0.08111308307896872  # a point of the default penalty axis
    seg = detectors.pelt(x, SegmentCost("l1"), penalty, 2)
    cost = ref.DirectCost(x, "l1")
    best = ref.optimal_partition(cost, 44, penalty, 2)
    assert ref.penalized_cost(cost, 44, seg.breakpoints, penalty) == pytest.approx(
        best.objective, rel=1e-9, abs=1e-9)


def test_direct_costs_match_their_definitions():
    x = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 3.0], [10.0, -1.0]])
    assert ref.DirectCost(x, "l2")(0, 3) == pytest.approx(8.0 + 8.0 / 3.0)
    assert ref.DirectCost(x, "l1")(0, 3) == pytest.approx(4.0 + 2.0)
    rbf = ref.DirectCost(x[:2], "rbf", gamma=0.5)
    assert rbf(0, 2) == pytest.approx(2.0 - (2.0 + 2.0 * math.exp(-0.5 * 4.0)) / 2.0)
    one = ref.DirectCost(x[:1], "normal")
    assert one(0, 1) == pytest.approx(2 * math.log(1e-6))


def test_nearest_neighbours_against_a_double_loop():
    rng = np.random.default_rng(3)
    for m in (3, 5, 8):
        x = rng.normal(size=40)
        n_sub = 40 - m + 1
        z = [(x[i:i + m] - x[i:i + m].mean()) / x[i:i + m].std() for i in range(n_sub)]
        for i, j in enumerate(ref.nearest_neighbours(x, m)):
            dists = [np.linalg.norm(z[i] - z[k]) if abs(i - k) > (m + 1) // 2 else math.inf
                     for k in range(n_sub)]
            assert j == int(np.argmin(dists))
        _, prog = detectors.matrix_profile(x, m)
        assert np.array_equal(prog, ref.nearest_neighbours(x, m))


def test_arc_curve_counts_arcs_over_each_position():
    index = np.array([5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 10, 11])
    curve = ref.arc_curve(index, 1)  # m = 1 keeps all but 5 positions per edge
    n_sub = index.size
    for p in (5, 6):
        arcs = sum(1 for i, j in enumerate(index) if min(i, j) <= p < max(i, j))
        assert curve[p] == pytest.approx(min(arcs / (2.0 * p * (n_sub - p) / n_sub), 1.0))
    assert np.all(curve[:5] == 1.0) and np.all(curve[-5:] == 1.0)
    prog = detectors.fluss_cac(index, 1, n_sub)
    assert np.allclose(prog, curve, rtol=0, atol=1e-15)


def test_verdict_and_score_at_the_interval_boundaries():
    n, pp, rd, s = 60, 14, 1, 0.2
    assert ref.verdict(None, n, pp, rd) == "FN" and ref.score(None, n, pp, rd, s) == 0.0
    assert ref.verdict(45, n, pp, rd) == "TP" and ref.score(45, n, pp, rd, s) == 1.0
    assert ref.verdict(58, n, pp, rd) == "TP"
    assert ref.verdict(59, n, pp, rd) == "FP" and ref.score(59, n, pp, rd, s) == 0.0
    assert ref.verdict(44, n, pp, rd) == "FP"
    assert ref.score(20, n, pp, rd, s) == pytest.approx(
        (math.exp(4.0) - 1) / (math.exp(0.2 * 45) - 1))
    assert ref.window_ends(20, 7) == [7, 14, 20] and ref.window_ends(14, 7) == [7, 14]


CYCLE = generate_corpus(11, 1, SynthSpec(n_days_min=60, n_days_max=60))[0]
CONFIGS = [
    DetectorConfig("PELT", cost=SegmentCost("l1"), penalty=5.0, min_size=2),
    DetectorConfig("BINSEG", cost=SegmentCost("normal"), penalty=5.0, min_size=3, znorm=True),
    DetectorConfig("BOTTOMUP", cost=SegmentCost("rbf"), penalty=1.0, min_size=2),
    DetectorConfig("KCPD", cost=SegmentCost("rbf", gamma=1.0), penalty=2.0, min_size=2),
    DetectorConfig("FLUSS", threshold=0.8, m=4, channel_rule="any"),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.method)
def test_program_alerts_pass_and_shifted_ones_fail(config):
    alert = run_streaming(CYCLE, config, 7)
    assert alert is not None, "the planted change should fire every listed config"
    problems, _, _ = checks.check_pair(CYCLE, config, 7, alert)
    assert problems == []
    ends = ref.window_ends(CYCLE.n, 7)
    k = ends.index(alert.step_end_index)
    wrong = [None, replace(alert, change_point_index=alert.change_point_index - 1)]
    if k + 1 < len(ends):
        wrong.append(Alert(ends[k + 1], alert.change_point_index, ends[k + 1]))
    if k > 0:
        wrong.append(Alert(ends[k - 1], 0, ends[k - 1]))
    for bad in wrong:
        problems, _, _ = checks.check_pair(CYCLE, config, 7, bad)
        assert problems, f"fabricated alert {bad} was accepted"


def test_check_records_rejects_a_wrong_score_or_verdict():
    params = BusinessParams()
    good = EvaluationRecord("m", 0, "PELT/l2/5.0/2/-/0/-", Verdict.FP, Alert(20, 18, 20),
                            ref.score(20, 60, 14, 1, 0.2), 60, params)
    assert checks.check_records([good], params, 24.0) == []
    assert checks.check_records([replace(good, e=good.e * 1.001)], params, 24.0)
    tp = replace(good, verdict=Verdict.TP, e=1.0)
    assert checks.check_records([tp], params, 24.0)


def test_check_cycles_rejects_a_changed_value():
    samples = np.array([[0.0, 1.0], [0.5, 0.25]])
    cycle = LifeCycle("atm0001", 0, wl.EPOCH, wl.EPOCH.replace(day=3), ("a", "b"), samples)
    expected = {cycle.key: wl.ExpectedCycle(wl.EPOCH, samples.copy())}
    assert checks.check_cycles([cycle], expected, ("a", "b")) == (0, [])
    expected[cycle.key].samples[1, 1] = 0.5
    failed, problems = checks.check_cycles([cycle], expected, ("a", "b"))
    assert failed == 1 and problems


def test_benchmark_json_lists_what_the_run_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.LAYER_UNITS)
    assert [m["unit"] for m in doc["per_layer"]] == list(tracing.LAYER_UNITS.values())
    assert {m["name"] for m in doc["end_to_end"]} == {"items_per_ref_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_speed_probe_scales_by_the_probes_inside_the_interval():
    probe = speed.SpeedProbe()  # not started: the samples are set by hand
    ref_s = speed.PROBE_REF_S
    probe.samples = [(1.0, ref_s), (2.0, 2 * ref_s), (3.0, 4 * ref_s)]
    assert probe.scale(1.5, 3.5) == pytest.approx(1 / 3)  # mean probe 3x the reference
    assert probe.scale(0.0, 1.5) == pytest.approx(1.0)
    assert probe.scale(2.2, 2.3) == pytest.approx(0.5)  # none inside: the nearest one


def test_speed_probe_samples_while_running():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while len(probe.samples) < 2:
            time.sleep(speed.PROBE_EVERY_S)
    assert probe.scale(start, time.perf_counter()) > 0
    assert not probe._thread.is_alive()


def test_workload_grids_have_the_stated_sizes():
    assert len(wl.daily_grid()) == 468
    assert len(wl.hourly_grid()) == 51
