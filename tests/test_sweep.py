import functools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maintseg
import maintseg.protocol as protocol_mod
import maintseg.sweep as sweep_mod
from maintseg.core import BusinessParams, prefix_windows
import maintseg.detectors as detectors_mod
from maintseg.detectors import DetectorConfig, METHODS, solve_key
from maintseg.protocol import Verdict
from maintseg.sweep import (
    GridSpec,
    GridSpecError,
    MethodGrid,
    build_grid,
    corpus_fingerprint,
    default_grid,
    load_results,
    rescore,
    run_sweep,
    save_results,
    sweep_summary,
)
from maintseg.synth import SynthSpec, generate_corpus

from conftest import make_cycle

PARAMS = BusinessParams(rd=1.0, pp=14.0, s=0.2)
NEVER = DetectorConfig("PELT", penalty=1e12, min_size=2)
TUNED = DetectorConfig("PELT", penalty=5.0, min_size=2)


def small_corpus(n_cycles=4, seed=0, atm_id="synth0001"):
    """Seeded cycles, with machine synth0001 renamed ``atm_id``."""
    cycles = generate_corpus(seed, n_cycles, SynthSpec(n_days_min=30, n_days_max=45))
    return [replace(c, atm_id=atm_id) if c.atm_id == "synth0001" else c for c in cycles]


# machine ids that the results CSV must quote
QUOTED_IDS = ["ATM, Paris 1", 'Zürich "Nord"']


def interrupted_sweep(monkeypatch, cycles, configs, path, units, **kwargs):
    """A sweep killed (KeyboardInterrupt) as it starts unit number ``units``,
    counted from 0 in (cycle, solve key) order: at the replay's first call
    for that cycle and solve key."""
    real = protocol_mod._change_points
    started: set = set()

    def killed(window, config, *args):
        unit = (window.cycle.key, solve_key(config))
        if unit not in started:
            if len(started) == units:
                raise KeyboardInterrupt
            started.add(unit)
        return real(window, config, *args)

    with monkeypatch.context() as m:
        m.setattr(protocol_mod, "_change_points", killed)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cycles, configs, PARAMS, results_path=path, **kwargs)


class TestBuildGrid:
    @pytest.mark.parametrize("doc, named", [
        ({"FLUS": {"thresholds": [0.5], "ms": [7]}}, "'FLUS'"),
        ({"PELT": {"costs": ["l2"], "penalty": [1.0], "min_sizes": [2]}}, "'penalty'"),
        ({"FLUSS": {"costs": ["l2"], "thresholds": [0.5], "ms": [7]}}, "'costs'"),
        ({"PELT": {"costs": "l2", "penalties": [1.0], "min_sizes": [2]}}, "'costs'"),
        ({"PELT": [1.0]}, "JSON object"),
        ([], "JSON object"),
        # a value of the wrong JSON type is refused, not coerced
        ({"PELT": {"costs": ["l2"], "penalties": [1.0], "min_sizes": [2], "znorm": ["false"]}},
         "PELT: znorm value 'false' is not a boolean"),
        ({"BINSEG": {"costs": ["l2"], "penalties": [1.0], "min_sizes": [2.7]}},
         "BINSEG: min_sizes value 2.7 is not an integer"),
        ({"BOTTOMUP": {"costs": ["l2"], "penalties": [1.0], "min_sizes": [True]}},
         "BOTTOMUP: min_sizes value True is not an integer"),
        ({"FLUSS": {"thresholds": [0.5], "ms": [7.5]}}, "FLUSS: ms value 7.5 is not an integer"),
        ({"PELT": {"costs": ["l2"], "penalties": [True], "min_sizes": [2]}},
         "PELT: penalties value True is not a number"),
        ({"FLUSS": {"thresholds": ["0.5"], "ms": [7]}},
         "FLUSS: thresholds value '0.5' is not a number"),
        ({"KCPD": {"costs": [1], "penalties": [1.0], "min_sizes": [2]}},
         "KCPD: costs value 1 is not a string"),
        ({"FLUSS": {"thresholds": [0.5], "ms": [7], "channel_rules": [None]}},
         "FLUSS: channel_rules value None is not a string"),
    ], ids=["method", "field", "other-method-field", "not-a-list", "not-an-object", "list",
            "znorm-string", "min-size-float", "min-size-bool", "m-float", "penalty-bool",
            "threshold-string", "cost-number", "channel-rule-null"])
    def test_malformed_spec_named(self, doc, named):
        with pytest.raises(GridSpecError, match=named):
            GridSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, field, value, named", [
        ("PELT", "penalties", float("nan"), "nan"),
        ("KCPD", "penalties", float("inf"), "inf"),
        ("BINSEG", "costs", "rbf:nan", "nan"),
        ("PELT", "costs", "rbf:inf", "inf"),
    ])
    def test_non_finite_values_refused(self, method, field, value, named):
        doc = {method: {"costs": ["rbf"], "penalties": [1.0], "min_sizes": [2]}}
        doc[method][field] = [value]
        spec = GridSpec.from_json(json.dumps(doc))  # JSON's NaN and Infinity parse
        with pytest.raises(ValueError, match=named):
            build_grid(spec)

    def test_cartesian_count(self):
        spec = GridSpec({"PELT": MethodGrid(costs=("l1", "l2"),
                                            penalties=(0.1, 1.0, 10.0),
                                            min_sizes=(2,), znorm=(False,))})
        assert len(build_grid(spec)) == 6

    def test_empty_spec(self):
        assert build_grid(GridSpec({})) == []

    @pytest.mark.parametrize("doc, named", [
        ({}, "names no method"),
        ({"PELT": {"costs": ["l2"], "min_sizes": [2]}}, "PELT: missing 'penalties'"),
        ({"PELT": {"costs": ["l2"], "penalties": [1.0], "min_sizes": [2]},
          "BINSEG": {"costs": ["l2"], "min_sizes": [2]}}, "BINSEG: missing 'penalties'"),
        ({"FLUSS": {"ms": [7]}}, "FLUSS: missing 'thresholds'"),
        ({"KCPD": {"costs": ["rbf"], "penalties": [], "min_sizes": [2]}},
         "KCPD: 'penalties' is empty"),
        ({"FLUSS": {"thresholds": [0.5], "ms": [7], "channel_rules": []}},
         "FLUSS: 'channel_rules' is empty"),
    ], ids=["no-method", "missing", "missing-beside-a-valid-method", "fluss-missing",
            "empty", "empty-defaulted"])
    def test_spec_that_expands_to_nothing_is_refused(self, doc, named):
        with pytest.raises(GridSpecError, match=named):
            GridSpec.from_json(json.dumps(doc))

    def test_defaulted_fields_may_be_left_out(self):
        spec = GridSpec.from_json(json.dumps({"FLUSS": {"thresholds": [0.5], "ms": [7]}}))
        assert len(build_grid(spec)) == 2  # znorm off and on, channel rule "any"

    def test_default_grid_sizes(self):
        configs = build_grid(default_grid())
        per_method = {m: sum(1 for c in configs if c.method == m) for m in METHODS}
        for method, count in per_method.items():
            assert 250 <= count <= 350, (method, count)

    def test_duplicate_ids_rejected(self):
        spec = GridSpec({"PELT": MethodGrid(costs=("l2", "l2"), penalties=(1.0,),
                                            min_sizes=(2,), znorm=(False,))})
        with pytest.raises(GridSpecError):
            build_grid(spec)

    def test_order_is_deterministic(self):
        # methods in METHODS order, whatever order the spec lists them in
        spec = default_grid()
        ids = [c.config_id for c in build_grid(spec)]
        reordered = GridSpec(dict(reversed(spec.methods.items())))
        assert [c.config_id for c in build_grid(reordered)] == ids
        assert [c.config_id for c in build_grid(default_grid())] == ids


class TestRunSweep:
    def test_never_firing_yields_fn(self):
        cycle = make_cycle(np.zeros(30))
        table = run_sweep([cycle], [NEVER], PARAMS)
        (record,) = table.records
        assert record.verdict is Verdict.FN
        assert record.e == 0.0 and record.alert is None

    def test_worker_counts_agree(self):
        cycles = small_corpus()
        configs = [NEVER, TUNED,
                   DetectorConfig("FLUSS", threshold=0.45, m=7, znorm=True)]
        t1 = run_sweep(cycles, configs, PARAMS, workers=1)
        t2 = run_sweep(cycles, configs, PARAMS, workers=2)
        assert t1.records == t2.records
        assert t1.fingerprint == t2.fingerprint

    @pytest.mark.parametrize("n_cycles, workers, pools", [(3, 64, [3]), (1, 8, [])])
    def test_pool_forks_at_most_one_worker_per_task(self, monkeypatch, n_cycles, workers, pools):
        # a pool forks all its workers at the first submit; this one records
        # its size and runs each task in-process, so no process starts. A
        # single task runs serially, without a pool
        import concurrent.futures
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        cycles = small_corpus(n_cycles)
        serial = run_sweep(cycles, [NEVER, TUNED], PARAMS)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        table = run_sweep(cycles, [NEVER, TUNED], PARAMS, workers=workers)
        assert made == pools
        assert table.records == serial.records

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_refused(self, tmp_path, workers):
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(small_corpus(2), [NEVER], PARAMS, workers=workers, results_path=path)
        assert not path.exists()

    def test_complete_grid(self):
        cycles = small_corpus()
        configs = [NEVER, TUNED]
        table = run_sweep(cycles, configs, PARAMS)
        keys = {(r.atm_id, r.cycle_index, r.config_id) for r in table.records}
        assert len(keys) == len(cycles) * len(configs)
        assert not table.partial

    def test_results_persisted_and_resumable(self, tmp_path):
        cycles = small_corpus()
        configs = [NEVER, TUNED]
        full_path = tmp_path / "full.csv"
        full = run_sweep(cycles, configs, PARAMS, results_path=full_path)

        # simulate an interrupted run: keep only the first 3 record lines
        partial_path = tmp_path / "partial.csv"
        lines = full_path.read_text().splitlines(keepends=True)
        partial_path.write_text("".join(lines[:4]))
        shutil.copy(tmp_path / "full.csv.meta.json", tmp_path / "partial.csv.meta.json")
        resumed = run_sweep(cycles, configs, PARAMS, results_path=partial_path)
        assert resumed.records == full.records
        assert partial_path.read_text() == full_path.read_text()

    @pytest.mark.parametrize("atm_id", ["synth0001", *QUOTED_IDS])
    def test_interrupted_run_resumes_with_its_settings(self, tmp_path, monkeypatch, atm_id):
        cycles = small_corpus(atm_id=atm_id)
        configs = [NEVER, TUNED]
        full = run_sweep(cycles, configs, PARAMS, step=14, results_path=tmp_path / "full.csv")
        path = tmp_path / "results.csv"
        interrupted_sweep(monkeypatch, cycles, configs, path, 3, step=14)
        resumed = run_sweep(cycles, configs, PARAMS, step=14, results_path=path)
        assert resumed.records == full.records
        assert path.read_bytes() == (tmp_path / "full.csv").read_bytes()

    def test_interrupted_run_refuses_another_corpus(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        interrupted_sweep(monkeypatch, small_corpus(seed=0), [NEVER, TUNED], path, 3)
        with pytest.raises(ValueError, match="different cycle corpus"):
            run_sweep(small_corpus(seed=1), [NEVER, TUNED], PARAMS, results_path=path)

    def test_torn_last_line_is_dropped_and_its_pair_rerun(self, tmp_path, monkeypatch):
        cycles = small_corpus()
        configs = [NEVER, TUNED]
        full_path = tmp_path / "full.csv"
        run_sweep(cycles, configs, PARAMS, results_path=full_path)
        path = tmp_path / "results.csv"
        interrupted_sweep(monkeypatch, cycles, configs, path, 3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("synth0002,0,PELT/l2/5.")  # a record write cut short
        run_sweep(cycles, configs, PARAMS, results_path=path)
        assert path.read_bytes() == full_path.read_bytes()
        assert (tmp_path / "results.csv.meta.json").read_bytes() == \
            (tmp_path / "full.csv.meta.json").read_bytes()

    @pytest.mark.parametrize("settings", [{"alert_at": "end"}, {"step": 0}])
    def test_bad_settings_rejected_before_any_work(self, tmp_path, settings):
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError):
            run_sweep(small_corpus(2), [NEVER, TUNED], PARAMS, results_path=path, **settings)
        assert list(tmp_path.iterdir()) == []

    def test_resume_without_sidecar_is_refused_before_any_work(self, tmp_path, monkeypatch):
        cycles = small_corpus()
        path = tmp_path / "results.csv"
        interrupted_sweep(monkeypatch, cycles, [NEVER, TUNED], path, 3)
        (tmp_path / "results.csv.meta.json").unlink()
        before = path.read_bytes()
        with pytest.raises(ValueError, match="no sidecar"):
            run_sweep(small_corpus(seed=1), [NEVER, TUNED], PARAMS, results_path=path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("change, differs", [
        ({"configs": [NEVER]}, "config_ids"),
        ({"configs": [TUNED, NEVER]}, "config_ids"),
        ({"params": BusinessParams(rd=2.0)}, "params"),
        ({"step": 14}, "step"),
        ({"alert_at": "changepoint"}, "alert_at"),
    ], ids=["smaller-grid", "reordered-grid", "params", "step", "alert-at"])
    def test_resume_with_other_settings_is_refused_before_any_work(
            self, tmp_path, monkeypatch, change, differs):
        cycles = small_corpus()
        path = tmp_path / "results.csv"
        interrupted_sweep(monkeypatch, cycles, [NEVER, TUNED], path, 3)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        settings = {"configs": [NEVER, TUNED], "params": PARAMS, **change}
        with pytest.raises(ValueError, match=f"different settings: {differs}$"):
            run_sweep(cycles, settings.pop("configs"), settings.pop("params"),
                      results_path=path, **settings)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_rejects_mismatched_settings(self, tmp_path):
        cycles = small_corpus()
        path = tmp_path / "results.csv"
        run_sweep(cycles, [NEVER], PARAMS, results_path=path)
        with pytest.raises(ValueError):
            run_sweep(cycles, [NEVER], BusinessParams(rd=2.0), results_path=path)

    def test_failures_recorded_and_run_continues(self, monkeypatch):
        cycles = small_corpus(2)
        bad = DetectorConfig("BINSEG", penalty=1.0)
        real = protocol_mod._change_points

        def sabotaged(window, config, *args):
            if config.method == "BINSEG":
                raise RuntimeError("injected failure")
            return real(window, config, *args)

        monkeypatch.setattr(protocol_mod, "_change_points", sabotaged)
        table = run_sweep(cycles, [NEVER, bad], PARAMS, workers=1)
        assert table.partial
        assert len(table.failures) == len(cycles)
        assert all("injected failure" in f.reason for f in table.failures)
        # the healthy config still produced its records
        assert sum(1 for r in table.records if r.config_id == NEVER.config_id) == len(cycles)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_reason_names_the_function_that_raised(self, monkeypatch, workers):
        def broken_binseg(*args):
            raise RuntimeError("injected failure")

        # worker processes are forked from this one, so they see the patch too;
        # the replay's BINSEG solves run the private core, not binseg
        monkeypatch.setattr(detectors_mod, "_binseg", broken_binseg)
        cycles = small_corpus(2)
        table = run_sweep(cycles, [NEVER, DetectorConfig("BINSEG", penalty=1.0)], PARAMS,
                          workers=workers)
        assert len(table.failures) == len(cycles) and len(table.records) == len(cycles)
        for failure in table.failures:
            assert failure.reason.startswith("RuntimeError('injected failure')\n")
            assert "in broken_binseg" in failure.reason
            assert "in _solve" in failure.reason

    def test_replay_solves_once_per_running_key_and_builds_no_segmentation(self, monkeypatch):
        # the replay reads each penalty's last breakpoint only: no totals, no
        # backtracked segmentation. Each window makes one call per solve key
        # that still has a config running, and at most one solve for it (a
        # PELT solve answers later windows ahead)
        def refused(*args):
            raise AssertionError("the replay builds no segmentation")

        calls, solves = [], []
        real_call, real_solve = protocol_mod._change_points, detectors_mod._solve

        def noting_call(window, config, *args):
            calls.append((window.cycle.key, window.end_index, solve_key(config)))
            return real_call(window, config, *args)

        def noting_solve(window, config, penalties):
            solves.append((window.cycle.key, window.end_index, solve_key(config)))
            return real_solve(window, config, penalties)

        monkeypatch.setattr(detectors_mod, "_penalized_segmentation", refused)
        monkeypatch.setattr(detectors_mod._PeltProgram, "segmentations", refused)
        monkeypatch.setattr(protocol_mod, "_change_points", noting_call)
        monkeypatch.setattr(detectors_mod, "_solve", noting_solve)
        cycles = small_corpus(3)
        configs = build_grid(default_grid())[::5]
        table = run_sweep(cycles, configs, PARAMS)
        assert not table.failures and len(table.records) == len(cycles) * len(configs)
        assert len(set(calls)) == len(calls)
        assert len(set(solves)) == len(solves) and set(solves) <= set(calls)
        assert len([s for s in solves if s[2][0] == "PELT"]) < \
            len([c for c in calls if c[2][0] == "PELT"])
        # a key is called on every window up to the last at which one of its
        # configs still runs, and on no later one
        by_id = {c.config_id: c for c in configs}
        stops: dict = {}
        for r in table.records:
            unit = ((r.atm_id, r.cycle_index), solve_key(by_id[r.config_id]))
            stops[unit] = max(stops.get(unit, 0), r.alert.step_end_index if r.alert else r.n)
        ends = {c.key: [w.end_index for w in prefix_windows(c, 7)] for c in cycles}
        assert sorted(calls) == sorted((cycle, end, key) for (cycle, key), stop in stops.items()
                                       for end in ends[cycle] if end <= stop)

    def test_dead_worker_fails_its_pairs_and_the_rerun_resumes(self, tmp_path, monkeypatch):
        cycles = small_corpus()
        configs = [NEVER, TUNED, DetectorConfig("BINSEG", penalty=1.0, min_size=2)]
        fresh_path = tmp_path / "fresh.csv"
        fresh = run_sweep(cycles, configs, PARAMS, results_path=fresh_path)
        real = protocol_mod._change_points

        def dies(window, config, *args):
            if window.cycle.key == cycles[1].key and config.method == "BINSEG":
                os._exit(1)
            return real(window, config, *args)

        path = tmp_path / "results.csv"
        with monkeypatch.context() as m:
            m.setattr(protocol_mod, "_change_points", dies)  # seen by the forked workers
            table = run_sweep(cycles, configs, PARAMS, workers=2, results_path=path)
        assert table.partial
        dead = (cycles[1].atm_id, cycles[1].cycle_index, configs[2].config_id)
        assert dead in {(f.atm_id, f.cycle_index, f.config_id) for f in table.failures}
        assert all(f.reason.startswith("BrokenProcessPool(") for f in table.failures)
        assert len(table.records) + len(table.failures) == len(cycles) * len(configs)
        assert len(load_results(path).failures) == len(table.failures)

        resumed = run_sweep(cycles, configs, PARAMS, workers=2, results_path=path)
        assert resumed.records == fresh.records and not resumed.partial
        assert path.read_bytes() == fresh_path.read_bytes()
        assert (tmp_path / "results.csv.meta.json").read_bytes() == \
            (tmp_path / "fresh.csv.meta.json").read_bytes()

    def test_import_loads_no_process_pool(self):
        # only a sweep at workers > 1 needs multiprocessing; importing it
        # would cost every import of maintseg, in each worker and CLI call
        env = {**os.environ, "PYTHONPATH": str(Path(maintseg.__file__).resolve().parents[1])}
        code = ("import sys, maintseg, maintseg.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_replay_imports_nothing(self):
        # a forked worker starts with its parent's modules; a lazy import on
        # the replay path (numpy.ma, from np.unique or np.median) would be
        # paid again in every worker of every run. The cycle and the grid
        # are built first: synth loads numpy.random
        env = {**os.environ, "PYTHONPATH": str(Path(maintseg.__file__).resolve().parents[1])}
        code = (
            "import sys, maintseg\n"
            "from maintseg import BusinessParams, SynthSpec, build_grid, default_grid, "
            "generate_corpus, run_sweep\n"
            "cycles = generate_corpus(3, 1, SynthSpec(40, 60, 1.0, 24))\n"
            "configs = build_grid(default_grid())\n"
            "before = set(sys.modules)\n"
            "table = run_sweep(cycles, configs, BusinessParams(rd=1.0, pp=14.0, s=0.2))\n"
            "assert len(table.records) == len(configs) == 1404 and not table.failures\n"
            "print(sorted(set(sys.modules) - before))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_dead_worker_keeps_the_tasks_that_finished(self, tmp_path, monkeypatch):
        # 4 cycles x 2 families (PELT/l2, FLUSS) = 8 tasks; the first task's
        # worker dies only after the other worker has finished the other 7
        cycles = small_corpus()
        configs = [NEVER, TUNED, DetectorConfig("FLUSS", threshold=0.45, m=7, znorm=True)]
        fresh_path = tmp_path / "fresh.csv"
        run_sweep(cycles, configs, PARAMS, results_path=fresh_path)
        first = min(c.key for c in cycles)
        markers = tmp_path / "markers"
        markers.mkdir()
        real = sweep_mod._evaluate_family

        @functools.wraps(real)  # pickled by name, so the workers run this one
        def dies_last(task):
            cycle, family = task[:2]
            if cycle.key == first and family[0] == NEVER:
                deadline = time.monotonic() + 60
                while len(os.listdir(markers)) < 7 and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # lets the last outcome reach the parent
                os._exit(1)
            outcome = real(task)
            (markers / f"{cycle.atm_id}-{cycle.cycle_index}-{family[0].method}").touch()
            return outcome

        path = tmp_path / "results.csv"
        with monkeypatch.context() as m:
            m.setattr(sweep_mod, "_evaluate_family", dies_last)  # seen by the forked workers
            table = run_sweep(cycles, configs, PARAMS, workers=2, results_path=path)
        assert [(f.atm_id, f.cycle_index, f.config_id) for f in table.failures] == \
            [(*first, NEVER.config_id), (*first, TUNED.config_id)]
        assert all(f.reason.startswith("BrokenProcessPool(") for f in table.failures)
        assert len(table.records) == len(cycles) * len(configs) - 2

        resumed = run_sweep(cycles, configs, PARAMS, workers=2, results_path=path)
        assert not resumed.partial
        assert path.read_bytes() == fresh_path.read_bytes()
        assert (tmp_path / "results.csv.meta.json").read_bytes() == \
            (tmp_path / "fresh.csv.meta.json").read_bytes()

    def test_empty_cycles_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], [NEVER], PARAMS)

    def test_empty_configs_rejected_before_any_output(self, tmp_path):
        cycles = generate_corpus(3, 2, SynthSpec())
        with pytest.raises(ValueError, match="no configs"):
            run_sweep(cycles, [], PARAMS, results_path=tmp_path / "results.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.environ.get("MAINTSEG_RUN_SLOW"),
                        reason="minutes-long property run; set MAINTSEG_RUN_SLOW=1")
    def test_default_grid_property_run(self):
        # a 10-cycle corpus against the whole shipped grid completes with a
        # full (cycle x config) cross product and no failed pairs
        cycles = generate_corpus(3, 10, SynthSpec())
        configs = build_grid(default_grid())
        table = run_sweep(cycles, configs, PARAMS)
        keys = {(r.atm_id, r.cycle_index, r.config_id) for r in table.records}
        assert len(keys) == len(cycles) * len(configs)
        assert not table.failures
        from maintseg.metrics import best_per_sample
        best_per_sample(table.records)  # raises on an incomplete grid


class TestResultsIO:
    @pytest.mark.parametrize("atm_id", ["synth0001", *QUOTED_IDS])
    def test_round_trip_exact(self, tmp_path, atm_id):
        cycles = small_corpus(atm_id=atm_id)
        table = run_sweep(cycles, [TUNED, NEVER], PARAMS)
        path = tmp_path / "results.csv"
        save_results(table, path)
        loaded = load_results(path)
        assert loaded.records == table.records
        assert loaded.config_ids == table.config_ids
        assert loaded.fingerprint == table.fingerprint
        assert loaded.params == table.params

    @pytest.mark.parametrize("atm_id, cut", [
        ("synth0001", lambda data: len(data) - 20),
        ("synth0001", lambda data: len(data) - 6),
        # the last machine's id holds a line break, and the cut falls after it
        ("zz\nline", lambda data: data.rindex(b"line")),
    ], ids=["fields-missing", "inside-e-score", "inside-a-quoted-id"])
    def test_torn_last_line_is_not_a_record(self, tmp_path, atm_id, cut):
        path = tmp_path / "results.csv"
        early = DetectorConfig("PELT", penalty=0.01, min_size=2)  # FP, e far from round
        table = run_sweep(small_corpus(atm_id=atm_id), [early], PARAMS, results_path=path)
        data = path.read_bytes()
        torn = data[:cut(data)]
        path.write_bytes(torn)
        if len(data) - len(torn) == 6:  # the torn line still has all nine fields
            assert torn.rsplit(b"\n", 1)[1].count(b",") == 8
        assert load_results(path).records == table.records[:-1]

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_results(run_sweep(small_corpus(2), [NEVER], PARAMS), path)
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_results(path)

    def test_missing_sidecar_is_refused(self, tmp_path):
        path = tmp_path / "results.csv"
        run_sweep(small_corpus(2), [NEVER], PARAMS, results_path=path)
        (tmp_path / "results.csv.meta.json").unlink()
        with pytest.raises(ValueError, match="results.csv has no sidecar results.csv.meta.json"):
            load_results(path)

    @pytest.mark.parametrize("key", ["params", "step", "failures"])
    def test_malformed_sidecar_is_refused(self, tmp_path, key):
        path = tmp_path / "results.csv"
        run_sweep(small_corpus(2), [NEVER], PARAMS, results_path=path)
        meta_path = tmp_path / "results.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"malformed results sidecar .*'{key}'"):
            load_results(path)


class TestFingerprint:
    def test_stable_across_save_load(self, tmp_path):
        from maintseg.ingest import load_cycles, save_cycle

        cycles = small_corpus()
        for c in cycles:
            save_cycle(c, tmp_path)
        reloaded = load_cycles(tmp_path)
        assert corpus_fingerprint(reloaded) == corpus_fingerprint(cycles)

    def test_differs_between_corpora(self):
        assert corpus_fingerprint(small_corpus(seed=0)) != corpus_fingerprint(small_corpus(seed=1))


class TestRescoreAndSummary:
    def test_rescore_moves_verdicts_with_params(self):
        # alerts land within 8 days of failure: TP at (rd=1, pp=14) but all
        # inside the responsive duration at rd=9
        cycles = small_corpus()
        table = run_sweep(cycles, [TUNED], PARAMS)
        assert all(r.verdict is Verdict.TP for r in table.records)
        late = rescore(table.records, BusinessParams(rd=9.0, pp=1.0, s=0.2))
        assert all(r.verdict is Verdict.FP for r in late)
        assert all(r.e == 0.0 for r in late)
        assert all(r.alert == orig.alert for r, orig in zip(late, table.records))

    def test_summary_shape_and_dominance(self):
        cycles = small_corpus()
        configs = [TUNED, NEVER, DetectorConfig("BINSEG", penalty=5.0, min_size=2)]
        table = run_sweep(cycles, configs, PARAMS)
        entries = sweep_summary(table.records, PARAMS, [7, 14, 21])
        assert [e["pp"] for e in entries] == [7, 14, 21]
        for entry in entries:
            assert set(entry["methods"]) == {"PELT", "BINSEG"}
            assert entry["best_per_sample_mean"] >= entry["best_average_mean"]
