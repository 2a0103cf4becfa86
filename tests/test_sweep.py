import itertools
import os

import numpy as np
import pytest

import maintseg.sweep as sweep_mod
from maintseg.core import BusinessParams
from maintseg.detectors import DetectorConfig, METHODS
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


def small_corpus(n_cycles=4, seed=0):
    return generate_corpus(seed, n_cycles, SynthSpec(n_days_min=30, n_days_max=45))


def interrupted_sweep(monkeypatch, cycles, configs, path, pairs, **kwargs):
    """A sweep killed (KeyboardInterrupt) as it starts pair number ``pairs``."""
    real = sweep_mod.run_streaming
    started = itertools.count()

    def killed(*args):
        if next(started) == pairs:
            raise KeyboardInterrupt
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(sweep_mod, "run_streaming", killed)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cycles, configs, PARAMS, results_path=path, **kwargs)


class TestBuildGrid:
    def test_cartesian_count(self):
        spec = GridSpec({"PELT": MethodGrid(costs=("l1", "l2"),
                                            penalties=(0.1, 1.0, 10.0),
                                            min_sizes=(2,), znorm=(False,))})
        assert len(build_grid(spec)) == 6

    def test_empty_spec(self):
        assert build_grid(GridSpec({})) == []

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
        spec = default_grid()
        ids1 = [c.config_id for c in build_grid(spec)]
        ids2 = [c.config_id for c in build_grid(GridSpec.from_json(spec.to_json()))]
        assert ids1 == ids2

    def test_json_round_trip(self):
        spec = default_grid()
        assert build_grid(GridSpec.from_json(spec.to_json())) == build_grid(spec)


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
        resumed = run_sweep(cycles, configs, PARAMS, results_path=partial_path)
        assert resumed.records == full.records
        assert partial_path.read_text() == full_path.read_text()

    def test_interrupted_run_resumes_with_its_settings(self, tmp_path, monkeypatch):
        cycles = small_corpus()
        configs = [NEVER, TUNED]
        full = run_sweep(cycles, configs, PARAMS, step=14, results_path=tmp_path / "full.csv")
        path = tmp_path / "results.csv"
        interrupted_sweep(monkeypatch, cycles, configs, path, 3, step=14)
        resumed = run_sweep(cycles, configs, PARAMS, step=14, results_path=path)
        assert resumed.records == full.records
        assert path.read_text() == (tmp_path / "full.csv").read_text()

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

    def test_resume_rejects_mismatched_settings(self, tmp_path):
        cycles = small_corpus()
        path = tmp_path / "results.csv"
        run_sweep(cycles, [NEVER], PARAMS, results_path=path)
        with pytest.raises(ValueError):
            run_sweep(cycles, [NEVER], BusinessParams(rd=2.0), results_path=path)

    def test_failures_recorded_and_run_continues(self, monkeypatch):
        cycles = small_corpus(2)
        bad = DetectorConfig("BINSEG", penalty=1.0)
        real = sweep_mod.run_streaming

        def sabotaged(cycle, config, step, alert_at):
            if config.method == "BINSEG":
                raise RuntimeError("injected failure")
            return real(cycle, config, step, alert_at)

        monkeypatch.setattr(sweep_mod, "run_streaming", sabotaged)
        table = run_sweep(cycles, [NEVER, bad], PARAMS, workers=1)
        assert table.partial
        assert len(table.failures) == len(cycles)
        assert all("injected failure" in f.reason for f in table.failures)
        # the healthy config still produced its records
        assert sum(1 for r in table.records if r.config_id == NEVER.config_id) == len(cycles)

    def test_empty_cycles_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], [NEVER], PARAMS)

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
    def test_round_trip_exact(self, tmp_path):
        cycles = small_corpus()
        table = run_sweep(cycles, [TUNED, NEVER], PARAMS)
        path = tmp_path / "results.csv"
        save_results(table, path)
        loaded = load_results(path)
        assert loaded.records == table.records
        assert loaded.config_ids == table.config_ids
        assert loaded.fingerprint == table.fingerprint
        assert loaded.params == table.params

    @pytest.mark.parametrize("cut", [20, 6], ids=["fields-missing", "inside-e-score"])
    def test_torn_last_line_is_not_a_record(self, tmp_path, cut):
        path = tmp_path / "results.csv"
        early = DetectorConfig("PELT", penalty=0.01, min_size=2)  # FP, e far from round
        table = run_sweep(small_corpus(), [early], PARAMS, results_path=path)
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        if cut == 6:  # the torn line still has all nine fields
            assert data[:-cut].rsplit(b"\n", 1)[1].count(b",") == 8
        assert load_results(path).records == table.records[:-1]

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_results(path, params=PARAMS)


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
