import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

import pytest

import maintseg
from maintseg.cli import build_parser, main
from maintseg.core import BusinessParams
from maintseg.protocol import Verdict
from maintseg.sweep import ResultsTable, load_results, save_results
from maintseg.metrics import EvaluationRecord
from maintseg.protocol import Alert
from maintseg.synth import SynthSpec, generate_corpus

TINY_GRID = {
    "PELT": {"costs": ["l2"], "penalties": [5.0, 1e12],
             "min_sizes": [2], "znorm": [False]},
    "FLUSS": {"thresholds": [0.45], "ms": [7], "znorm": [True],
              "channel_rules": ["any"]},
}


def dir_snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--seed", "3", "--n-cycles", "6", "--out", str(out)]) == 0
    return out / "cycles"


def bucket_corpus(root: Path, period_hours: float, n: int) -> Path:
    """One cycle of ``n`` buckets of ``period_hours`` each, saved under root."""
    from maintseg.ingest import save_cycle
    spec = SynthSpec(n_days_min=n, n_days_max=n, period_hours=period_hours,
                     change_offset_days=n // 5)
    (cycle,) = generate_corpus(5, 1, spec)
    save_cycle(cycle, root / "cycles")
    return root / "cycles"


class TestSynth:
    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "11", "--n-cycles", "5",
                         "--out", str(out)]) == 0
        snap_a, snap_b = dir_snapshot(a), dir_snapshot(b)
        assert set(snap_a) == set(snap_b)
        # cycle payloads identical; the manifest differs only in the out path
        for name in snap_a:
            if "cycles/" in name:
                assert snap_a[name] == snap_b[name], name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "1", "--n-cycles", "5", "--out", str(a)])
        main(["synth", "--seed", "2", "--n-cycles", "5", "--out", str(b)])
        payload = lambda root: [v for k, v in dir_snapshot(root).items() if "cycles/" in k]
        assert payload(a) != payload(b)

    def test_zero_cycles_warns(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert main(["synth", "--n-cycles", "0", "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err.lower()
        assert list((out / "cycles").glob("*.csv")) == []

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "m"
        main(["synth", "--n-cycles", "2", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["args"]["n_cycles"] == 2


class TestIngest:
    def write_log(self, path, n_days=30, atm_id="atm1"):
        t0 = datetime(2019, 3, 1, tzinfo=timezone.utc)
        rows = ["timestamp,atm_id,lifecycle_id,event_code"]
        for day in range(n_days):
            ts = t0 + timedelta(days=day)
            rows.append(f"{ts:%Y-%m-%dT%H:%M:%SZ},{atm_id},0,6000")
        rows.append(f"{t0 + timedelta(days=n_days):%Y-%m-%dT%H:%M:%SZ},{atm_id},0,6001")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def test_counts_printed_and_cycles_written(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self.write_log(log)
        out = tmp_path / "ingested"
        assert main(["ingest", str(log), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "1 cycles, 1 ATMs, 2 unique event codes" in printed
        assert len(list((out / "cycles").glob("*.csv"))) == 1

    def test_group_table_and_dropped_cycles_printed(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self.write_log(log)
        t0 = datetime(2019, 3, 1, tzinfo=timezone.utc)
        with open(log, "a") as fh:  # 30 withdrawals in cycle 0; cycle 1 has no grouped code
            fh.writelines(f"{t0 + timedelta(days=day):%Y-%m-%dT%H:%M:%SZ},atm1,0,8000\n"
                          for day in range(30))
            fh.write(f"{t0 + timedelta(days=40):%Y-%m-%dT%H:%M:%SZ},atm1,1,9999\n")
        assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "life cycles dropped with no grouped event code: 1" in printed
        header = printed.index(f"{'cycles/ATM':>10} {'ATMs':>6} {'cycles':>7} {'min d':>8} "
                               f"{'median d':>9} {'max d':>8} {'withdrawals/d':>13}")
        assert printed[header + 1].split() == ["1", "1", "1", "30.0", "30.0", "30.0", "1.0"]
        assert main(["stats", str(tmp_path / "o" / "cycles"),
                     "--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == \
            [printed[header].removesuffix(f" {'withdrawals/d':>13}"),
             printed[header + 1].removesuffix(f" {'1.0':>13}")]

    def test_reingest_leaves_only_the_new_logs_cycles(self, tmp_path, capsys):
        out = tmp_path / "ingested"
        for atm_id in ("atmA", "atmB"):
            log = tmp_path / f"{atm_id}.csv"
            self.write_log(log, atm_id=atm_id)
            assert main(["ingest", str(log), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "cycles").iterdir()) == \
            ["atmB_0000.csv", "atmB_0000.json"]
        capsys.readouterr()
        assert main(["stats", str(out / "cycles"), "--out", str(tmp_path / "stats")]) == 0
        assert capsys.readouterr().out.startswith("1 cycles, 1 ATMs")

    def test_empty_input_is_an_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("timestamp,atm_id,lifecycle_id,event_code\n")
        assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == 1
        assert "no parseable" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_log_with_a_byte_order_mark_ingests(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self.write_log(log)
        log.write_bytes(b"\xef\xbb\xbf" + log.read_bytes())
        assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == 0
        assert "31 parsed, 0 malformed" in capsys.readouterr().out

    def test_negative_column_index_is_refused_before_the_log_is_read(self, tmp_path, capsys):
        fmt = tmp_path / "format.json"
        fmt.write_text(json.dumps({"timestamp": 0, "atm_id": -3, "lifecycle_id": 2,
                                   "event_code": 3, "has_header": False}))
        assert main(["ingest", str(tmp_path / "nope.csv"), "--format", str(fmt),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'atm_id'" in err and "nope.csv" not in err

    def test_timestamp_outside_the_calendar_is_a_malformed_row(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self.write_log(log)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("0001-01-01T00:00:00+01:00,atm1,0,6000\n")  # year 0 in UTC
        assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == 0
        assert "31 parsed, 1 malformed" in capsys.readouterr().out

    def test_period_past_the_calendar_is_an_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self.write_log(log)
        # a timedelta holds 1e8 hours, but a cycle of one such bucket from
        # 2019 ends past year 9999
        assert main(["ingest", str(log), "--period-hours", "1e8",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "range" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("quoted", [False, True], ids=["quote-free", "quoted"])
    def test_field_over_the_csv_limit_is_one_error_line(self, tmp_path, capsys, quoted):
        log = tmp_path / "log.csv"
        self.write_log(log)
        lines = log.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace("atm1", "x" * 200_000)
        if quoted:
            lines[2] = lines[2].replace("atm1", '"atm1"')
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["ingest", str(log), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: log line 6: field larger than field limit (131072)"]
        assert not out.exists()

    def test_machine_ids_sharing_a_file_name_are_an_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("timestamp,atm_id,lifecycle_id,event_code\n"
                       "2019-03-01T10:00:00Z,atm 1,0,6000\n"
                       "2019-03-01T10:00:00Z,atm/1,0,6000\n")
        out = tmp_path / "o"
        assert main(["ingest", str(log), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'atm 1'" in err and "'atm/1'" in err
        assert not out.exists()


class TestConfigFiles:
    """A malformed config file is one ``error:`` line naming the key, exit 1."""

    @pytest.mark.parametrize("command, flag, doc, named", [
        ("ingest", "--format", {"timestmp": 0}, "'timestmp'"),
        ("ingest", "--format", {"delimiter": 5}, "'delimiter'"),
        ("ingest", "--format", {"timestamp": 1.5}, "'timestamp'"),
        ("ingest", "--format", {"event_code": -1}, "'event_code'"),
        ("ingest", "--grouping", {"codes": 3, "features": []}, "'codes'"),
        ("ingest", "--grouping", {"codes": {"6000": 3}, "features": []}, "code '6000'"),
        ("ingest", "--grouping", {"codes": {}, "features": [3]}, "features[0]"),
        ("ingest", "--grouping",
         {"codes": {"6000": {"group": ["dist"], "severity": "OK"}}, "features": []},
         "code '6000': 'group' must be a string"),
        ("sweep", "--grid", {"FLUS": {"thresholds": [0.5], "ms": [7]}}, "'FLUS'"),
        ("sweep", "--grid", {"PELT": {"costs": ["l2"], "penalty": [1.0]}}, "'penalty'"),
        ("sweep", "--grid", {"PELT": {"costs": ["l2"], "penalties": [1.0], "min_sizes": [2],
                                      "znorm": ["false"]}}, "znorm value 'false'"),
    ], ids=["format", "format-delimiter-type", "format-column-type", "format-negative-index",
            "grouping",
            "grouping-code", "grouping-feature", "grouping-group-type", "grid-method",
            "grid-field", "grid-value-type"])
    def test_malformed_config_file(self, corpus, tmp_path, capsys, command, flag, doc, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        log = tmp_path / "log.csv"
        TestIngest().write_log(log)
        source = log if command == "ingest" else corpus
        capsys.readouterr()
        assert main([command, str(source), flag, str(config),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


    @pytest.mark.parametrize("field, value, named", [
        ("penalties", float("nan"), "nan"), ("penalties", float("inf"), "inf"),
        ("costs", "rbf:nan", "gamma"), ("costs", "rbf:inf", "gamma")])
    def test_non_finite_grid_value_refused_before_any_work(self, corpus, tmp_path, capsys,
                                                           field, value, named):
        doc = {"PELT": {"costs": ["rbf"], "penalties": [1.0], "min_sizes": [2]}}
        doc["PELT"][field] = [value]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))  # NaN / Infinity
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["sweep", str(corpus), "--grid", str(grid), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not (out / "results.csv").exists()


class TestValuesOutOfRange:
    """A non-finite or out-of-range scoring or ingest value is one ``error:``
    line naming it, exit 1, before any input is read or output written."""

    @pytest.mark.parametrize("command, flags, named", [
        ("sweep", ["--pp", "nan"], "pp must be finite"),
        ("sweep", ["--pp-list", "7,nan"], "--pp-list '7,nan'"),
        ("sweep", ["--pp-list", "7,0"], "--pp-list '7,0'"),
        ("sweep", ["--rd", "inf"], "rd must be finite"),
        ("sweep", ["--s=-inf"], "s must be finite"),
        ("evaluate", ["--s", "inf"], "s must be finite"),
        ("report", ["--pp", "inf"], "pp must be finite"),
        ("report", ["--pp-list", "nan"], "--pp-list 'nan'"),
        ("ingest", ["--period-hours", "inf"], "--period-hours"),
        ("ingest", ["--period-hours", "1e20"], "--period-hours"),
        ("ingest", ["--ii", "inf"], "--ii"),
        ("ingest", ["--ii", "1e10"], "--ii"),
    ], ids=["sweep-pp-nan", "sweep-pp-list-nan", "sweep-pp-list-zero", "sweep-rd-inf",
            "sweep-s-minus-inf", "evaluate-s-inf", "report-pp-inf", "report-pp-list-nan",
            "ingest-period-inf", "ingest-period-1e20", "ingest-ii-inf", "ingest-ii-1e10"])
    def test_refused_before_any_work(self, tmp_path, capsys, command, flags, named):
        source = tmp_path / "missing"  # never read: reading it would be another error
        extra = ["--config", "PELT/l2/5.0/2/-/0/-"] if command == "evaluate" else []
        assert main([command, str(source), *extra, *flags,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_never_firing_config(self, corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", str(corpus), "--config", "PELT/l2/1e+300/2/-/0/-",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "recall: 0.0000" in printed
        assert "mean E_s: 0.0000" in printed

    def test_malformed_config_id_is_named(self, corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["evaluate", str(corpus), "--config", "PELT/l2/5.0/two/-/0/-",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: malformed config id 'PELT/l2/5.0/two/-/0/-': invalid literal "
                       "for int() with base 10: 'two'"]
        assert not out.exists()

    def test_trace_rows_count_windows(self, corpus, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", str(corpus), "--config", "PELT/l2/1e+300/2/-/0/-",
                     "--out", str(out)]) == 0
        rows = (out / "traces.csv").read_text().splitlines()[1:]
        from maintseg.ingest import load_cycles
        expected = sum(-(-c.n // 7) for c in load_cycles(corpus))  # ceil(n/7) each
        assert len(rows) == expected

    def test_tuned_config_scores_perfectly(self, corpus, tmp_path, capsys):
        out = tmp_path / "eval2"
        assert main(["evaluate", str(corpus), "--config", "PELT/l2/5.0/2/-/0/-",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "recall: 1.0000" in printed and "precision: 1.0000" in printed

    def test_changepoint_timing_flag(self, corpus, tmp_path, capsys):
        out = tmp_path / "eval3"
        assert main(["evaluate", str(corpus), "--config", "PELT/l2/5.0/2/-/0/-",
                     "--alert-at", "changepoint", "--out", str(out)]) == 0
        # the change-point reading lands ~10 days pre-failure: still all TP
        assert "recall: 1.0000" in capsys.readouterr().out


    def test_step_is_days_at_any_period(self, tmp_path):
        # 240 hourly buckets at --step 7 (days): windows end at 168 and 240
        cycles = bucket_corpus(tmp_path, 1.0, 240)
        out = tmp_path / "eval"
        assert main(["evaluate", str(cycles), "--config", "PELT/l2/1e+300/2/-/0/-",
                     "--step", "7", "--out", str(out)]) == 0
        rows = (out / "traces.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["168", "240"]

    def test_step_not_whole_buckets_is_an_error(self, tmp_path, capsys):
        # one day is 4.8 buckets of 5 hours
        cycles = bucket_corpus(tmp_path, 5.0, 40)
        assert main(["evaluate", str(cycles), "--config", "PELT/l2/1e+300/2/-/0/-",
                     "--step", "1", "--out", str(tmp_path / "eval")]) == 1
        assert "not a whole number of 5-hour buckets" in capsys.readouterr().err


class TestMixedPeriods:
    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_mixed_periods_are_refused_before_any_work(self, tmp_path, capsys, command):
        # a daily cycle and a 480-bucket hourly one: no step or scoring
        # window in buckets fits both
        from dataclasses import replace
        from maintseg.ingest import save_cycle
        cycles = bucket_corpus(tmp_path, 24.0, 60)
        hourly = SynthSpec(n_days_min=480, n_days_max=480, period_hours=1.0,
                           change_offset_days=96)
        save_cycle(replace(generate_corpus(5, 1, hourly)[0], atm_id="hourly"), cycles)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"PELT": TINY_GRID["PELT"]}))
        flags = (["--config", "PELT/l2/5.0/2/-/0/-"] if command == "evaluate"
                 else ["--grid", str(grid)])
        out = tmp_path / "o"
        capsys.readouterr()
        assert main([command, str(cycles), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cycles must share one resampling period\n"
        assert not out.exists()


class TestSweepCommand:
    def test_workers_below_one_refused(self, corpus, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        for workers in ("0", "-2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", str(corpus), "--grid", str(grid), "--workers", workers,
                         "--out", str(out)]) == 1
            assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
            assert not out.exists()  # no manifest of a run that did no work

    @pytest.mark.parametrize("doc, named", [
        ({}, "names no method"),
        ({"PELT": {"costs": ["l2"], "min_sizes": [2]}}, "PELT: missing 'penalties'"),
        ({"PELT": {"costs": ["l2"], "penalties": [1.0], "min_sizes": [2]},
          "BINSEG": {"costs": ["l2"], "min_sizes": [2]}}, "BINSEG: missing 'penalties'"),
        ({"FLUSS": {"thresholds": [0.5], "ms": [7], "znorm": []}}, "FLUSS: 'znorm' is empty"),
    ], ids=["empty", "missing-axis", "missing-axis-beside-a-valid-method", "empty-axis"])
    def test_grid_that_expands_to_nothing_is_refused(self, corpus, tmp_path, capsys, doc,
                                                     named):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["sweep", str(corpus), "--grid", str(grid), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid spec") and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("change", ["settings", "corpus"])
    def test_refused_resume_leaves_the_manifest(self, corpus, tmp_path, capsys, change):
        # a results file of other settings or of another corpus is refused,
        # and the manifest of the run that wrote it stays as it was
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        out = tmp_path / "sweep"
        assert main(["sweep", str(corpus), "--grid", str(grid), "--out", str(out)]) == 0
        before = dir_snapshot(out)
        cycles, flags = ((corpus, ["--step", "14"]) if change == "settings"
                         else (bucket_corpus(tmp_path, 24.0, 60), []))
        capsys.readouterr()
        assert main(["sweep", str(cycles), "--grid", str(grid), *flags,
                     "--out", str(out)]) == 1
        assert "existing results" in capsys.readouterr().err
        assert dir_snapshot(out) == before

    def test_step_is_days_at_any_period(self, tmp_path):
        cycles = bucket_corpus(tmp_path, 1.0, 240)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"PELT": TINY_GRID["PELT"]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cycles), "--grid", str(grid), "--step", "7",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "results.csv.meta.json").read_text())
        assert meta["step"] == 168

    def test_summary_and_results(self, corpus, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        out = tmp_path / "sweep"
        code = main(["sweep", str(corpus), "--grid", str(grid),
                     "--pp-list", "7,14,21", "--out", str(out)])
        assert code == 0
        entries = json.loads((out / "summary.json").read_text())
        assert [e["pp"] for e in entries] == [7, 14, 21]
        for entry in entries:
            assert entry["best_per_sample_mean"] >= entry["best_average_mean"]
        assert (out / "results.csv").exists()
        assert (out / "results.csv.meta.json").exists()

    def test_partial_results_exit_code_2(self, corpus, tmp_path, capsys, monkeypatch):
        import maintseg.protocol as protocol_mod
        real = protocol_mod.detect

        def sabotaged(window, config):
            if config.method == "FLUSS":
                raise RuntimeError("boom")
            return real(window, config)

        monkeypatch.setattr(protocol_mod, "detect", sabotaged)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        out = tmp_path / "sweep"
        code = main(["sweep", str(corpus), "--grid", str(grid), "--out", str(out)])
        assert code == 2
        assert "partial" in capsys.readouterr().err

    def test_dead_worker_exit_code_2_and_rerun_resumes(self, corpus, tmp_path, capsys,
                                                       monkeypatch):
        import os
        import maintseg.protocol as protocol_mod
        real = protocol_mod.detect

        def dies(window, config):
            if config.method == "FLUSS":
                os._exit(1)
            return real(window, config)

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        args = ["sweep", str(corpus), "--grid", str(grid), "--workers", "2"]
        assert main([*args, "--out", str(tmp_path / "fresh")]) == 0
        with monkeypatch.context() as m:
            m.setattr(protocol_mod, "detect", dies)
            assert main([*args, "--out", str(tmp_path / "sweep")]) == 2
        assert "partial" in capsys.readouterr().err
        assert main([*args, "--out", str(tmp_path / "sweep")]) == 0
        for name in ("results.csv", "results.csv.meta.json", "summary.json"):
            assert (tmp_path / "sweep" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()

    def test_log_env_var_accepted(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("MAINTSEG_LOG", "INFO")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"PELT": TINY_GRID["PELT"]}))
        assert main(["sweep", str(corpus), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 0


class TestReport:
    def test_missing_results_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "r")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_results_without_sidecar(self, corpus, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"PELT": TINY_GRID["PELT"]}))
        sweep_out = tmp_path / "sweep"
        main(["sweep", str(corpus), "--grid", str(grid), "--out", str(sweep_out)])
        (sweep_out / "results.csv.meta.json").unlink()
        capsys.readouterr()
        assert main(["report", str(sweep_out / "results.csv"),
                     "--out", str(tmp_path / "report")]) == 1
        assert "no sidecar results.csv.meta.json" in capsys.readouterr().err

    def test_single_method_single_curve(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"PELT": TINY_GRID["PELT"]}))
        sweep_out = tmp_path / "sweep"
        main(["sweep", str(corpus), "--grid", str(grid), "--out", str(sweep_out)])
        report_out = tmp_path / "report"
        assert main(["report", str(sweep_out / "results.csv"),
                     "--out", str(report_out)]) == 0
        curves = sorted(p.name for p in report_out.glob("curve_*.csv"))
        assert curves == ["curve_PELT.csv", "curve_best_per_sample.csv"]

    def test_known_stability_fraction(self, tmp_path, capsys):
        # hand-crafted results: atm a prefers PELT twice, atm b switches methods
        params = BusinessParams()
        rows = [("a", 0, "PELT", 1.0), ("a", 1, "PELT", 1.0),
                ("b", 0, "PELT", 1.0), ("b", 1, "KCPD", 1.0)]
        records = []
        for atm, idx, winner, _ in rows:
            for method in ("PELT", "KCPD"):
                e = 1.0 if method == winner else 0.0
                verdict = Verdict.TP if e == 1.0 else Verdict.FN
                alert = Alert(90, 89, 90) if e == 1.0 else None
                records.append(EvaluationRecord(
                    atm_id=atm, cycle_index=idx,
                    config_id=f"{method}/rbf/1.0/2/-/0/-" if method == "KCPD"
                    else f"{method}/l2/1.0/2/-/0/-",
                    verdict=verdict, alert=alert, e=e, n=100, params=params))
        table = ResultsTable(records=records,
                             config_ids=("PELT/l2/1.0/2/-/0/-", "KCPD/rbf/1.0/2/-/0/-"),
                             fingerprint="x", params=params, step=7,
                             alert_at="window-end", period_hours=24.0)
        path = tmp_path / "results.csv"
        save_results(table, path)
        out = tmp_path / "report"
        assert main(["report", str(path), "--out", str(out)]) == 0
        stability = json.loads((out / "stability.json").read_text())
        assert stability["same_model_fraction"] == 0.5
        assert "0.50" in capsys.readouterr().out


class TestOutputs:
    """Every file the CLI writes is UTF-8 with "\\n" line ends, whatever
    the machine ids and the host's locale."""

    def test_no_output_holds_a_carriage_return(self, corpus, tmp_path):
        log = tmp_path / "log.csv"
        TestIngest().write_log(log, atm_id='"ATM, Paris 1"')  # a quoted field
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        cycles = tmp_path / "ingest" / "cycles"
        for argv in (["ingest", str(log)],
                     ["evaluate", str(cycles), "--config", "PELT/l2/5.0/2/-/0/-"],
                     ["sweep", str(cycles), "--grid", str(grid)],
                     ["report", str(tmp_path / "sweep" / "results.csv")]):
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv
        assert {r.atm_id for r in load_results(tmp_path / "sweep" / "results.csv").records} \
            == {"ATM, Paris 1"}
        # the corpus fixture ran synth into tmp_path / "synth"
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p not in (log, grid)]
        assert {p.parent.name for p in written} >= {"synth", "cycles", "evaluate",
                                                    "sweep", "report"}
        for path in written:
            assert b"\r" not in path.read_bytes(), path
            path.read_bytes().decode("utf-8")

    def test_c_locale_host(self, tmp_path):
        """Without a UTF-8 locale or Python's UTF-8 mode, a non-ASCII machine
        id and feature name are read and written as UTF-8."""
        grouping = json.loads(resources.files("maintseg").joinpath(
            "data/atm_grouping.json").read_text(encoding="utf-8"))
        grouping["features"][0]["name"] = "erreur_distribution_é"
        (tmp_path / "g.json").write_text(json.dumps(grouping, ensure_ascii=False),
                                         encoding="utf-8")
        TestIngest().write_log(tmp_path / "log.csv", atm_id="Zürich-1")
        (tmp_path / "grid.json").write_text(json.dumps({"PELT": TINY_GRID["PELT"]}))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "",
               "PYTHONPATH": str(Path(maintseg.__file__).resolve().parents[1])}
        for argv in (["ingest", "log.csv", "--grouping", "g.json"],
                     ["evaluate", "ingest/cycles", "--config", "PELT/l2/5.0/2/-/0/-"],
                     ["sweep", "ingest/cycles", "--grid", "grid.json"],
                     ["report", "sweep/results.csv"]):
            done = subprocess.run([sys.executable, "-m", "maintseg.cli", *argv,
                                   "--out", argv[0]], cwd=tmp_path, env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, (argv, done.stderr)
        (cycle_csv,) = (tmp_path / "ingest" / "cycles").glob("*.csv")
        assert cycle_csv.read_text(encoding="utf-8").startswith("erreur_distribution_é,")
        for path in ("evaluate/traces.csv", "report/best_per_cycle.csv"):
            assert "Zürich-1," in (tmp_path / path).read_text(encoding="utf-8")


SCORING = {"--rd", "--pp", "--s", "--step", "--alert-at"}


class TestUsage:
    @pytest.mark.parametrize("command, flags", [
        ("ingest", {"--grouping", "--format", "--period-hours", "--ii"}),
        ("evaluate", {"--config", *SCORING}),
        ("sweep", {*SCORING, "--workers", "--grid", "--pp-list"}),
        ("report", {"--pp", "--pp-list"}),
        ("stats", set()),
        ("synth", {"--seed", "--n-cycles", "--n-days-min", "--n-days-max", "--change-offset"}),
    ])
    def test_each_command_has_only_the_flags_it_reads(self, command, flags):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        options = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert options - {"-h", "--help"} == {"--out", *flags}

    @pytest.mark.parametrize("argv", [
        ["stats", "c", "--workers", "2"],
        ["report", "r.csv", "--rd", "5"],
        ["synth", "--step", "3"],
        ["ingest", "l.csv", "--pp", "0"],
        ["evaluate", "c", "--config", "PELT/l2/5.0/2/-/0/-", "--workers", "2"],
    ], ids=lambda argv: argv[0])
    def test_a_dropped_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        # the usage of the command that lacks the flag, not the top-level one
        assert err[0].startswith(f"usage: maintseg {argv[0]} [-h] [--out OUT]")
        if argv[0] == "stats":
            assert err[0] == "usage: maintseg stats [-h] [--out OUT] cycles"
        assert [line for line in err if "error" in line] == err[-1:] == \
            [f"error: unrecognized arguments: {' '.join(argv[-2:])}"]
        assert not (tmp_path / "o").exists()

    def test_negative_infected_interval_is_an_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        TestIngest().write_log(log)
        assert main(["ingest", str(log), "--ii", "-1", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: ii must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["evaluate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "maintseg" in capsys.readouterr().out
