import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from maintseg.cli import main
from maintseg.core import BusinessParams
from maintseg.protocol import Verdict
from maintseg.sweep import ResultsTable, save_results
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
    def write_log(self, path, n_days=30):
        t0 = datetime(2019, 3, 1, tzinfo=timezone.utc)
        rows = ["timestamp,atm_id,lifecycle_id,event_code"]
        for day in range(n_days):
            ts = t0 + timedelta(days=day)
            rows.append(f"{ts:%Y-%m-%dT%H:%M:%SZ},atm1,0,6000")
        rows.append(f"{t0 + timedelta(days=n_days):%Y-%m-%dT%H:%M:%SZ},atm1,0,6001")
        path.write_text("\n".join(rows) + "\n")

    def test_counts_printed_and_cycles_written(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        self.write_log(log)
        out = tmp_path / "ingested"
        assert main(["ingest", str(log), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "1 cycles, 1 ATMs, 2 unique event codes" in printed
        assert len(list((out / "cycles").glob("*.csv"))) == 1

    def test_empty_input_is_an_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("timestamp,atm_id,lifecycle_id,event_code\n")
        assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == 1
        assert "no parseable" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1

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


class TestEvaluate:
    def test_never_firing_config(self, corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", str(corpus), "--config", "PELT/l2/1e+300/2/-/0/-",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "recall: 0.0000" in printed
        assert "mean E_s: 0.0000" in printed

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


class TestSweepCommand:
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
        import maintseg.sweep as sweep_mod
        real = sweep_mod.run_streaming

        def sabotaged(cycle, config, step, alert_at):
            if config.method == "FLUSS":
                raise RuntimeError("boom")
            return real(cycle, config, step, alert_at)

        monkeypatch.setattr(sweep_mod, "run_streaming", sabotaged)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(TINY_GRID))
        out = tmp_path / "sweep"
        code = main(["sweep", str(corpus), "--grid", str(grid), "--out", str(out)])
        assert code == 2
        assert "partial" in capsys.readouterr().err

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


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["evaluate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "maintseg" in capsys.readouterr().out
