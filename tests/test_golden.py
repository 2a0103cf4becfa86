"""Byte-identity gate: a fixed sweep must keep writing the same outputs.

The golden files under ``tests/data/`` hold what one fixed sweep writes:
4 seeded 40-90-day daily cycles (three of one machine, one of another) x
every 7th default-grid config (201 configs), step 7, once per alert timing.
The third and fourth cycles' samples are quantized to multiples of 1/8, as
ratios of small event counts are in real logs, so ties and flat runs (where
the matrix profile's neighbour choice and the detectors' tie-breaking
decide results) are under the gate too. The fourth is 79 days long, so
FLUSS at m = 5 and 7 has interior arc-curve points (an interior needs
n >= 11 m) on quantized data, and some of its alerts depend on which of
several equally near neighbours the matrix profile picks. With three
cycles of one machine the report's ``one_change_fraction`` has a non-empty
denominator. For each timing there are

* ``golden_results.<timing>.csv``: the records, as ``save_results`` writes
  them;
* ``golden_summary.<timing>.json``: the pp 7, 14 and 21 summary, as
  ``maintseg sweep`` writes it to ``summary.json``;
* ``golden_report.<timing>/``: what ``maintseg report`` writes from those
  records (``curve_*.csv``, ``best_per_cycle.csv``, ``stability.json``);
* ``golden_traces.<timing>.csv``: the ``traces.csv`` that ``maintseg
  evaluate`` writes over the same cycles at step 7 for each config of
  ``TRACE_CONFIGS``, the rows of each after a ``config_id`` column. The
  traces stop at each cycle's first alert, which does not depend on the
  timing; the evaluate run is gated under both timings all the same.

A change that is meant to keep every result (a faster solver, a shared
cache, a smaller API) must leave them as they are. A change that is meant
to move results, such as making PELT exact at min_size > 1 (ROADMAP item
1), rewrites them on purpose, says so, and reports what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maintseg.cli import main
from maintseg.core import BusinessParams
from maintseg.ingest import save_cycle
from maintseg.protocol import ALERT_TIMINGS
from maintseg.sweep import build_grid, default_grid, run_sweep, save_results, sweep_summary
from maintseg.synth import SynthSpec, generate_corpus

DATA = Path(__file__).resolve().parent / "data"
PARAMS = BusinessParams(rd=1.0, pp=14.0, s=0.2)
PP_LIST = [7.0, 14.0, 21.0]  # maintseg sweep's default --pp-list
# One config per method, then cycle-level PELT over l1, PELT with znorm on
# and FLUSS under the "sum" channel rule.
TRACE_CONFIGS = (
    "PELT/l2/43.28761281083057/2/-/0/-",
    "BINSEG/l2/15.199110829529332/2/-/1/-",
    "BOTTOMUP/l2/43.28761281083057/7/-/0/-",
    "KCPD/rbf:1.0/15.199110829529332/2/-/0/-",
    "FLUSS/-/0.48/-/5/0/any",
    "PELT/l1/15.199110829529332/2/-/0/-",
    "PELT/l2/43.28761281083057/2/-/1/-",
    "FLUSS/-/0.51/-/7/1/sum",
)


def results_name(alert_at: str) -> str:
    return f"golden_results.{alert_at}.csv"


def traces_name(alert_at: str) -> str:
    return f"golden_traces.{alert_at}.csv"


def golden_corpus() -> list:
    """``synth0001``'s two cycles, then ``synth0002`` cycle 0 (n = 41) with
    its samples quantized to multiples of 1/8 as ``synth0001`` cycle 2, then
    ``synth0009`` cycle 0 (n = 79), quantized the same way."""
    first, second, third, *_, fourth = generate_corpus(
        1, 15, SynthSpec(n_days_min=40, n_days_max=90))
    return [first, second,
            replace(third, atm_id=first.atm_id, cycle_index=2, samples=quantized(third)),
            replace(fourth, samples=quantized(fourth))]


def quantized(cycle) -> np.ndarray:
    return np.round(cycle.samples * 8) / 8


def golden_outputs(alert_at: str, workdir: Path) -> dict[str, bytes]:
    """Run the golden sweep, summary and report; return each output's bytes
    under its golden file's path relative to ``tests/data``."""
    cycles = golden_corpus()
    configs = build_grid(default_grid())[::7]
    table = run_sweep(cycles, configs, PARAMS, step=7, alert_at=alert_at)
    path = workdir / "results.csv"
    save_results(table, path)
    summary = sweep_summary(table.records, PARAMS, PP_LIST, table.period_hours)
    report = workdir / "report"
    assert main(["report", str(path), "--out", str(report)]) == 0
    return {
        results_name(alert_at): path.read_bytes(),
        f"golden_summary.{alert_at}.json": json.dumps(summary, indent=2).encode(),
        **{f"golden_report.{alert_at}/{p.name}": p.read_bytes()
           for p in sorted(report.iterdir()) if p.name != "manifest.json"},
        traces_name(alert_at): golden_traces(cycles, alert_at, workdir),
    }


def golden_traces(cycles: list, alert_at: str, workdir: Path) -> bytes:
    """``maintseg evaluate``'s traces of each of TRACE_CONFIGS over the
    cycles, saved as cycle files, in one CSV with a leading config_id."""
    cycle_dir = workdir / "cycles"
    cycle_dir.mkdir()
    for cycle in cycles:
        save_cycle(cycle, cycle_dir)
    lines = []
    for i, config_id in enumerate(TRACE_CONFIGS):
        out = workdir / f"evaluate_{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["evaluate", str(cycle_dir), "--config", config_id, "--step", "7",
                         "--alert-at", alert_at, "--out", str(out)]) == 0
        header, *rows = (out / "traces.csv").read_bytes().splitlines(keepends=True)
        lines += [b"config_id," + header] * (i == 0)
        lines += [config_id.encode() + b"," + row for row in rows]
    return b"".join(lines)


@pytest.fixture(scope="module", params=ALERT_TIMINGS)
def outputs(request, tmp_path_factory) -> tuple[str, dict[str, bytes]]:
    """(alert timing, its golden outputs), one sweep per timing."""
    return request.param, golden_outputs(request.param, tmp_path_factory.mktemp("golden"))


def assert_same_lines(name: str, got_files: dict[str, bytes]) -> None:
    """The output under ``name`` equals its golden file byte for byte; a
    difference names the first lines that differ."""
    got = got_files[name].decode("utf-8").splitlines()
    want = (DATA / name).read_text(encoding="utf-8").splitlines()
    differing = [f"line {i}: want {w!r}, got {g!r}"
                 for i, (w, g) in enumerate(zip(want, got), 1) if w != g]
    assert not differing, f"{len(differing)} lines differ; first:\n" + "\n".join(differing[:5])
    assert len(got) == len(want), f"{len(got)} lines, golden file has {len(want)}"
    assert got_files[name] == (DATA / name).read_bytes()


def test_results_equal_the_golden_file(outputs):
    alert_at, got_files = outputs
    assert_same_lines(results_name(alert_at), got_files)


def test_summary_and_report_equal_the_golden_files(outputs):
    alert_at, got_files = outputs
    report_dir = DATA / f"golden_report.{alert_at}"
    want_names = {f"golden_summary.{alert_at}.json",
                  *(f"{report_dir.name}/{p.name}" for p in report_dir.iterdir())}
    got_names = set(got_files) - {results_name(alert_at), traces_name(alert_at)}
    assert got_names == want_names
    differing = sorted(name for name in want_names
                       if (DATA / name).read_bytes() != got_files[name])
    assert not differing, f"differ from their golden files: {differing}"


def test_traces_equal_the_golden_file(outputs):
    alert_at, got_files = outputs
    assert_same_lines(traces_name(alert_at), got_files)


if __name__ == "__main__":
    import tempfile

    for timing in ALERT_TIMINGS:
        with tempfile.TemporaryDirectory() as tmp:
            files = golden_outputs(timing, Path(tmp))
        for stale in (DATA / f"golden_report.{timing}").glob("*"):
            stale.unlink()
        for name, data in files.items():
            (DATA / name).parent.mkdir(parents=True, exist_ok=True)
            (DATA / name).write_bytes(data)
        print(f"wrote {len(files)} golden files for alert timing {timing}")
