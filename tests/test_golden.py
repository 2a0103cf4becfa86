"""Byte-identity gate: a fixed sweep must keep writing the same results.csv.

The golden files under ``tests/data/`` hold the records of 2 seeded 40-90-day
daily cycles x every 7th default-grid config (201 configs), step 7, once
per alert timing. A change that is meant to keep every result (a faster
solver, a shared cache) must leave them as they are. A change that is meant
to move results, such as making PELT exact at min_size > 1 (ROADMAP item
1), rewrites them on purpose, says so, and reports what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from maintseg.core import BusinessParams
from maintseg.protocol import ALERT_TIMINGS
from maintseg.sweep import build_grid, default_grid, run_sweep, save_results
from maintseg.synth import SynthSpec, generate_corpus

DATA = Path(__file__).resolve().parent / "data"
PARAMS = BusinessParams(rd=1.0, pp=14.0, s=0.2)


def golden_path(alert_at: str) -> Path:
    return DATA / f"golden_results.{alert_at}.csv"


def golden_sweep(alert_at: str, workdir: Path) -> str:
    """Run the golden sweep and return the results.csv it saves."""
    cycles = generate_corpus(1, 2, SynthSpec(n_days_min=40, n_days_max=90))
    configs = build_grid(default_grid())[::7]
    path = workdir / "results.csv"
    save_results(run_sweep(cycles, configs, PARAMS, step=7, alert_at=alert_at), path)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("alert_at", ALERT_TIMINGS)
def test_results_equal_the_golden_file(alert_at, tmp_path):
    got = golden_sweep(alert_at, tmp_path).splitlines()
    want = golden_path(alert_at).read_text(encoding="utf-8").splitlines()
    differing = [f"line {i}: want {w!r}, got {g!r}"
                 for i, (w, g) in enumerate(zip(want, got), 1) if w != g]
    assert not differing, f"{len(differing)} records differ; first:\n" + "\n".join(differing[:5])
    assert len(got) == len(want), f"{len(got)} lines, golden file has {len(want)}"


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for timing in ALERT_TIMINGS:
        with tempfile.TemporaryDirectory() as tmp:
            golden_path(timing).write_text(golden_sweep(timing, Path(tmp)), encoding="utf-8")
        print(f"wrote {golden_path(timing)}")
