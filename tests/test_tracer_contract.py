"""The benchmark's tracer (``bench/tracing.py``) patches maintseg functions
by module and name. Entering and leaving its patches here makes deleting or
renaming any of them a failure of this suite, not only of a traced
benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

from maintseg import sweep
from maintseg.core import BusinessParams
from maintseg.costs import SegmentCost
from maintseg.detectors import DetectorConfig
from maintseg.synth import SynthSpec, generate_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_patches_apply_trace_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    cycles = generate_corpus(2, 1, SynthSpec(n_days_min=30, n_days_max=30))
    # all five methods; a znorm-on family (l2) and the cycle-level l1 family
    l1, rbf = SegmentCost("l1"), SegmentCost("rbf")
    configs = [DetectorConfig("PELT", penalty=1.0, min_size=2),
               DetectorConfig("PELT", penalty=0.5, min_size=2, znorm=True),
               DetectorConfig("PELT", cost=l1, penalty=0.5, min_size=2),
               DetectorConfig("BINSEG", cost=l1, penalty=0.5, min_size=2),
               DetectorConfig("BOTTOMUP", cost=l1, penalty=2.0, min_size=3),
               DetectorConfig("KCPD", cost=rbf, penalty=0.2, min_size=2),
               DetectorConfig("FLUSS", threshold=0.45, m=7)]
    untraced = sweep.run_sweep(cycles, configs, BusinessParams(), step=7).records

    patch = tracing.installed(tracing.Tracer())
    with patch as tracer:
        saved = list(patch.saved)
        replaced = [f"{m.__name__}.{attr}" for m, attr, orig in saved
                    if getattr(m, attr) is not orig]
        traced = sweep.run_sweep(cycles, configs, BusinessParams(), step=7).records
    assert len(replaced) == len(saved) > 0
    assert [name for name, *_ in tracer.spans][:1] == ["sweep.run_sweep"]
    assert traced == untraced
    assert {r.config_id.split("/")[0] for r in traced if r.alert} == \
        {"PELT", "BINSEG", "BOTTOMUP", "KCPD"}
    restored = [f"{m.__name__}.{attr}" for m, attr, orig in saved if getattr(m, attr) is orig]
    assert restored == replaced
