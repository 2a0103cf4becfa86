"""maintseg: change-point-detection predictive maintenance evaluation.

Preprocesses categorical machine event logs into severity-ratio time
series, runs five segmentation detectors under a streaming first-alert
protocol, and scores the alerts with a business-constraint metric.
"""

__version__ = "0.1.0"

from .core import BusinessParams, LifeCycle, Window, prefix_windows, znormalize
from .costs import SegmentCost, rbf_bandwidth_median
from .detectors import (
    DetectorConfig,
    Segmentation,
    binseg,
    bottomup,
    detect,
    fluss_cac,
    kcpd,
    matrix_profile,
    pelt,
)
from .metrics import (
    Aggregate,
    EvaluationRecord,
    aggregate,
    best_average_config,
    best_per_sample,
    e_score,
    model_stability,
)
from .protocol import Alert, Verdict, classify, run_streaming
from .sweep import GridSpec, ResultsTable, build_grid, default_grid, run_sweep
from .synth import SynthSpec, generate_corpus

__all__ = [
    "__version__",
    "BusinessParams", "LifeCycle", "Window",
    "prefix_windows", "znormalize",
    "SegmentCost", "rbf_bandwidth_median",
    "DetectorConfig", "Segmentation",
    "pelt", "binseg", "bottomup", "kcpd",
    "matrix_profile", "fluss_cac", "detect",
    "Alert", "Verdict", "classify", "run_streaming",
    "EvaluationRecord", "Aggregate", "e_score", "aggregate",
    "best_average_config", "best_per_sample", "model_stability",
    "GridSpec", "ResultsTable", "build_grid", "default_grid", "run_sweep",
    "SynthSpec", "generate_corpus",
]
