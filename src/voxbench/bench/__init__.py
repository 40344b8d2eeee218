"""Benchmark harness: synthetic corpus, sweep orchestration and reports."""

from ..reduction import ReducerSpec
from .corpus import (
    CorpusManifest,
    ManifestEntry,
    derive_seed,
    generate_synthetic_corpus,
    load_manifest,
    save_manifest,
)
from .harness import (
    ClassifierSpec,
    FrameTable,
    HarnessSettings,
    ScalingCurve,
    SweepGrid,
    default_grid,
    holdout_train_mask,
    roc_auc,
    roc_points,
    run_sweep,
    speaker_scaling_curve,
    write_sweep_outputs,
)
from .reports import (
    REFERENCE_ACCURACY,
    REFERENCE_DISTINGUISHABLE,
    REFERENCE_NOTE,
    REFERENCE_SCALING,
    load_report_json,
)

__all__ = [
    "ClassifierSpec",
    "CorpusManifest",
    "FrameTable",
    "HarnessSettings",
    "ManifestEntry",
    "REFERENCE_ACCURACY",
    "REFERENCE_DISTINGUISHABLE",
    "REFERENCE_NOTE",
    "REFERENCE_SCALING",
    "ReducerSpec",
    "ScalingCurve",
    "SweepGrid",
    "default_grid",
    "derive_seed",
    "generate_synthetic_corpus",
    "holdout_train_mask",
    "load_manifest",
    "load_report_json",
    "roc_auc",
    "roc_points",
    "run_sweep",
    "save_manifest",
    "speaker_scaling_curve",
    "write_sweep_outputs",
]
