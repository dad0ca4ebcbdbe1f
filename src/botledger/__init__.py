"""Game-bot detection from per-character financial status logs."""

from .errors import BotledgerError, DataError, NumericError
from .features import (
    EliminationReport,
    ScalingScope,
    WindowConfig,
    eliminate_noninfluential,
    minmax_scale,
    summarize_distributions,
    windows_from_timelines,
)
from .harness import (
    EvalReport,
    Metrics,
    TrainOptions,
    compute_metrics,
    cross_validate,
    make_folds,
    split_by_period,
    train,
)
from .ingest import build_timelines, load_timelines, parse_status_log, read_label_file
from .model_io import ModelBundle, load_model, save_model
from .network import ModelConfig, ModelParams, forward, gradient_check, init_params
from .schema import FeatureSchema, Label, StatusLog, StatusRecord, Timelines, WindowSet, canonical_schema
from .synth import Archetype, GenConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Archetype",
    "BotledgerError",
    "DataError",
    "EliminationReport",
    "EvalReport",
    "FeatureSchema",
    "GenConfig",
    "Label",
    "Metrics",
    "ModelBundle",
    "ModelConfig",
    "ModelParams",
    "NumericError",
    "ScalingScope",
    "StatusLog",
    "StatusRecord",
    "Timelines",
    "TrainOptions",
    "WindowConfig",
    "WindowSet",
    "build_timelines",
    "canonical_schema",
    "compute_metrics",
    "cross_validate",
    "eliminate_noninfluential",
    "forward",
    "generate",
    "gradient_check",
    "init_params",
    "load_model",
    "load_timelines",
    "make_folds",
    "minmax_scale",
    "parse_status_log",
    "read_label_file",
    "save_model",
    "split_by_period",
    "summarize_distributions",
    "train",
    "windows_from_timelines",
]
