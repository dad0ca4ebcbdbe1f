"""Feature preparation: elimination of uninformative features, min-max
scaling, sliding-window extraction, and distribution summaries.

Elimination applies two rules over the raw (unscaled) timelines:

* rule 1 (indifference): the standardized mean difference between the bot
  and normal groups falls below a threshold, so the feature cannot help
  separate them;
* rule 2 (invariance): the feature is identically zero in both groups.

Scaling maps each series onto [0, 1] with ``(x - min) / (max - min)``; a
degenerate series (max == min) maps to all zeros rather than dividing by
zero.  Windowing then cuts the scaled timelines into fixed-length slices,
all held in one ``WindowSet``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .schema import FeatureSchema, Label, Timelines, WindowSet, at_least, check_settings, setting

# Rule 1 drops a feature when its standardized mean difference is below this.
RULE1_SMD_THRESHOLD = 0.01
# Added to the pooled standard deviation so equal-mean constant features
# yield effect size 0 instead of 0/0.
SMD_EPSILON = 1e-9


class ScalingScope(str, enum.Enum):
    """Where min-max statistics come from: the whole timeline or each window."""

    PER_CHARACTER = "per-character"
    PER_WINDOW = "per-window"


@dataclass(frozen=True)
class WindowConfig:
    window_length: int = setting(24, at_least(2))
    stride: int = setting(12, at_least(1))
    scaling_scope: ScalingScope = ScalingScope.PER_CHARACTER

    def __post_init__(self) -> None:
        check_settings(self)
        object.__setattr__(self, "scaling_scope", ScalingScope(self.scaling_scope))


def _minmax(values: np.ndarray, axis: int) -> np.ndarray:
    """Min-max scale along ``axis``; a constant slice maps to zeros."""
    if not np.isfinite(values).all():
        raise NumericError("cannot scale a series with non-finite values")
    lo = values.min(axis=axis, keepdims=True)
    span = values.max(axis=axis, keepdims=True) - lo
    return np.divide(values - lo, span, out=np.zeros_like(values), where=span != 0.0)


def windows_from_timelines(timelines: Timelines, schema: FeatureSchema, cfg: WindowConfig) -> WindowSet:
    """Scale each character's active features and cut sliding windows, in order.

    Per-character scope scales each feature over the character's whole
    timeline, rows after its last full window included, so windows keep
    their position relative to the character's own range; per-window scope
    rescales each window in isolation.  Characters shorter than one window
    yield none.
    """
    cols = np.array(schema.active_indices(), dtype=np.intp)
    if not len(cols):
        raise ValueError("schema has no active features")
    length = np.diff(timelines.bounds)
    counts = np.where(length >= cfg.window_length, (length - cfg.window_length) // cfg.stride + 1, 0)
    windowed = counts > 0
    counts = counts[windowed]
    first = np.repeat(timelines.bounds[:-1][windowed], counts)
    start = (np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)) * cfg.stride
    # one gather: (windows, steps, features)
    x = timelines.values[(first + start)[:, None, None] + np.arange(cfg.window_length)[:, None], cols]
    if cfg.scaling_scope is ScalingScope.PER_WINDOW:
        x = _minmax(x, axis=1)
    elif len(x):
        lo = np.minimum.reduceat(timelines.values, timelines.bounds[:-1])[windowed][:, cols]
        hi = np.maximum.reduceat(timelines.values, timelines.bounds[:-1])[windowed][:, cols]
        # min and max are finite exactly when every value of the timeline is
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NumericError("cannot scale a series with non-finite values")
        span = np.repeat(hi - lo, counts, axis=0)[:, None]
        x -= np.repeat(lo, counts, axis=0)[:, None]  # exactly 0 wherever the span is 0
        np.divide(x, span, out=x, where=span != 0.0)
    ids = timelines.character_id[windowed]
    return WindowSet(
        x=x,
        y=np.repeat(timelines.y[windowed], counts),
        # only windowed characters' ids set the string width
        character=np.repeat(ids.astype(f"U{np.char.str_len(ids).max(initial=1)}"), counts),
        start=start,
    )


@dataclass(frozen=True)
class FeatureEvidence:
    """Per-feature group statistics backing an elimination decision."""

    name: str
    effect_size: float
    sum_bot: float
    sum_normal: float
    std_bot: float
    std_normal: float
    dropped_rule1: bool
    dropped_rule2: bool

    @property
    def dropped(self) -> bool:
        return self.dropped_rule1 or self.dropped_rule2


@dataclass(frozen=True)
class EliminationReport:
    entries: tuple[FeatureEvidence, ...]
    threshold: float = field(default=RULE1_SMD_THRESHOLD, init=False)
    epsilon: float = field(default=SMD_EPSILON, init=False)

    def dropped_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if e.dropped)


def eliminate_noninfluential(
    timelines: Timelines, schema: FeatureSchema
) -> tuple[FeatureSchema, EliminationReport]:
    """Deactivate features that cannot distinguish bots from normals.

    Statistics are computed over every raw record of every labeled timeline,
    pooled by label, and every such value must be finite; an unlabeled (NaN)
    character takes no part, which is how each cross-validation fold fits on
    its training characters alone.  Both groups must be present; dropping
    every active feature is fatal.  Each moment reduces whole rows of a
    contiguous ``(features, rows)`` copy, with the bits of one column alone.
    """
    row_y = np.repeat(timelines.y, np.diff(timelines.bounds))
    bot, normal = (np.ascontiguousarray(timelines.values[row_y == code].T) for code in (1.0, 0.0))
    if not bot.shape[1] or not normal.shape[1]:
        raise DataError("feature elimination needs records from both label groups")
    if timelines.values.shape[1] != len(schema):
        raise DataError("record width does not match the feature schema")
    if not (np.isfinite(bot).all() and np.isfinite(normal).all()):
        raise NumericError("cannot compute feature statistics over non-finite values")

    sum_b, sum_n = bot.sum(axis=1), normal.sum(axis=1)
    var_b, var_n = bot.var(axis=1), normal.var(axis=1)
    std_b, std_n = np.sqrt(var_b), np.sqrt(var_n)
    effect = np.abs(bot.mean(axis=1) - normal.mean(axis=1)) / (np.sqrt((var_b + var_n) / 2.0) + SMD_EPSILON)
    rule1 = effect < RULE1_SMD_THRESHOLD
    # identically zero in a group <=> zero sum and zero spread
    rule2 = (sum_b == 0.0) & (std_b == 0.0) & (sum_n == 0.0) & (std_n == 0.0)
    columns = zip(*(a.tolist() for a in (effect, sum_b, sum_n, std_b, std_n, rule1, rule2)))
    report = EliminationReport(tuple(FeatureEvidence(f.name, *column) for f, column in zip(schema.features, columns)))
    return schema.deactivate(np.flatnonzero((rule1 | rule2) & np.array(schema.active))), report


@dataclass(frozen=True)
class DistributionRow:
    feature: str
    label: Label
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float


@dataclass(frozen=True)
class DistributionSummary:
    rows: tuple[DistributionRow, ...]
    missing_labels: tuple[Label, ...]


def format_elimination_text(report: EliminationReport) -> str:
    """Fixed-width evidence table, one row per feature."""
    header = (
        f"{'feature':<42}{'status':<10}{'effect_size':>13}"
        f"{'sum_bot':>15}{'sum_normal':>15}{'std_bot':>13}{'std_normal':>13}"
    )
    lines = ["Feature elimination evidence", "=" * len(header), header, "-" * len(header)]
    for e in report.entries:
        if e.dropped_rule2:
            status = "dropped:2"
        elif e.dropped_rule1:
            status = "dropped:1"
        else:
            status = "kept"
        lines.append(
            f"{e.name:<42}{status:<10}{e.effect_size:>13.4g}"
            f"{e.sum_bot:>15.4g}{e.sum_normal:>15.4g}{e.std_bot:>13.4g}{e.std_normal:>13.4g}"
        )
    dropped = report.dropped_names()
    lines.append("-" * len(header))
    lines.append(
        f"dropped {len(dropped)} of {len(report.entries)} features "
        "(rule 1: group means indistinguishable; rule 2: identically zero in both groups)"
    )
    return "\n".join(lines) + "\n"


def format_distribution_text(summary: DistributionSummary) -> str:
    """Fixed-width quartile table of scaled values, grouped by label."""
    header = (
        f"{'feature':<42}{'label':<8}{'min':>8}{'q1':>8}{'median':>8}"
        f"{'q3':>8}{'max':>8}{'mean':>8}"
    )
    lines = ["Scaled feature distribution by label", "=" * len(header), header, "-" * len(header)]
    for row in summary.rows:
        lines.append(
            f"{row.feature:<42}{row.label.value:<8}{row.min:>8.4f}{row.q1:>8.4f}"
            f"{row.median:>8.4f}{row.q3:>8.4f}{row.max:>8.4f}{row.mean:>8.4f}"
        )
    for label in summary.missing_labels:
        lines.append(f"(no {label.value} samples present)")
    return "\n".join(lines) + "\n"


def summarize_distributions(
    samples: WindowSet, schema: FeatureSchema
) -> DistributionSummary:
    """Quartile/mean summary of scaled feature values, pooled per label."""
    if not samples:
        raise ValueError("cannot summarize an empty sample set")
    features = schema.active_features()
    if samples.x.shape[2] != len(features):
        raise ValueError("sample width does not match the schema's active features")

    rows: list[DistributionRow] = []
    missing: list[Label] = []
    for label in (Label.BOT, Label.NORMAL):
        windows = samples.x[samples.y == label.encode()]
        if not len(windows):
            missing.append(label)
            continue
        pooled = windows.reshape(-1, windows.shape[2])
        q1, med, q3 = np.percentile(pooled, [25, 50, 75], axis=0)
        for j, feature in enumerate(features):
            rows.append(
                DistributionRow(
                    feature=feature.name,
                    label=label,
                    min=float(pooled[:, j].min()),
                    q1=float(q1[j]),
                    median=float(med[j]),
                    q3=float(q3[j]),
                    max=float(pooled[:, j].max()),
                    mean=float(pooled[:, j].mean()),
                )
            )
    return DistributionSummary(tuple(rows), tuple(missing))
