"""Core domain types: labels, the financial feature schema, and the data forms.

The feature schema is the single source of truth for how status-log columns
are named, ordered, and typed.  Every downstream stage (ingestion, feature
elimination, windowing, the model file) carries a ``FeatureSchema`` so that
a trained model can always be applied to a log with the exact column set it
was fitted on.

Data takes three forms.  ``StatusRecord`` is one log row, as the synthetic
generator emits it and the log writer takes it.  Ingestion reads a log into
one ``CharacterTimeline`` per character: a timestamp vector and a
(T, n_features) value array.  Windowing cuts timelines into one
``WindowSet``, an (N, L, D) window array with a label, a character and a
start row per window; ``samples.npz`` stores exactly those four arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError


class Label(enum.Enum):
    """Ground-truth class of a character."""

    BOT = "bot"
    NORMAL = "normal"

    def encode(self) -> float:
        """Numeric target used by the classifier: bot maps to 1.0."""
        return 1.0 if self is Label.BOT else 0.0

    __float__ = encode  # so label sequences convert straight to target arrays

    @staticmethod
    def parse(text: str) -> "Label":
        try:
            return Label(text.strip().lower())
        except ValueError:
            raise DataError(f"unknown label {text!r} (expected 'bot' or 'normal')") from None


class FeatureType(enum.Enum):
    ITEM = "Item"
    CASH = "Cash"
    EVALUATED_ASSET_VALUE = "EvaluatedAssetValue"


@dataclass(frozen=True)
class Feature:
    """One column of the financial status log."""

    id: int
    name: str
    type: FeatureType

    @property
    def column(self) -> str:
        """CSV column name: the display name lowercased with underscores."""
        return self.name.lower().replace(" ", "_")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list plus a per-feature active mask.

    Deactivated features stay in the schema (ids and order are stable) but are
    excluded from scaling, windowing, and the model input.
    """

    features: tuple[Feature, ...]
    active: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.features) != len(self.active):
            raise ValueError("active mask length must match feature count")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(f.column for f in self.features)

    def active_indices(self) -> tuple[int, ...]:
        return tuple(i for i, keep in enumerate(self.active) if keep)

    def active_features(self) -> tuple[Feature, ...]:
        return tuple(self.features[i] for i in self.active_indices())

    def deactivate(self, indices: Iterable[int]) -> "FeatureSchema":
        drop = set(indices)
        bad = drop - set(range(len(self.features)))
        if bad:
            raise ValueError(f"unknown feature indices: {sorted(bad)}")
        mask = tuple(keep and i not in drop for i, keep in enumerate(self.active))
        if not any(mask):
            raise DataError("no active features remain after deactivation")
        return FeatureSchema(self.features, mask)

    def to_dict(self) -> dict:
        return {
            "features": [
                {"id": f.id, "name": f.name, "type": f.type.value} for f in self.features
            ],
            "active": list(self.active),
        }

    @staticmethod
    def from_dict(doc: dict) -> "FeatureSchema":
        try:
            features = tuple(
                Feature(id=int(f["id"]), name=str(f["name"]), type=FeatureType(f["type"]))
                for f in doc["features"]
            )
            active = tuple(bool(a) for a in doc["active"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed feature schema document: {exc}") from exc
        return FeatureSchema(features, active)


def canonical_schema() -> FeatureSchema:
    """The nine status-log features, in log column order, all active."""
    spec = [
        ("Number of Items", FeatureType.ITEM),
        ("Total Cash", FeatureType.CASH),
        ("Cash in Account", FeatureType.CASH),
        ("Cash in Character Bank", FeatureType.CASH),
        ("Cash in Vendor", FeatureType.CASH),
        ("Evaluated Asset Value", FeatureType.EVALUATED_ASSET_VALUE),
        ("Mailing Asset Value", FeatureType.EVALUATED_ASSET_VALUE),
        ("Evaluated Asset value in character bank", FeatureType.EVALUATED_ASSET_VALUE),
        ("Evaluated Asset in account bank", FeatureType.EVALUATED_ASSET_VALUE),
    ]
    features = tuple(Feature(id=i + 1, name=name, type=ftype) for i, (name, ftype) in enumerate(spec))
    return FeatureSchema(features, (True,) * len(features))


@dataclass(frozen=True, eq=False)
class StatusRecord:
    """One periodic snapshot of a character's financial state."""

    character_id: str
    account_id: str
    timestamp: float
    values: np.ndarray  # shape (n_features,), raw units

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True, eq=False)
class CharacterTimeline:
    """All snapshots of one character as columns, strictly increasing in time.

    ``label`` is None for characters being scored without ground truth.
    """

    character_id: str
    label: Label | None
    timestamps: np.ndarray  # shape (T,)
    values: np.ndarray  # shape (T, n_features), raw units, row t taken at timestamps[t]

    def __post_init__(self) -> None:
        timestamps = np.asarray(self.timestamps, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if timestamps.ndim != 1 or values.ndim != 2 or len(values) != len(timestamps):
            raise ValueError("timeline needs timestamps (T,) and values (T, n_features)")
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, eq=False)
class WindowSet:
    """Fixed-length scaled slices of character timelines, as whole arrays.

    Window ``i`` is ``x[i]``, cut from ``character[i]``'s timeline at row
    ``start[i]``; ``y[i]`` is 1.0 for a bot, 0.0 for a normal character and
    NaN for a window whose character has no label.  Folds group by
    ``character``.
    """

    x: np.ndarray  # (N, window_length, n_active_features), values in [0, 1]
    y: np.ndarray  # (N,)
    character: np.ndarray  # (N,) str
    start: np.ndarray  # (N,) int64

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        character = np.asarray(self.character)
        start = np.asarray(self.start, dtype=np.int64)
        if x.ndim != 3:
            raise ValueError("window array x must be 3-D (windows, steps, features)")
        if not np.isfinite(x).all():
            raise ValueError("window array x contains non-finite values")
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise ValueError("window values must lie in [0, 1]")
        if not y.shape == character.shape == start.shape == (len(x),):
            raise ValueError("y, character and start must hold one entry per window")
        if not ((y == 0.0) | (y == 1.0) | np.isnan(y)).all():
            raise ValueError("window targets must be 0, 1 or NaN (unlabeled)")
        for name, value in (("x", x), ("y", y), ("character", character), ("start", start)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.x)

    def subset(self, index: np.ndarray) -> "WindowSet":
        """The windows picked by a boolean mask or an index array, in that order."""
        return WindowSet(self.x[index], self.y[index], self.character[index], self.start[index])
