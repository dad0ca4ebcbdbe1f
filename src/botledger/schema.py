"""Core domain types: labels, the financial feature schema, and the data forms.

The feature schema is the single source of truth for how status-log columns
are named, ordered, and typed.  Every downstream stage (ingestion, feature
elimination, windowing, the model file) carries a ``FeatureSchema`` so that
a trained model can always be applied to a log with the exact column set it
was fitted on.

Data takes three forms.  ``StatusRecord`` is one log row, as the synthetic
generator emits it and the log writer takes it.  Ingestion reads a log into
one ``Timelines``: every character's rows as shared columns, sorted by
character and then time, with a label code per character and the row bounds
of each.  A stage that works per character or per period selects rows with a
mask or slices a character range; none builds an object per character.
Windowing cuts the timelines into one ``WindowSet``, an (N, L, D) window
array with a label, a character and a start row per window;
``samples.npz`` stores exactly those four arrays.

The strict JSON casts (``json_int``, ``json_bool``, ``json_float``) and the
config ranges live here too.  A config dataclass declares each field's
default and allowed range once, with ``setting``, and ``check_settings`` is
its range check; the command line reads both from the same fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterable, NamedTuple

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


def json_int(value: object) -> int:
    """A JSON integer field: an integral number (``4.0`` is 4), never a boolean or a string."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def json_bool(value: object) -> bool:
    """A JSON switch: ``true`` or ``false``, never a number or a string."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def json_float(value: object) -> float:
    """A JSON number field as a float, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


class Range(NamedTuple):
    """A setting's allowed values: a test, and how an error message states it."""

    test: Callable[[float], bool]
    text: str


def at_least(low: int) -> Range:
    return Range(lambda v: v >= low, "non-negative" if low == 0 else f"at least {low}")


POSITIVE = Range(lambda v: v > 0, "positive")
UNIT = Range(lambda v: 0 <= v <= 1, "in [0, 1]")
UNIT_OPEN = Range(lambda v: 0 <= v < 1, "in [0, 1)")


def setting(default: object = MISSING, allowed: Range | None = None):
    """A config field with its default and its allowed range, for ``check_settings``."""
    return field(default=default, metadata={"allowed": allowed})


def check_setting(value: object, allowed: Range | None) -> None:
    """Raise ``ValueError`` if ``value`` is a non-finite float or lies outside ``allowed``."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    if allowed is not None and not allowed.test(value):
        raise ValueError(f"must be {allowed.text}, got {value}")


def check_settings(config: object) -> None:
    """Check every set field of a config dataclass against its ``setting`` range;
    a field left at ``None`` is unset."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is not None:
            try:
                check_setting(value, f.metadata.get("allowed"))
            except ValueError as exc:
                raise ValueError(f"{f.name} {exc}") from None


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
                Feature(id=json_int(f["id"]), name=str(f["name"]), type=FeatureType(f["type"]))
                for f in doc["features"]
            )
            active = tuple(json_bool(a) for a in doc["active"])
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
class Timelines:
    """Every character's snapshots as columns, sorted by character and time.

    Character ``c`` is ``character_id[c]`` (ascending) with target ``y[c]``,
    coded like ``WindowSet.y``.  Its rows are ``bounds[c]:bounds[c + 1]`` of
    ``timestamp`` and ``values``, strictly increasing in time, and every
    character owns at least one row.
    """

    character_id: np.ndarray  # (C,) str
    y: np.ndarray  # (C,) 1.0 bot, 0.0 normal, NaN unlabeled
    bounds: np.ndarray  # (C + 1,) int64, from 0 to N
    timestamp: np.ndarray  # (N,)
    values: np.ndarray  # (N, n_features), raw units

    def __post_init__(self) -> None:
        for name, dtype in (("character_id", str), ("y", float), ("bounds", np.int64), ("timestamp", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        n_rows, bounds = len(self.timestamp), self.bounds
        if self.timestamp.ndim != 1 or self.values.ndim != 2 or len(self.values) != n_rows:
            raise ValueError("timelines need timestamp (N,) and values (N, n_features)")
        if not self.character_id.shape == self.y.shape == (len(bounds) - 1,):
            raise ValueError("character_id and y need one entry per character, bounds one more")
        if bounds[0] != 0 or bounds[-1] != n_rows or (np.diff(bounds) < 1).any():
            raise ValueError("bounds must rise from 0 to the row count by at least one row")

    def __len__(self) -> int:
        return len(self.character_id)

    def __getitem__(self, characters: slice) -> "Timelines":
        """A range of characters, sharing this object's row arrays."""
        start, stop, step = characters.indices(len(self))
        if step != 1:
            raise ValueError("only contiguous character ranges can be sliced")
        lo, hi = self.bounds[start], self.bounds[stop]
        return Timelines(
            self.character_id[start:stop], self.y[start:stop], self.bounds[start : stop + 1] - lo,
            self.timestamp[lo:hi], self.values[lo:hi],
        )

    def select(self, rows: np.ndarray) -> "Timelines":
        """The rows a boolean mask keeps; a character left with none is dropped."""
        ends = np.concatenate(([0], np.cumsum(rows)))[self.bounds]
        owned = ends[1:] > ends[:-1]
        return Timelines(
            self.character_id[owned], self.y[owned], np.concatenate(([0], ends[1:][owned])),
            self.timestamp[rows], self.values[rows],
        )


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
        for name, dtype in (("x", float), ("y", float), ("character", None), ("start", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        x, y = self.x, self.y
        if x.ndim != 3:
            raise ValueError("window array x must be 3-D (windows, steps, features)")
        if not np.isfinite(x).all():
            raise ValueError("window array x contains non-finite values")
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise ValueError("window values must lie in [0, 1]")
        if not y.shape == self.character.shape == self.start.shape == (len(x),):
            raise ValueError("y, character and start must hold one entry per window")
        if not ((y == 0.0) | (y == 1.0) | np.isnan(y)).all():
            raise ValueError("window targets must be 0, 1 or NaN (unlabeled)")

    def __len__(self) -> int:
        return len(self.x)

    def subset(self, index: np.ndarray) -> "WindowSet":
        """The windows picked by a boolean mask or an index array, in that order."""
        return WindowSet(self.x[index], self.y[index], self.character[index], self.start[index])
