"""Core domain types: labels, the financial feature schema, and the data forms.

The feature schema is the single source of truth for how status-log columns
are named, ordered, and typed.  Every downstream stage (ingestion, feature
elimination, windowing, the model file) carries a ``FeatureSchema`` so that
a trained model can always be applied to a log with the exact column set it
was fitted on.

Data takes three forms, each a set of columns.  The write side holds a log
as one ``StatusLog``: the ids, accounts, times and values of its rows, in
write order, which the synthetic generator fills and the log writer formats
a block of rows at a time; iterating it yields each row as a
``StatusRecord`` view, built on demand.  Ingestion reads a log into one
``Timelines``: every character's rows as shared columns, sorted by
character and then time, with a label code per character and the row
bounds of each.  A stage that works per character or per period selects
rows with a mask or slices a character range; none builds an object per
character.  Windowing cuts the timelines into one ``WindowSet``, an
(N, L, D) window array with a label, a character and a start row per
window; ``samples.npz`` stores exactly those four arrays.

Every JSON artifact is written by ``document``, as ``json.dumps``'s
``default``: a dataclass as its fields.  A config dataclass declares each
field's type as its annotation and its default and range with ``setting``;
``read_document`` reads it back, casting each field by its type with the
strict ``json_value``.  The command line reads types, defaults and ranges
from the same fields.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar, get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataError

T = TypeVar("T")


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


def json_value(typ: type, value: object):
    """A JSON field's ``value`` as ``typ``: a bool only from a JSON boolean, an int
    only from an integral number (``4.0`` is 4) and a float from any number.  Any
    other type, such as ``str`` or an enum, is called on ``value``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is bool and not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    if typ is int and not (number and (isinstance(value, int) or value.is_integer())):
        raise ValueError(f"must be an integer, got {value!r}")
    if typ is float and not number:
        raise ValueError(f"must be a number, got {value!r}")
    return typ(value)


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


@functools.cache
def field_types(cls: type) -> dict[str, type]:
    """Each field of dataclass ``cls`` with its declared type, resolved once per
    class; ``X | None`` reads as ``X``."""
    hints = get_type_hints(cls)
    optional = {name: get_args(t)[0] for name, t in hints.items() if type(None) in get_args(t)}
    return {f.name: optional.get(f.name, hints[f.name]) for f in fields(cls)}


def document(obj: object) -> object:
    """The JSON form of ``obj``, as ``json.dumps``'s ``default``: an enum as its
    value, a dataclass with a ``to_dict`` through it, any other dataclass as its
    fields."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj):
        return obj.to_dict() if hasattr(obj, "to_dict") else {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def read_document(cls: type[T], doc: object, what: str) -> T:
    """A ``cls`` from the JSON that ``document`` writes, each field cast by its
    declared type; any fault, the constructor's own checks included, raises
    ``DataError("malformed <what> document: <field> ...")``."""
    try:
        return _read(cls, doc, "")
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {what} document: {exc}") from exc


def _read(typ: type, value: object, at: str):
    """``value`` as ``typ``, a dataclass read from an object and ``tuple[X, ...]``
    from a list; a fault names the field at path ``at``."""
    if is_dataclass(typ):
        if not isinstance(value, dict):
            raise ValueError(f"{at or 'the document'} must be an object, got {value!r}")
        paths = {name: f"{at}.{name}" if at else name for name in field_types(typ)}
        missing = [path for name, path in paths.items() if name not in value]
        if missing:
            raise ValueError(f"{', '.join(missing)} missing")
        return typ(**{name: _read(t, value[name], paths[name]) for name, t in field_types(typ).items()})
    if get_origin(typ) is tuple:
        if not isinstance(value, (list, tuple)):  # a tuple as asdict leaves it
            raise ValueError(f"{at} must be a list, got {value!r}")
        return tuple(_read(get_args(typ)[0], item, f"{at}[{i}]") for i, item in enumerate(value))
    try:
        return json_value(typ, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{at} {exc}") from None


class FeatureType(str, enum.Enum):
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


class StatusRecord(NamedTuple):
    """One status-log row, as iterating a ``StatusLog`` yields it."""

    character_id: str
    account_id: str
    timestamp: float
    values: np.ndarray  # (n_features,), raw units


@dataclass(frozen=True, eq=False)
class StatusLog:
    """Status-log rows as columns, in the order they are written.

    Row ``i`` is character ``character_id[i]`` of account ``account_id[i]``
    at ``timestamp[i]`` with ``values[i]``.  Iterating yields each row as a
    ``StatusRecord``.
    """

    character_id: np.ndarray  # (N,) str
    account_id: np.ndarray  # (N,) str
    timestamp: np.ndarray  # (N,)
    values: np.ndarray  # (N, n_features), raw units

    def __post_init__(self) -> None:
        for name, dtype in (("character_id", str), ("account_id", str), ("timestamp", float), ("values", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shapes = {self.character_id.shape, self.account_id.shape, self.timestamp.shape, self.values.shape[:1]}
        if self.values.ndim != 2 or len(shapes) != 1:
            raise ValueError("a status log needs id, account and timestamp columns (N,) and values (N, n_features)")

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self) -> Iterator[StatusRecord]:
        columns = (self.character_id.tolist(), self.account_id.tolist(), self.timestamp.tolist(), self.values)
        return map(StatusRecord, *columns)


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
