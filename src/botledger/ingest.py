"""Reading and writing status logs and label files.

Status logs are plain CSV: ``character_id,account_id,timestamp`` followed by
the schema's feature columns, one row per snapshot.  Label files are CSV with
a ``# as_of: <timestamp>`` comment line, a ``character_id,label`` header, and
one row per character.  Parsing is strict about structure (bad header is
fatal) but tolerant of bad rows, which are dropped and counted by reason.
The kept rows go into columns, and each character's timeline is a slice of
them after one sort by (character, timestamp).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .schema import CharacterTimeline, FeatureSchema, Label, StatusRecord

META_COLUMNS = ("character_id", "account_id", "timestamp")

# Drop reasons used in IngestStats.drop_reasons.
REASON_MALFORMED = "malformed_row"
REASON_INVALID_VALUE = "invalid_value"
REASON_DUPLICATE_TIMESTAMP = "duplicate_timestamp"
REASON_UNLABELED = "unlabeled"


@dataclass
class IngestStats:
    """Row accounting for one ingestion pass; read = kept + dropped."""

    records_read: int = 0
    records_dropped: int = 0
    characters_total: int = 0
    characters_labeled: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def records_kept(self) -> int:
        return self.records_read - self.records_dropped

    def drop(self, reason: str, count: int = 1) -> None:
        self.records_dropped += count
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + count

    def to_dict(self) -> dict:
        return {
            "records_read": self.records_read,
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "characters_total": self.characters_total,
            "characters_labeled": self.characters_labeled,
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
        }


@dataclass(frozen=True)
class LabelFile:
    """Character to label mapping with the date the labels were taken."""

    entries: Mapping[str, Label]
    as_of: str


def expected_header(schema: FeatureSchema) -> list[str]:
    return list(META_COLUMNS) + list(schema.columns)


@dataclass(frozen=True, eq=False)
class StatusRows:
    """The kept rows of a status log as columns, in input order."""

    character_id: np.ndarray  # (N,) str
    timestamp: np.ndarray  # (N,) float
    values: np.ndarray  # (N, n_features) float, raw units

    def __len__(self) -> int:
        return len(self.timestamp)


def parse_status_log(path: str | Path, schema: FeatureSchema) -> tuple[StatusRows, IngestStats]:
    """Parse a status log into columns, dropping and counting bad rows.

    A row with the wrong field count, an empty id, an id holding a NUL or a
    timestamp that is not a finite number is malformed; otherwise a row with
    a value that is not a finite, non-negative number is invalid.
    """
    stats = IngestStats()
    want = expected_header(schema)
    n_fields = len(want)
    # packed doubles: per-row lists of float objects take about five times the memory
    ids: list[str] = []
    timestamps = array("d")
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != want:
                raise DataError(
                    f"status log header mismatch in {path}: expected {','.join(want)}"
                )
            for row in reader:
                if not row:
                    continue
                stats.records_read += 1
                character_id = row[0].strip()
                # a NUL in an id is malformed: numpy strings drop trailing NULs, merging ids
                if len(row) != n_fields or not character_id or "\0" in character_id or not row[1].strip():
                    stats.drop(REASON_MALFORMED)
                    continue
                try:
                    timestamp = float(row[2])
                except ValueError:
                    timestamp = math.nan
                if not math.isfinite(timestamp):
                    stats.drop(REASON_MALFORMED)
                    continue
                try:
                    values.extend(list(map(float, row[3:])))
                except ValueError:
                    stats.drop(REASON_INVALID_VALUE)
                    continue
                ids.append(character_id)
                timestamps.append(timestamp)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read status log {path}: {exc}") from exc
    matrix = np.frombuffer(values, dtype=float).reshape(len(ids), len(schema))
    valid = np.isfinite(matrix).all(axis=1) & (matrix >= 0.0).all(axis=1)
    if not valid.all():
        stats.drop(REASON_INVALID_VALUE, int(len(valid) - valid.sum()))
    rows = StatusRows(
        np.array(ids, dtype=str)[valid], np.frombuffer(timestamps, dtype=float)[valid], matrix[valid]
    )
    return rows, stats


def build_timelines(
    rows: StatusRows,
    labels: LabelFile | None,
    *,
    keep_unlabeled: bool = False,
) -> tuple[list[CharacterTimeline], IngestStats]:
    """Group rows per character, sort by time, and attach labels.

    Within a character, rows sharing a timestamp collapse to the one that
    appeared last in the input.  Characters absent from the label file are
    dropped unless ``keep_unlabeled`` (the scoring path) is set, in which case
    they carry ``label=None``.  Sorting is stable, so equal-timestamp handling
    does not depend on input order beyond last-wins.
    """
    stats = IngestStats()
    stats.records_read = len(rows)

    ids, code = np.unique(rows.character_id, return_inverse=True)
    order = np.lexsort((rows.timestamp, code))  # stable: input order breaks ties
    code, timestamps, values = code[order], rows.timestamp[order], rows.values[order]
    # a row is superseded by the next one when both hold the same character and time
    kept = np.ones(len(order), dtype=bool)
    kept[:-1] = (code[1:] != code[:-1]) | (timestamps[1:] != timestamps[:-1])
    bounds = np.searchsorted(code, np.arange(len(ids) + 1))

    timelines: list[CharacterTimeline] = []
    for c, character_id in enumerate(ids.tolist()):
        rows_of = slice(bounds[c], bounds[c + 1])
        label: Label | None = None
        if labels is not None:
            label = labels.entries.get(character_id)
            if label is None and not keep_unlabeled:
                stats.drop(REASON_UNLABELED, int(bounds[c + 1] - bounds[c]))
                continue
        keep = kept[rows_of]
        if not keep.all():
            stats.drop(REASON_DUPLICATE_TIMESTAMP, int(len(keep) - keep.sum()))
        timelines.append(
            CharacterTimeline(character_id, label, timestamps[rows_of][keep], values[rows_of][keep])
        )

    stats.characters_total = len(ids)
    stats.characters_labeled = sum(1 for t in timelines if t.label is not None)
    return timelines, stats


def load_timelines(
    log_path: str | Path,
    labels_path: str | Path | None,
    schema: FeatureSchema,
    *,
    keep_unlabeled: bool = False,
) -> tuple[list[CharacterTimeline], IngestStats]:
    """Convenience wrapper: parse a log (and optional labels) into timelines."""
    rows, stats = parse_status_log(log_path, schema)
    labels = read_label_file(labels_path) if labels_path is not None else None
    timelines, build_stats = build_timelines(rows, labels, keep_unlabeled=keep_unlabeled)
    for reason, count in build_stats.drop_reasons.items():
        stats.drop(reason, count)
    stats.characters_total = build_stats.characters_total
    stats.characters_labeled = build_stats.characters_labeled
    return timelines, stats


def read_label_file(path: str | Path) -> LabelFile:
    """Parse a label file; duplicate characters or unknown labels are fatal."""
    entries: dict[str, Label] = {}
    as_of = ""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = []
            for line in fh:
                stripped = line.strip()
                if stripped.startswith("#"):
                    body = stripped.lstrip("#").strip()
                    if body.lower().startswith("as_of:"):
                        as_of = body[len("as_of:"):].strip()
                    continue
                if stripped:
                    rows.append(stripped)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read label file {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0].split(",")] != ["character_id", "label"]:
        raise DataError(f"label file header mismatch in {path}: expected character_id,label")
    for lineno, row in enumerate(rows[1:], start=2):
        parts = [c.strip() for c in row.split(",")]
        if len(parts) != 2 or not parts[0]:
            raise DataError(f"malformed label row {lineno} in {path}: {row!r}")
        character_id, label_text = parts
        if character_id in entries:
            raise DataError(f"duplicate label entry for character {character_id!r} in {path}")
        entries[character_id] = Label.parse(label_text)
    return LabelFile(entries=entries, as_of=as_of)


def write_status_log(path: str | Path, records: Iterable[StatusRecord], schema: FeatureSchema) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(expected_header(schema))
        for rec in records:
            writer.writerow(
                [rec.character_id, rec.account_id, format_timestamp(rec.timestamp)]
                + [f"{v:.2f}" for v in rec.values]
            )


def write_label_file(path: str | Path, labels: LabelFile) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# as_of: {labels.as_of}\n")
        fh.write("character_id,label\n")
        for character_id in sorted(labels.entries):
            fh.write(f"{character_id},{labels.entries[character_id].value}\n")


def format_timestamp(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))
