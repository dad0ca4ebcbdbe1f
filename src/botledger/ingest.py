"""Reading and writing status logs and label files.

Status logs are plain CSV: ``character_id,account_id,timestamp`` followed by
the schema's feature columns, one row per snapshot.  Label files are CSV with
a ``# as_of: <timestamp>`` comment line, a ``character_id,label`` header, and
one row per character.  Parsing is strict about structure (bad header is
fatal) but tolerant of bad rows, which are dropped and counted by reason.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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


def parse_status_log(path: str | Path, schema: FeatureSchema) -> tuple[list[StatusRecord], IngestStats]:
    """Parse a status log into records, dropping and counting bad rows."""
    stats = IngestStats()
    records: list[StatusRecord] = []
    want = expected_header(schema)
    n_fields = len(want)
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
                if len(row) != n_fields:
                    stats.drop(REASON_MALFORMED)
                    continue
                character_id, account_id = row[0].strip(), row[1].strip()
                if not character_id or not account_id:
                    stats.drop(REASON_MALFORMED)
                    continue
                try:
                    timestamp = float(row[2])
                except ValueError:
                    stats.drop(REASON_MALFORMED)
                    continue
                if not math.isfinite(timestamp):
                    stats.drop(REASON_MALFORMED)
                    continue
                try:
                    values = [float(v) for v in row[3:]]
                except ValueError:
                    stats.drop(REASON_INVALID_VALUE)
                    continue
                if any(not math.isfinite(v) or v < 0.0 for v in values):
                    stats.drop(REASON_INVALID_VALUE)
                    continue
                records.append(
                    StatusRecord(character_id, account_id, timestamp, np.array(values))
                )
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read status log {path}: {exc}") from exc
    return records, stats


def build_timelines(
    records: Sequence[StatusRecord],
    labels: LabelFile | None,
    *,
    keep_unlabeled: bool = False,
) -> tuple[list[CharacterTimeline], IngestStats]:
    """Group records per character, sort by time, and attach labels.

    Within a character, records sharing a timestamp collapse to the one that
    appeared last in the input.  Characters absent from the label file are
    dropped unless ``keep_unlabeled`` (the scoring path) is set, in which case
    they carry ``label=None``.  Sorting is stable, so equal-timestamp handling
    does not depend on input order beyond last-wins.
    """
    stats = IngestStats()
    stats.records_read = len(records)

    groups: dict[str, list[StatusRecord]] = {}
    for rec in records:
        groups.setdefault(rec.character_id, []).append(rec)

    timelines: list[CharacterTimeline] = []
    for character_id in sorted(groups):
        group = groups[character_id]
        label: Label | None = None
        if labels is not None:
            label = labels.entries.get(character_id)
            if label is None and not keep_unlabeled:
                stats.drop(REASON_UNLABELED, len(group))
                continue

        ordered = sorted(group, key=lambda r: r.timestamp)  # stable: input order on ties
        deduped: list[StatusRecord] = []
        for rec in ordered:
            if deduped and rec.timestamp == deduped[-1].timestamp:
                deduped[-1] = rec  # last occurrence in input order wins
                stats.drop(REASON_DUPLICATE_TIMESTAMP)
            else:
                deduped.append(rec)
        timelines.append(CharacterTimeline(character_id, label, tuple(deduped)))

    stats.characters_total = len(groups)
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
    records, stats = parse_status_log(log_path, schema)
    labels = read_label_file(labels_path) if labels_path is not None else None
    timelines, build_stats = build_timelines(records, labels, keep_unlabeled=keep_unlabeled)
    stats.records_dropped += build_stats.records_dropped
    for reason, count in build_stats.drop_reasons.items():
        stats.drop_reasons[reason] = stats.drop_reasons.get(reason, 0) + count
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
