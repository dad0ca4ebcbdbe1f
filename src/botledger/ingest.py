"""Reading and writing status logs and label files.

Status logs are plain CSV: ``character_id,account_id,timestamp`` followed by
the schema's feature columns, one row per snapshot.  Label files are CSV with
a ``# as_of: <timestamp>`` comment line, a ``character_id,label`` header, and
one row per character.  Parsing is strict about structure (bad header is
fatal) but tolerant of bad rows, which are dropped and counted by reason.
The kept rows go into columns, which one sort by (character, timestamp)
turns into one ``Timelines``.

A status log is read once, cut at line starts into byte ranges: one per
usable CPU, none smaller than ``_BLOCK_BYTES``.  The calling process reads
the header and the first range, and ``parallel.run_shares`` parses each
other range in a forked child, each range on a CPU of its own.  A child
that dies (say, stopped by the out-of-memory killer) ends the read with a
``BotledgerError``.  The ranges are joined in file order, so any number of
them gives the rows, dtypes and counts of one.

Each range is read in blocks of whole lines.  Vectorised byte checks screen
each block, and the lines that pass go through one ``np.loadtxt`` call per
block.  A line passes when it has every field, none of them empty, its id
and account are printable ASCII, and its timestamp and values use only
``0-9 . e E + -``.  Any other line goes through the csv module and
``float()`` on its own, in place: blank, short or long rows, padded or
non-ASCII ids, and numerals with spaces or such as ``nan``, ``inf`` or
``1_0``.  A CR LF line end is read as an LF.  A block in any range holding a
quote, a NUL or a CR anywhere else sends the whole file to the csv module,
row by row from the start, as a screened numeral loadtxt rejects (``1e``,
``1.2.3``), a line that is not UTF-8 and a header that does not match do.
On the screened characters loadtxt and ``float()`` accept the same strings
and give the same doubles, so both paths give the same rows, dtypes and
counts.

``write_status_log`` writes a ``StatusLog`` a block of rows per ``%`` call.
It csv-encodes each distinct id and account and formats each distinct
timestamp once, so its bytes are those ``csv.writer`` gives row by row.
"""

from __future__ import annotations

import csv
import io
import math
import os
from array import array
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Mapping

import numpy as np

from . import parallel
from .errors import DataError
from .schema import FeatureSchema, Label, StatusLog, Timelines

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
        """Count rows dropped for ``reason``; a reason that drops none is not listed."""
        if count:
            self.records_dropped += count
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + count

    def to_dict(self) -> dict:
        return {**asdict(self), "records_kept": self.records_kept}


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

    A blank row is skipped and not counted.  A row with the wrong field
    count, an empty id, an id holding a NUL or a timestamp that is not a
    finite number is malformed; otherwise a row with a value that is not a
    finite, non-negative number is invalid.  Plain lines go through
    ``np.loadtxt`` a block at a time, in one byte range per usable CPU, each
    but the first in a forked child; the others through ``_check_row`` one
    csv row at a time.  When any range meets what only the csv module reads
    right, the whole file goes row by row.  All give the same rows and
    counts.  Raises ``BotledgerError`` when a range's child dies.
    """
    want = expected_header(schema)
    try:
        try:
            return _parse_blocks(path, want)
        except (_RowPathNeeded, ValueError, OSError, csv.Error):
            # ValueError: loadtxt rejected a number or a line is not UTF-8.  The
            # per-row path reads the file again and raises the error it always has.
            pass
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_rows(csv.reader(fh), want, path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read status log {path}: {exc}") from exc


def _check_row(row: list[str], n_fields: int, stats: IngestStats) -> tuple[str, list[float]] | None:
    """A csv row's id and its timestamp and values, or None: an empty row is not
    counted, any other counts as read, and one failing a check as dropped for its reason."""
    if not row:
        return None
    stats.records_read += 1
    character_id = row[0].strip()
    # a NUL in an id is malformed: numpy strings drop trailing NULs, merging ids
    if len(row) != n_fields or not character_id or "\0" in character_id or not row[1].strip():
        return stats.drop(REASON_MALFORMED)
    try:
        timestamp = float(row[2])
    except ValueError:
        return stats.drop(REASON_MALFORMED)
    if not math.isfinite(timestamp):
        return stats.drop(REASON_MALFORMED)
    try:
        return character_id, [timestamp, *map(float, row[3:])]
    except ValueError:
        return stats.drop(REASON_INVALID_VALUE)


def _valid(rows: np.ndarray) -> np.ndarray:
    """Which (timestamp, values) rows hold only finite, non-negative values."""
    return np.isfinite(rows[:, 1:]).all(axis=1) & (rows[:, 1:] >= 0.0).all(axis=1)


def _keep_valid(ids: np.ndarray, rows: np.ndarray, stats: IngestStats) -> StatusRows:
    """The (timestamp, values) rows whose values are all finite and non-negative."""
    valid = _valid(rows)
    stats.drop(REASON_INVALID_VALUE, int(len(valid) - valid.sum()))
    return StatusRows(ids[valid], rows[valid, 0], rows[valid, 1:])


def _parse_rows(reader: Iterator[list[str]], want: list[str], path: str | Path) -> tuple[StatusRows, IngestStats]:
    """The per-row path: every csv row through ``_check_row``."""
    stats = IngestStats()
    if next(reader, None) != want:
        raise DataError(f"status log header mismatch in {path}: expected {','.join(want)}")
    ids: list[str] = []
    # packed doubles: per-row lists of float objects take about five times the memory
    rows = array("d")
    for row in reader:
        if checked := _check_row(row, len(want), stats):
            ids.append(checked[0])
            rows.extend(checked[1])
    matrix = np.frombuffer(rows, dtype=float).reshape(len(ids), len(want) - 2)
    return _keep_valid(np.array(ids, dtype=str), matrix, stats), stats


class _RowPathNeeded(Exception):
    """The file holds something that only the per-row path reads as csv does."""


_BLOCK_BYTES = 1 << 18


def _byte_flags(flag: int, allowed: bytes) -> np.ndarray:
    return np.array([0 if b in allowed else flag for b in range(256)], dtype=np.uint8)


# The fast path takes a line whose id and account are printable ASCII and
# whose timestamp and values use only the number characters; on those
# loadtxt and float() accept the same strings and give the same doubles.
_NOT_ID, _NOT_NUMBER = 1, 2
_BYTE_FLAGS = (
    _byte_flags(_NOT_ID, bytes(range(0x21, 0x7F)).replace(b'"', b""))
    | _byte_flags(_NOT_NUMBER, b"0123456789.eE+-,\n")
).tobytes()


def _line_blocks(fh: BinaryIO, size: int | None) -> Iterator[bytes]:
    """The next ``size`` bytes of ``fh``, or the rest when None, in blocks of
    whole lines; only the last may lack its newline."""
    tail = b""
    while size is None or size > 0:
        chunk = fh.read(_BLOCK_BYTES if size is None else min(_BLOCK_BYTES, size))
        if not chunk:
            break
        if size is not None:
            size -= len(chunk)
        tail += chunk
        cut = tail.rfind(b"\n") + 1
        if cut:
            yield tail[:cut]
            tail = tail[cut:]
    if tail:
        yield tail


def _screen(raw: np.ndarray, block: bytes, n_fields: int, limit: int) -> tuple[np.ndarray, ...]:
    """Line starts, ends and id ends of a block, and which lines the fast path takes.

    A line is taken when it has ``n_fields`` non-empty fields, is no longer
    than the csv field size limit, and holds only the bytes above.
    """
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(raw == ord(","))
    first = np.searchsorted(commas, starts)
    fast = (np.searchsorted(commas, ends) - first == n_fields - 1) & (ends - starts <= limit)
    # an empty field: a comma opening or closing the line, or two in a row
    fast &= (raw[starts] != ord(",")) & (raw[ends - 1] != ord(","))
    fast[np.searchsorted(ends, commas[1:][np.diff(commas) == 1])] = False
    lines = np.flatnonzero(fast)
    id_ends = np.zeros_like(ends)
    id_ends[lines] = commas[first[lines]]
    # ids and accounts run up to the second comma, the numbers from it on
    numbers = starts.copy()
    numbers[lines] = commas[first[lines] + 1]
    flags = np.bitwise_or.reduceat(
        np.frombuffer(block.translate(_BYTE_FLAGS), dtype=np.uint8),
        np.column_stack((starts, numbers)).ravel(),
    )
    fast &= (flags[0::2] & _NOT_ID == 0) & (flags[1::2] & _NOT_NUMBER == 0)
    return starts, ends, id_ends, fast


def _ascii_ids(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray, width: int) -> np.ndarray:
    """The ASCII byte ranges ``starts:stops`` of ``raw`` as a numpy string array."""
    offsets = np.arange(width)
    codes = raw[np.minimum(starts[:, None] + offsets, len(raw) - 1)].astype(np.uint32)
    codes[offsets >= (stops - starts)[:, None]] = 0  # numpy strings pad with NULs
    return codes.view(f"U{width}").ravel()


def _parse_block(block: bytes, n_fields: int, limit: int, stats: IngestStats) -> tuple[np.ndarray, np.ndarray]:
    """The ids and (timestamp, values) rows of the lines in ``block`` that
    pass the malformed checks and float() and hold only finite, non-negative
    values, in line order.

    Screened lines go through one ``np.loadtxt``, the others through
    ``_check_row``.  A block of screened lines alone keeps loadtxt's array,
    and one whose every row is kept is not copied again.  The ids are as
    wide as the widest that passed the malformed checks, as ``np.array``
    sizes them on the per-row path.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    starts, ends, id_ends, fast = _screen(raw, block, n_fields, limit)
    slow = np.flatnonzero(~fast)
    n_fast = len(ends) - len(slow)
    if not len(slow):
        rows = _numbers(block, n_fields)
    else:
        rows = np.zeros((len(ends), n_fields - 2))
        if n_fast:
            rows[fast] = _numbers(
                b"".join(block[a:b] for a, b in zip([0, *(ends[slow] + 1)], [*starts[slow], len(block)])), n_fields
            )
    ok = fast & np.isfinite(rows[:, 0])
    stats.records_read += n_fast
    stats.drop(REASON_MALFORMED, n_fast - int(ok.sum()))
    row_ids: dict[int, str] = {}
    for i, row in zip(slow.tolist(), csv.reader([block[starts[i]:ends[i]].decode("utf-8") for i in slow])):
        if checked := _check_row(row, n_fields, stats):
            row_ids[i], rows[i] = checked
            ok[i] = True
    taken = ok & fast
    width = max([int((id_ends[taken] - starts[taken]).max(initial=1)), *map(len, row_ids.values())])
    kept = ok & _valid(rows)
    stats.drop(REASON_INVALID_VALUE, int(ok.sum() - kept.sum()))
    ids = np.zeros(len(ends), dtype=f"U{width}")
    taken &= kept
    ids[taken] = _ascii_ids(raw, starts[taken], id_ends[taken], width)
    for i, character_id in row_ids.items():
        ids[i] = character_id
    return (ids, rows) if kept.all() else (ids[kept], rows[kept])


def _numbers(text: bytes, n_fields: int) -> np.ndarray:
    """The timestamp and values of each screened line of ``text``."""
    return np.loadtxt(
        io.BytesIO(text), delimiter=",", usecols=range(2, n_fields), comments=None, ndmin=2, encoding="ascii"
    )


# A range's blocks: its ids and its (timestamp, values) rows, block by block, and its counts.
_Parsed = tuple[list[np.ndarray], list[np.ndarray], IngestStats]


def _parse_range(fh: BinaryIO, size: int | None, n_fields: int) -> _Parsed:
    """The next ``size`` bytes of ``fh``, or the rest when None, through
    ``_parse_block`` a block at a time.

    A CR directly before an LF ends its line with it, as in the csv module,
    and is dropped.  Raises ``_RowPathNeeded`` at the first block holding a
    quote (a quoted field may span lines), a NUL or any other CR, which only
    the per-row path reads right.
    """
    stats = IngestStats()
    limit = csv.field_size_limit()
    ids: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    for block in _line_blocks(fh, size):
        if b'"' in block or b"\0" in block:
            raise _RowPathNeeded
        if b"\r" in block:  # checked before the last line gets its newline: a final lone CR fails
            if block.count(b"\r") != block.count(b"\r\n"):
                raise _RowPathNeeded
            block = block.replace(b"\r\n", b"\n")
        if not block.endswith(b"\n"):
            block += b"\n"
        block_ids, block_rows = _parse_block(block, n_fields, limit, stats)
        ids.append(block_ids)
        rows.append(block_rows)
    return ids, rows, stats


def _range_starts(fh: BinaryIO, start: int) -> list[int]:
    """Where each range of the log from ``start`` on begins: at the first
    line start at or after each of equal cuts, one cut per usable CPU and no
    range smaller than ``_BLOCK_BYTES``, or just ``start`` without ``fork``."""
    size = os.fstat(fh.fileno()).st_size - start  # 0 for a pipe
    n = max(1, min(parallel.usable_cpus(), size // _BLOCK_BYTES)) if hasattr(os, "fork") else 1
    starts = [start]
    for i in range(1, n):
        fh.seek(start + size * i // n - 1)
        fh.readline()
        if starts[-1] < fh.tell() < start + size:
            starts.append(fh.tell())
    fh.seek(start)
    return starts


def _parse_blocks(path: str | Path, want: list[str]) -> tuple[StatusRows, IngestStats]:
    """The fast path: the log read once, in byte ranges, through ``_parse_range``.

    Raises ``_RowPathNeeded`` when the first line is not the header
    ``want``.  ``parallel.run_shares`` parses the ranges after the first in
    forked children while this process parses the first; their blocks are
    joined in file order, ids and rows each by one ``np.concatenate``.  The
    first range that raises, in file order, raises its error here; a child
    that exits without sending its range raises ``BotledgerError``.  A
    range whose fork fails is parsed here.
    """
    with open(path, "rb") as fh:
        if fh.readline().replace(b"\r\n", b"\n") != (",".join(want) + "\n").encode():
            raise _RowPathNeeded
        starts = _range_starts(fh, fh.tell())

        def later_range(start: int, stop: int | None) -> _Parsed:
            with open(path, "rb") as own:
                own.seek(start)
                return _parse_range(own, None if stop is None else stop - start, len(want))

        parts = parallel.run_shares(
            partial(_parse_range, fh, None if len(starts) == 1 else starts[1] - starts[0], len(want)),
            [partial(later_range, start, stop) for start, stop in zip(starts[1:], [*starts[2:], None])],
            lambda n: f"status log {path}: the process parsing its range {n + 1} died",
        )
    stats = IngestStats()
    for _, _, part_stats in parts:
        stats.records_read += part_stats.records_read
        for reason, count in part_stats.drop_reasons.items():
            stats.drop(reason, count)
    # numpy sizes the ids by the widest parsed one, as np.array(ids) does on the per-row path
    ids = np.concatenate([np.empty(0, dtype="U1"), *(i for block_ids, _, _ in parts for i in block_ids)])
    rows = np.concatenate([np.empty((0, len(want) - 2)), *(r for _, block_rows, _ in parts for r in block_rows)])
    return StatusRows(ids, rows[:, 0], rows[:, 1:]), stats


def build_timelines(
    rows: StatusRows,
    labels: LabelFile | None,
    *,
    keep_unlabeled: bool = False,
) -> tuple[Timelines, IngestStats]:
    """Group rows per character, sort by time, and attach labels.

    Within a character, rows sharing a timestamp collapse to the one that
    appeared last in the input.  A character's ``y`` is the code of its entry
    in ``labels.entries``.  Characters absent from the label file are dropped
    unless ``keep_unlabeled`` (the scoring path) is set, in which case their
    ``y`` is NaN.  Sorting is stable, so equal-timestamp handling does not
    depend on input order beyond last-wins.
    """
    stats = IngestStats()
    stats.records_read = len(rows)

    ids, code = np.unique(rows.character_id, return_inverse=True)
    order = np.lexsort((rows.timestamp, code))  # stable: input order breaks ties
    code, timestamps = code[order], rows.timestamp[order]
    # a row is superseded by the next one when both hold the same character and time
    kept = np.ones(len(order), dtype=bool)
    kept[:-1] = (code[1:] != code[:-1]) | (timestamps[1:] != timestamps[:-1])

    entries = labels.entries if labels is not None else {}
    y = np.array([float(entries.get(cid, np.nan)) for cid in ids.tolist()])
    chars_kept = ~np.isnan(y) | (labels is None or keep_unlabeled)
    of_kept_char = chars_kept[code]
    stats.drop(REASON_UNLABELED, int(np.count_nonzero(~of_kept_char)))
    stats.drop(REASON_DUPLICATE_TIMESTAMP, int(np.count_nonzero(of_kept_char & ~kept)))
    kept &= of_kept_char

    timelines = Timelines(
        character_id=ids[chars_kept],
        y=y[chars_kept],
        bounds=np.append(np.searchsorted(code[kept], np.flatnonzero(chars_kept)), np.count_nonzero(kept)),
        timestamp=timestamps[kept],
        values=rows.values[order[kept]],
    )
    stats.characters_total = len(ids)
    stats.characters_labeled = int(np.count_nonzero(~np.isnan(timelines.y)))
    return timelines, stats


def load_timelines(
    log_path: str | Path,
    labels_path: str | Path | None,
    schema: FeatureSchema,
    *,
    keep_unlabeled: bool = False,
) -> tuple[Timelines, IngestStats]:
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
    """Parse a label file; duplicate characters or unknown labels are fatal.

    The file is csv, so a quoted id reads unquoted, as ingest reads it, and
    may span lines.  Between records, a line starting with ``#`` is a
    comment and a blank line is skipped; inside a quoted field either is
    data.  A fault names the last line of its record.
    """
    entries: dict[str, Label] = {}
    as_of, number, in_record = "", 0, False

    def data_lines(fh):
        nonlocal as_of, number, in_record
        for number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not in_record and stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.lower().startswith("as_of:"):
                    as_of = body[len("as_of:"):].strip()
            elif in_record or stripped:
                in_record = True  # until the reader returns the record this line starts or continues
                yield line

    rows: list[tuple[int, list[str]]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(data_lines(fh)):
                rows.append((number, [c.strip() for c in row]))
                in_record = False
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read label file {path}: {exc}") from exc
    if not rows or rows[0][1] != ["character_id", "label"]:
        raise DataError(f"label file header mismatch in {path}: expected character_id,label")
    for number, parts in rows[1:]:
        if len(parts) != 2 or not parts[0]:
            raise DataError(f"malformed label row on line {number} of {path}: {parts!r}")
        character_id, label_text = parts
        if character_id in entries:
            raise DataError(f"duplicate label entry for character {character_id!r} in {path}")
        entries[character_id] = Label.parse(label_text)
    return LabelFile(entries=entries, as_of=as_of)


# Rows formatted per ``%`` call by ``write_status_log``; bounds its buffers.
_WRITE_BLOCK_ROWS = 4096


def csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one field of a longer row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])  # a lone empty field is quoted
    return out.getvalue()[:-2]


def _encoded(column: np.ndarray, encode: Callable[..., str]) -> np.ndarray:
    """``encode`` of each entry of ``column``, called once per distinct value."""
    distinct, code = np.unique(column, return_inverse=True)
    return np.array([encode(v) for v in distinct.tolist()], dtype=object)[code.ravel()]


def write_status_log(path: str | Path, log: StatusLog, schema: FeatureSchema) -> None:
    """Write ``log`` as a status log, bytes as ``csv.writer`` gives them.

    Ids and accounts are csv-encoded once per distinct string and timestamps
    formatted once per distinct time; a block of rows at a time then goes
    through one ``%`` with two decimals per value.
    """
    if log.values.shape[1] != len(schema):
        raise ValueError(f"log rows hold {log.values.shape[1]} values, the schema {len(schema)} features")
    meta = (_encoded(log.character_id, csv_field), _encoded(log.account_id, csv_field),
            _encoded(log.timestamp, format_timestamp))
    row = "%s,%s,%s" + ",%.2f" * len(schema) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(expected_header(schema))
        for lo in range(0, len(log), _WRITE_BLOCK_ROWS):
            block = slice(lo, lo + _WRITE_BLOCK_ROWS)
            fields = np.column_stack([*(column[block] for column in meta), log.values[block]])
            fh.write(row * len(fields) % tuple(fields.ravel().tolist()))


def write_label_file(path: str | Path, labels: LabelFile) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# as_of: {labels.as_of}\n")
        fh.write("character_id,label\n")
        for character_id in sorted(labels.entries):
            field = csv_field(character_id)
            if field.lstrip().startswith("#"):  # unquoted, the reader would take the row for a comment
                field = f'"{field}"'
            fh.write(f"{field},{labels.entries[character_id].value}\n")


def format_timestamp(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))
