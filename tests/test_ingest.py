import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from botledger import ingest
from botledger.errors import DataError
from botledger.ingest import (
    LabelFile,
    StatusRows,
    build_timelines,
    expected_header,
    load_timelines,
    parse_status_log,
    read_label_file,
    write_label_file,
    write_status_log,
)
from botledger.schema import Label, StatusLog, StatusRecord, canonical_schema

SCHEMA = canonical_schema()


def _write_log(path, rows):
    lines = [",".join(expected_header(SCHEMA))] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _row(cid="c1", acct="a1", ts=0, values=None):
    values = values if values is not None else [1.0] * 9
    return f"{cid},{acct},{ts}," + ",".join(str(v) for v in values)


def test_parse_clean_rows(tmp_path) -> None:
    path = tmp_path / "log.csv"
    _write_log(path, [_row(ts=t) for t in range(3)])
    records, stats = parse_status_log(path, SCHEMA)
    assert len(records) == 3
    assert stats.records_read == 3
    assert stats.records_dropped == 0
    assert records.values[0].tolist() == [1.0] * 9


def test_parse_drops_invalid_values(tmp_path) -> None:
    path = tmp_path / "log.csv"
    bad_nan = _row(ts=1, values=["nan"] + ["1"] * 8)
    bad_neg = _row(ts=2, values=["-3"] + ["1"] * 8)
    bad_text = _row(ts=3, values=["soup"] + ["1"] * 8)
    _write_log(path, [_row(ts=0), bad_nan, bad_neg, bad_text])
    records, stats = parse_status_log(path, SCHEMA)
    assert len(records) == 1
    assert stats.records_read == 4
    assert stats.drop_reasons == {"invalid_value": 3}
    assert stats.records_kept == 1


def test_parse_drops_malformed_rows(tmp_path) -> None:
    path = tmp_path / "log.csv"
    short = "c1,a1,0,1,2"
    bad_ts = _row(ts="whenever")
    no_id = _row(cid="")
    _write_log(path, [short, bad_ts, no_id, _row(ts=9)])
    records, stats = parse_status_log(path, SCHEMA)
    assert len(records) == 1
    assert stats.drop_reasons == {"malformed_row": 3}


def test_parse_rejects_nul_in_character_id(tmp_path) -> None:
    # numpy string arrays drop trailing NULs, so "c1\0" would merge into "c1"
    path = tmp_path / "log.csv"
    _write_log(path, [_row(cid="c1\0", ts=0), _row(cid="c\0x", ts=0), _row(cid="c1", ts=1)])
    records, stats = parse_status_log(path, SCHEMA)
    assert records.character_id.tolist() == ["c1"]
    assert stats.drop_reasons == {"malformed_row": 2}


def test_parse_header_mismatch_is_fatal(tmp_path) -> None:
    path = tmp_path / "log.csv"
    header = ",".join(expected_header(SCHEMA)[:-1])  # missing a column
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        parse_status_log(path, SCHEMA)


def test_parse_missing_file_is_fatal(tmp_path) -> None:
    with pytest.raises(DataError):
        parse_status_log(tmp_path / "nope.csv", SCHEMA)


def _mixed_log_lines(n_clean=8000):
    """Clean rows with one of every line class the parser tells apart mixed in."""
    odd = [
        "c1,a1,5,1,2,3",  # short
        _row(ts=6) + ",9",  # long
        _row(ts="t100"),
        _row(ts="1_0"),
        _row(ts="1e999"),
        _row(ts=" 7 "),
        _row(ts=""),
        _row(ts=8, values=["nan"] + ["1"] * 8),
        _row(ts=9, values=["1", "inf"] + ["1"] * 7),
        _row(ts=10, values=["infinity"] + ["1"] * 8),
        _row(ts=11, values=["1e999"] + ["1"] * 8),
        _row(ts=12, values=["-2"] + ["1"] * 8),
        _row(ts=13, values=[""] + ["1"] * 8),
        _row(ts=14, values=["soup"] + ["1"] * 8),
        _row(ts=15, values=["-0", "+3", ".5", "5.", "1E-2", "4.9e-324", "1e3", "0", "7_0"]),
        _row(ts=16, values=["-0", "+3", ".5", "5.", "1E-2", "4.9e-324", "1e3", "0", "7"]),
        _row(cid=" c2 ", ts=17),
        _row(cid="cé", ts=18),
        _row(cid="c#3", ts=19),
        _row(cid="", ts=20),
        _row(acct=" ", ts=21),
        _row(cid="an-id-longer-than-any-kept-one", ts=22, values=["-1"] + ["1"] * 8),
        "# a comment",
        "",
        "   ",
        ",,,,,,,,,,,",
    ]
    rng = np.random.default_rng(3)
    lines = [_row(cid=f"c{i % 40}", ts=i // 40, values=rng.random(9).round(2)) for i in range(n_clean)]
    for line in odd * 3:
        lines.insert(int(rng.integers(0, len(lines))), line)
    lines.insert(0, _row(cid="c2", ts=0))  # the last row repeats its timestamp
    lines.append(_row(cid="c2", ts=0))
    return lines


def _parse_per_row(path):
    """The per-row csv path the fast path must agree with."""
    with open(path, newline="", encoding="utf-8") as fh:
        return ingest._parse_rows(csv.reader(fh), expected_header(SCHEMA), path)


def _as_compared(parsed):
    rows, stats = parsed
    return (
        rows.character_id.dtype,
        rows.character_id.tolist(),
        rows.timestamp.tobytes(),
        rows.values.tobytes(),
        stats.to_dict(),
    )


@pytest.mark.parametrize("block_bytes", [ingest._BLOCK_BYTES, 4093])
def test_fast_path_matches_per_row_path(block_bytes, monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    header = ",".join(expected_header(SCHEMA))
    body = "\n".join([header, *_mixed_log_lines()])
    assert len(body) > 3 * ingest._BLOCK_BYTES // 2  # block edges fall inside the log
    path = tmp_path / "log.csv"
    for variant, text in [
        ("mixed", body + "\n"),
        ("no final newline", body),
        ("nul in an id", body + "\n" + _row(cid="c1\0") + "\n"),
        ("quoted field", body + '\n"c,4",a1,1,1,1,1,1,1,1,1,1,1\n'),
        ("crlf", body.replace("\n", "\r\n") + "\r\n"),
        ("loadtxt rejects a number", body + "\n" + _row(values=["1e"] + ["1"] * 8) + "\n"),
    ]:
        path.write_bytes(text.encode("utf-8"))
        want = _as_compared(_parse_per_row(path))
        assert _as_compared(parse_status_log(path, SCHEMA)) == want, variant
        if variant in ("mixed", "no final newline", "crlf"):
            assert _as_compared(ingest._parse_blocks(path, expected_header(SCHEMA))) == want, variant
        else:
            with pytest.raises((ingest._RowPathNeeded, ValueError)):
                ingest._parse_blocks(path, expected_header(SCHEMA))
    # the widest id was on an invalid row; numpy sizes the id array by it all the same
    assert want[0] == np.dtype("U30")


@pytest.mark.parametrize("block_bytes", [ingest._BLOCK_BYTES, 4093])
def test_crlf_log_takes_the_fast_path(block_bytes, monkeypatch, tmp_path) -> None:
    # reads of 4093 bytes split four CR LF pairs of this log between two reads
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    body = "\n".join([",".join(expected_header(SCHEMA)), *_mixed_log_lines()]) + "\n"
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(body.encode("utf-8"))
    crlf.write_bytes(body.replace("\n", "\r\n").encode("utf-8"))
    want = _as_compared(parse_status_log(lf, SCHEMA))

    def per_row(*args):
        raise AssertionError("a CRLF log went row by row")

    monkeypatch.setattr(ingest, "_parse_rows", per_row)
    assert _as_compared(parse_status_log(crlf, SCHEMA)) == want


@pytest.mark.parametrize("block_bytes", [ingest._BLOCK_BYTES, 4093])
def test_fast_path_reads_the_log_once(block_bytes, monkeypatch, tmp_path) -> None:
    # one range reads every byte once; more ranges re-read at most a buffer each side of a cut:
    # finding the cut, and a range's last buffered read; and the first range's head, which the
    # header's read buffered
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "log.csv"
    path.write_text("\n".join([",".join(expected_header(SCHEMA)), *_mixed_log_lines()]) + "\n", encoding="utf-8")
    size = path.stat().st_size
    counts = tmp_path / "reads"

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            with open(counts, "a", encoding="ascii") as fh:  # range children count here too
                fh.write(f"{n}\n")
            return n

    def counting_open(file, mode):
        assert mode == "rb"
        return io.BufferedReader(CountingFile(file))

    want = _as_compared(_parse_per_row(path))
    monkeypatch.setattr(ingest, "open", counting_open, raising=False)
    for cpus in (1, 3):
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        counts.write_text("", encoding="ascii")
        assert _as_compared(ingest._parse_blocks(path, expected_header(SCHEMA))) == want
        read = sum(map(int, counts.read_text(encoding="ascii").split()))
        ranges = min(cpus, size // block_bytes)
        assert read == size if ranges == 1 else size < read < size + 2 * ranges * io.DEFAULT_BUFFER_SIZE, (cpus, read)


@pytest.mark.parametrize(
    "text",
    ["{body}\r", "{body}1\r2\n", "{header}\r{body}", "{body}\r\r\n", "{body}\n\r"],
    ids=["cr at the end", "cr inside a row", "cr ending the header", "cr before crlf", "cr after lf"],
)
def test_lone_cr_goes_row_by_row(text, tmp_path) -> None:
    header = ",".join(expected_header(SCHEMA))
    body = "\r\n".join([header, *_mixed_log_lines(400)])
    path = tmp_path / "log.csv"
    path.write_bytes(text.format(header=header, body=body).encode("utf-8"))
    with pytest.raises(ingest._RowPathNeeded):
        ingest._parse_blocks(path, expected_header(SCHEMA))
    assert _as_compared(parse_status_log(path, SCHEMA)) == _as_compared(_parse_per_row(path))


def test_lone_cr_ending_a_read_goes_row_by_row(monkeypatch, tmp_path) -> None:
    header = (",".join(expected_header(SCHEMA)) + "\r\n").encode("utf-8")
    body = ("\r\n".join(_mixed_log_lines(400)) + "\r\n").encode("utf-8")
    at = next(i for i in range(4000, len(body)) if body[i - 1 : i + 1].isalnum())  # inside a field
    # the CR is the last byte of the first read, and the next read starts with no LF
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", at + 1)
    path = tmp_path / "log.csv"
    path.write_bytes(header + body[:at] + b"\r" + body[at:])
    with pytest.raises(ingest._RowPathNeeded):
        ingest._parse_blocks(path, expected_header(SCHEMA))
    assert _as_compared(parse_status_log(path, SCHEMA)) == _as_compared(_parse_per_row(path))


def test_field_over_csv_limit_is_fatal_on_both_paths(tmp_path) -> None:
    path = tmp_path / "log.csv"
    lines = _mixed_log_lines(200)
    lines.insert(100, _row(values=["1" * (csv.field_size_limit() + 1)] + ["1"] * 8))
    _write_log(path, lines)
    with pytest.raises(csv.Error, match="field larger than field limit"):
        _parse_per_row(path)
    with pytest.raises(DataError, match="field larger than field limit"):
        parse_status_log(path, SCHEMA)


RANGES = pytest.mark.skipif(not hasattr(os, "fork"), reason="a log is read in one range here")


def _range_log(path, text=lambda body: body + "\n"):
    """A log of clean rows alternating with the dirty lines of ``_mixed_log_lines``, so one of the
    two lines at every cut is dirty, written as ``text`` of its lines joined by LFs; three ranges
    of several blocks each once ``_BLOCK_BYTES`` is 4093."""
    dirty = _mixed_log_lines(1)
    clean = [_row(cid=f"c{i % 7}", ts=i, values=[i % 10, 1.5, 0, 2, 3, 4, 5, 6, 7]) for i in range(800)]
    lines = [line for i, row in enumerate(clean) for line in (row, dirty[i % len(dirty)])]
    path.write_bytes(text("\n".join([",".join(expected_header(SCHEMA)), *lines])).encode("utf-8"))


def _forks_recorded(monkeypatch) -> list[int]:
    """The pids ``os.fork`` returns to this process from now on."""
    forked: list[int] = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def _assert_reaped(pids) -> None:
    """Every child in ``pids`` is reaped, and this thread may run on every CPU again."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    if hasattr(os, "sched_getaffinity"):
        assert os.sched_getaffinity(0) == _CPUS


_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@RANGES
@pytest.mark.parametrize(
    "text",
    [lambda body: body + "\n", lambda body: body.replace("\n", "\r\n") + "\r\n", lambda body: body],
    ids=["dirty rows at the cuts", "crlf", "no final newline"],
)
def test_ranges_give_the_rows_and_counts_of_one(text, monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4093)
    path = tmp_path / "log.csv"
    _range_log(path, text)
    forked = _forks_recorded(monkeypatch)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 1)
    one = _as_compared(ingest._parse_blocks(path, expected_header(SCHEMA)))
    assert one == _as_compared(_parse_per_row(path))
    assert not forked
    for cpus in (2, 3):
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        assert _as_compared(ingest._parse_blocks(path, expected_header(SCHEMA))) == one, cpus
        assert len(forked) == cpus - 1
        _assert_reaped(forked)
        forked.clear()


@RANGES
@pytest.mark.parametrize(
    "last",
    [b'"c,4",a1,1,1,1,1,1,1,1,1,1,1', _row(cid="c\0").encode(), b"c\xff" + _row()[2:].encode(),
     _row(values=["1e"] + ["1"] * 8).encode()],
    ids=["quote", "nul", "not utf-8", "loadtxt rejects a number"],
)
def test_a_range_that_needs_the_row_path_sends_the_whole_file_there(last, monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4093)
    path = tmp_path / "log.csv"
    _range_log(path)
    path.write_bytes(path.read_bytes() + last + b"\n")
    forked = _forks_recorded(monkeypatch)
    row_path = []
    real_parse_rows = ingest._parse_rows

    def recording_parse_rows(*args):
        row_path.append(True)
        return real_parse_rows(*args)

    monkeypatch.setattr(ingest, "_parse_rows", recording_parse_rows)
    outcomes = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        row_path.clear()
        try:
            outcomes.append(_as_compared(parse_status_log(path, SCHEMA)))
        except DataError as exc:
            outcomes.append(str(exc))
        assert row_path == [True], cpus
        assert len(forked) == cpus - 1
        _assert_reaped(forked)
        forked.clear()
    assert outcomes[1] == outcomes[2] == outcomes[0]
    if b"\xff" in last:
        assert "can't decode byte 0xff" in outcomes[0]
    else:
        assert outcomes[0] == _as_compared(_parse_per_row(path))


@RANGES
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_bad_header_goes_row_by_row_before_any_fork(cpus, monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4093)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
    path = tmp_path / "log.csv"
    _range_log(path)
    path.write_bytes(path.read_bytes().replace(b"character_id", b"char_id", 1))
    forked = _forks_recorded(monkeypatch)
    with pytest.raises(DataError, match="status log header mismatch"):
        parse_status_log(path, SCHEMA)
    assert not forked


@RANGES
def test_log_smaller_than_two_blocks_forks_nothing(monkeypatch, tmp_path) -> None:
    path = tmp_path / "log.csv"
    _range_log(path)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", path.stat().st_size // 2)
    forked = _forks_recorded(monkeypatch)
    assert _as_compared(parse_status_log(path, SCHEMA)) == _as_compared(_parse_per_row(path))
    assert not forked


@RANGES
@pytest.mark.parametrize("where", ["first", "last"])
def test_no_child_is_left_after_a_failed_read(where, monkeypatch, tmp_path) -> None:
    # a quote in the first range fails here while the children parse; in the last, in a child
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4093)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 3)
    path = tmp_path / "log.csv"
    _range_log(path)
    header, body = path.read_bytes().split(b"\n", 1)
    quoted = b'"c,4",a1,1,1,1,1,1,1,1,1,1,1\n'
    path.write_bytes(header + b"\n" + (quoted + body if where == "first" else body + quoted))
    forked = _forks_recorded(monkeypatch)
    with pytest.raises(ingest._RowPathNeeded):
        ingest._parse_blocks(path, expected_header(SCHEMA))
    assert len(forked) == 2
    _assert_reaped(forked)


@RANGES
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="open descriptors are listed only on Linux")
def test_a_fork_that_fails_sends_the_file_row_by_row_and_leaks_no_pipe(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4093)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 3)
    path = tmp_path / "log.csv"
    _range_log(path)
    want = _as_compared(_parse_per_row(path))
    real_fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(True)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    assert _as_compared(parse_status_log(path, SCHEMA)) == want
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    _assert_reaped([])


# Runs the command in argv under three usable CPUs and 4093-byte blocks, where the child parsing
# each range after the first kills itself, and prints the exit code and whether a child is left.
_KILLED_RANGE_RUN = """
import os, signal, sys
from botledger import cli, ingest

caller, real_parse_block = os.getpid(), ingest._parse_block

def killing_parse_block(*args):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_parse_block(*args)

ingest._BLOCK_BYTES, ingest._usable_cpus, ingest._parse_block = 4093, lambda: 3, killing_parse_block
rc = cli.run(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print(rc, "a child is left")
except ChildProcessError:
    print(rc, "no child is left")
"""


@RANGES
def test_range_child_killed_mid_parse_exits_3_with_one_line(tmp_path) -> None:
    log = tmp_path / "log.csv"
    _range_log(log)
    write_label_file(tmp_path / "labels.csv", LabelFile({f"c{i}": Label.BOT for i in range(7)}, as_of=""))
    argv = ["featurize", "--log", str(log), "--labels", str(tmp_path / "labels.csv"), "--out", str(tmp_path / "f")]
    src = str(Path(ingest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_RANGE_RUN, *argv], capture_output=True, encoding="utf-8", env=env, timeout=60
    )
    assert done.stdout == "3 no child is left\n", done.stderr
    assert done.stderr == (
        f"error: status log {log}: the process parsing its range 2 died, "
        "for example because the out-of-memory killer stopped it\n"
    )
    assert not (tmp_path / "f").exists()


def _rec(cid, ts, fill=1.0):
    return StatusRecord(cid, f"a_{cid}", float(ts), np.full(9, fill))


def _log(records):
    """The records as one columnar status log."""
    return StatusLog(*(np.array(column) for column in zip(*records)))


def _rows(records):
    """The columns parse_status_log gives for these records."""
    return StatusRows(
        np.array([r.character_id for r in records]),
        np.array([r.timestamp for r in records]),
        np.array([r.values for r in records]),
    )


def test_build_timelines_sorts_and_labels() -> None:
    records = [_rec("c2", 5), _rec("c1", 9), _rec("c1", 3), _rec("c1", 5)]
    labels = LabelFile({"c1": Label.BOT, "c2": Label.NORMAL}, as_of="2024-02-01")
    timelines, stats = build_timelines(_rows(records), labels)
    assert timelines.character_id.tolist() == ["c1", "c2"]
    assert timelines.y.tolist() == [1.0, 0.0]
    assert timelines.bounds.tolist() == [0, 3, 4]
    assert timelines.timestamp.tolist() == [3.0, 5.0, 9.0, 5.0]
    assert stats.records_read == 4
    assert stats.records_dropped == 0
    assert stats.characters_total == 2
    assert stats.characters_labeled == 2


def test_build_timelines_duplicate_timestamp_keeps_last() -> None:
    records = [_rec("c1", 5, fill=1.0), _rec("c1", 5, fill=2.0), _rec("c1", 6, fill=3.0)]
    labels = LabelFile({"c1": Label.NORMAL}, as_of="")
    timelines, stats = build_timelines(_rows(records), labels)
    assert timelines.timestamp.tolist() == [5.0, 6.0]
    assert timelines.values[0, 0] == 2.0  # later input row won
    assert stats.drop_reasons == {"duplicate_timestamp": 1}


def test_build_timelines_drops_unlabeled() -> None:
    # a dropped character's duplicate rows count as unlabeled, a kept one's as duplicates
    records = [_rec("known", 1), _rec("ghost", 1), _rec("ghost", 2), _rec("ghost", 2)]
    labels = LabelFile({"known": Label.BOT}, as_of="")
    timelines, stats = build_timelines(_rows(records), labels)
    assert timelines.character_id.tolist() == ["known"]
    assert stats.drop_reasons == {"unlabeled": 3}
    assert stats.records_kept == 1

    kept, stats2 = build_timelines(_rows(records), labels, keep_unlabeled=True)
    assert kept.character_id.tolist() == ["ghost", "known"]
    assert np.isnan(kept.y[0]) and kept.y[1] == 1.0
    assert kept.bounds.tolist() == [0, 2, 3]
    assert stats2.drop_reasons == {"duplicate_timestamp": 1}
    assert stats2.records_dropped == 1
    assert stats2.characters_labeled == 1


def test_build_timelines_no_label_file_keeps_everyone() -> None:
    records = [_rec("x", 1), _rec("y", 1)]
    timelines, _ = build_timelines(_rows(records), None)
    assert timelines.character_id.tolist() == ["x", "y"]
    assert np.isnan(timelines.y).all()


def test_timeline_order_is_input_order_independent() -> None:
    rng = np.random.default_rng(5)
    base = [_rec("c1", t, fill=float(t)) for t in range(20)] + [
        _rec("c2", t, fill=float(-t)) for t in range(15)
    ]
    labels = LabelFile({"c1": Label.BOT, "c2": Label.NORMAL}, as_of="")
    reference, _ = build_timelines(_rows(base), labels)
    for trial in range(20):
        shuffled = [base[i] for i in rng.permutation(len(base))]
        got, _ = build_timelines(_rows(shuffled), labels)
        assert got.character_id.tolist() == reference.character_id.tolist()
        assert got.bounds.tolist() == reference.bounds.tolist() == [0, 20, 35]
        for c in range(len(got)):
            assert (np.diff(got[c : c + 1].timestamp) > 0).all()  # strictly increasing
        assert np.array_equal(got.values, reference.values)


def test_conservation_read_equals_kept_plus_dropped(tmp_path) -> None:
    path = tmp_path / "log.csv"
    rows = [_row(ts=t) for t in range(5)]
    rows.insert(2, _row(ts=99, values=["-1"] + ["0"] * 8))
    rows.insert(4, "c9,a9,not_a_time," + ",".join(["0"] * 9))
    _write_log(path, rows)
    records, stats = parse_status_log(path, SCHEMA)
    assert stats.records_read == stats.records_kept + stats.records_dropped
    assert stats.records_kept == len(records)


def test_label_file_roundtrip(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    original = LabelFile({"b1": Label.BOT, "n1": Label.NORMAL}, as_of="2024-02-01T00:00:00Z")
    write_label_file(path, original)
    clone = read_label_file(path)
    assert clone.as_of == original.as_of
    assert dict(clone.entries) == dict(original.entries)


def test_label_file_roundtrip_quotes_ids(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    original = LabelFile({"c,4": Label.BOT, 'say "hi"': Label.NORMAL, "n1": Label.NORMAL}, as_of="x")
    write_label_file(path, original)
    assert dict(read_label_file(path).entries) == dict(original.entries)


def test_label_file_roundtrip_keeps_ids_that_start_with_a_hash(tmp_path) -> None:
    # unquoted, "#x,bot" would read as a comment line and drop the label
    path = tmp_path / "labels.csv"
    original = LabelFile({"#x": Label.BOT, "#y,1": Label.BOT, "n": Label.NORMAL}, as_of="x")
    write_label_file(path, original)
    assert dict(read_label_file(path).entries) == dict(original.entries)
    # the reader strips each field, so a leading space is lost but the label is not
    write_label_file(path, LabelFile({" #z": Label.NORMAL}, as_of="x"))
    assert dict(read_label_file(path).entries) == {"#z": Label.NORMAL}


def test_label_file_roundtrip_keeps_ids_that_span_lines(tmp_path) -> None:
    # a blank or "#" line inside a quoted id is part of the id, not a skipped line
    path = tmp_path / "labels.csv"
    ids = ["a\n\nb", "a\n#b", "a\nb", "x\r\ny", "#x"]
    original = LabelFile({character: Label.BOT if i % 2 else Label.NORMAL for i, character in enumerate(ids)}, as_of="x")
    write_label_file(path, original)
    clone = read_label_file(path)
    assert clone.as_of == "x"
    assert dict(clone.entries) == dict(original.entries)


def test_label_file_comment_after_a_multiline_record_is_a_comment(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    path.write_text(
        'character_id,label\n"a\n# inside\n\nb",bot\n# as_of: y\n\n"c\n",normal,extra\n', encoding="utf-8"
    )
    with pytest.raises(DataError, match="line 9 of"):  # the last line of the malformed record
        read_label_file(path)
    path.write_text('character_id,label\n"a\n# inside\n\nb",bot\n# as_of: y\n\n"c\n",normal\n', encoding="utf-8")
    clone = read_label_file(path)
    assert clone.as_of == "y"
    assert dict(clone.entries) == {"a\n# inside\n\nb": Label.BOT, "c": Label.NORMAL}


def test_label_file_malformed_row_names_its_line(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    path.write_text("# as_of: x\ncharacter_id,label\n\n# note\nc1,bot\nc2,bot,extra\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 6 of"):
        read_label_file(path)


def test_label_file_bad_label(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    path.write_text("character_id,label\nc1,cyborg\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_label_file(path)


def test_label_file_duplicate_character(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    path.write_text("character_id,label\nc1,bot\nc1,normal\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_label_file(path)


def test_label_file_header_mismatch(tmp_path) -> None:
    path = tmp_path / "labels.csv"
    path.write_text("char,label\nc1,bot\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_label_file(path)


def test_status_log_roundtrip(tmp_path) -> None:
    path = tmp_path / "log.csv"
    records = [_rec("c1", 10, fill=2.25), _rec("c2", 11, fill=0.0)]
    write_status_log(path, _log(records), SCHEMA)
    clone, stats = parse_status_log(path, SCHEMA)
    assert stats.records_dropped == 0
    assert clone.character_id.tolist() == ["c1", "c2"]
    assert clone.timestamp[0] == 10.0
    assert clone.values[0].tolist() == [2.25] * 9


# ids the csv module must quote, or that an encoder could get wrong
_AWKWARD_TEXT = ["c1", "", "has,comma", 'has"quote', "has\nnewline", "has\rcr", " leading space", "ünïcødé 日本"]


def test_block_writer_matches_csv_writer(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_WRITE_BLOCK_ROWS", 7)  # many blocks, the last one short
    rng = np.random.default_rng(11)
    n = 2000
    ids = [_AWKWARD_TEXT[i] for i in rng.integers(0, len(_AWKWARD_TEXT), n)]
    accounts = [_AWKWARD_TEXT[i] for i in rng.integers(0, len(_AWKWARD_TEXT), n)]
    timestamps = rng.choice([1e20, 0.1, -3.0, 1704067200.0, 1704068399.88, -0.0, float("nan")], n).tolist()
    values = rng.standard_normal((n, len(SCHEMA))) * 10.0 ** rng.integers(-4, 14, (n, len(SCHEMA)))
    special = [float("nan"), float("inf"), float("-inf"), -0.0, 2.675, 0.005, 0.125, 1e300, 5e-324]
    values.flat[rng.choice(values.size, len(special) * 20, replace=False)] = special * 20
    path = tmp_path / "log.csv"
    write_status_log(path, StatusLog(ids, accounts, timestamps, values), SCHEMA)

    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(expected_header(SCHEMA))
    for row in zip(ids, accounts, timestamps, values.tolist()):
        writer.writerow([row[0], row[1], ingest.format_timestamp(row[2])] + [f"{v:.2f}" for v in row[3]])
    assert path.read_bytes() == reference.getvalue().encode("utf-8")


def test_block_writer_round_trips_clean_rows(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(ingest, "_WRITE_BLOCK_ROWS", 16)
    rng = np.random.default_rng(12)
    n = 100
    log = StatusLog(
        [f"c{i % 7}" for i in range(n)],
        [f"acct_c{i % 7}" for i in range(n)],
        1704067200.0 + 1199.88 * np.arange(n),
        rng.integers(0, 10**9, (n, len(SCHEMA))) / 100.0,  # exact at two decimals
    )
    path = tmp_path / "log.csv"
    write_status_log(path, log, SCHEMA)
    rows, stats = parse_status_log(path, SCHEMA)
    assert stats.records_read == n and stats.records_dropped == 0
    assert rows.character_id.tolist() == log.character_id.tolist()
    assert rows.timestamp.tobytes() == log.timestamp.tobytes()
    assert rows.values.tobytes() == log.values.tobytes()


def test_writer_rejects_rows_that_do_not_fit_the_schema(tmp_path) -> None:
    log = StatusLog(["c1"], ["a1"], [0.0], np.zeros((1, len(SCHEMA) - 1)))
    with pytest.raises(ValueError, match="8 values"):
        write_status_log(tmp_path / "log.csv", log, SCHEMA)


def test_load_timelines_end_to_end(tmp_path) -> None:
    log = tmp_path / "log.csv"
    labels_path = tmp_path / "labels.csv"
    _write_log(log, [_row(cid="c1", ts=t) for t in range(3)] + [_row(cid="ghost", ts=0)])
    write_label_file(labels_path, LabelFile({"c1": Label.BOT}, as_of="x"))
    timelines, stats = load_timelines(log, labels_path, SCHEMA)
    assert timelines.character_id.tolist() == ["c1"]
    assert stats.records_read == 4
    assert stats.drop_reasons == {"unlabeled": 1}
    assert stats.records_kept == 3
