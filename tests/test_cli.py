"""End-to-end command-line workflows, option precedence, and exit codes."""

import argparse
import concurrent.futures
import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import botledger
import botledger.cli as cli
import botledger.harness as harness
from botledger.cli import run
from botledger.errors import DataError, NumericError
from botledger.features import WindowConfig, eliminate_noninfluential, windows_from_timelines
from botledger.harness import FoldOptions, TrainOptions, derive_seed
from botledger.ingest import LabelFile, load_timelines, read_label_file, write_label_file, write_status_log
from botledger.model_io import ModelBundle, load_model, save_model
from botledger.network import ModelConfig, param_layout
from botledger.schema import Label, StatusLog, canonical_schema
from botledger.synth import DEFAULT_START, GenConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small labeled dataset: 4 bots + 8 normals over 3 days of hourly rows."""
    out = tmp_path_factory.mktemp("data")
    rc = run(
        [
            "synth",
            "--bots", "4",
            "--normals", "8",
            "--days", "3",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def features(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("feat")
    rc = run(
        [
            "featurize",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_dir(features, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = run(
        [
            "train",
            "--samples", str(features),
            "--epochs", "1",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_no_arguments_is_usage_error(capsys) -> None:
    assert run([]) == 1
    assert "subcommand is required" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys) -> None:
    assert run(["synth", "--bogus", "1", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_required_flag_is_usage_error() -> None:
    assert run(["featurize", "--log", "only.csv"]) == 1


def test_help_and_version_exit_zero(capsys) -> None:
    assert run(["--help"]) == 0
    assert "synth" in capsys.readouterr().out
    assert run(["synth", "--help"]) == 0
    capsys.readouterr()
    assert run(["--version"]) == 0
    assert "botledger" in capsys.readouterr().out


def test_synth_writes_dataset_and_manifest(dataset) -> None:
    for name in ("status_log.csv", "labels.csv", "events.log", "manifest.json"):
        assert (dataset / name).is_file(), name
    manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "synth"
    assert manifest["seeds"] == {"seed": 11}
    assert manifest["config"]["bots"] == 4
    names = {entry["name"] for entry in manifest["outputs"]}
    assert names == {"status_log.csv", "labels.csv", "events.log"}
    for entry in manifest["outputs"]:
        assert len(entry["sha256"]) == 64
        assert set(entry["sha256"]) <= set("0123456789abcdef")


def test_synth_reruns_are_byte_identical(dataset, tmp_path) -> None:
    again = tmp_path / "again"
    rc = run(
        ["synth", "--bots", "4", "--normals", "8", "--days", "3", "--seed", "11", "--out", str(again)]
    )
    assert rc == 0
    first = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    second = json.loads((again / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    assert first == second
    assert (dataset / "status_log.csv").read_bytes() == (again / "status_log.csv").read_bytes()


def test_synth_bytes_are_pinned(tmp_path) -> None:
    # digests of the bytes written while GenConfig still carried its start time
    out = tmp_path / "synth"
    assert run(
        ["synth", "--bots", "6", "--normals", "18", "--days", "7", "--seed", "3", "--out", str(out)]
    ) == 0
    pinned = {
        "status_log.csv": "eb72eb78bc29f09caf48368dfe8d46909f248311c2469094ad4168b052b0e743",
        "labels.csv": "a4622f418d313b0dd8d10fe7af38b43c316523737a7b560cf9eb9f651d66642f",
        "events.log": "1be508d3d29ab8dc4ae33b4150e4f2c9d8ce66d6d2391912e6bee60552f868a5",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_synth_bytes_are_pinned_for_fractional_timestamps(tmp_path) -> None:
    # digests of the bytes written while synth built one row object per snapshot;
    # a 0.3333-hour interval gives timestamps with decimals, and seven bots one banker
    out = tmp_path / "synth"
    assert run(
        ["synth", "--bots", "7", "--normals", "5", "--days", "2", "--interval-hours", "0.3333",
         "--seed", "5", "--out", str(out)]
    ) == 0
    pinned = {
        "status_log.csv": "9bafab8d366f8552ba99184751ebc63ebad5cdce293317a0850ba7870769e9b3",
        "labels.csv": "683ebbe6a72908b07bdffaa9cd94ae84bf98eb79743b14a32435467a6a9988a6",
        "events.log": "c83bbe4ad7c828c6bd86da029f0dd134a88280d3d31c17bbb2d25d167dddc77a",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_synth_seed_changes_output(dataset, tmp_path) -> None:
    other = tmp_path / "other"
    rc = run(
        ["synth", "--bots", "4", "--normals", "8", "--days", "3", "--seed", "12", "--out", str(other)]
    )
    assert rc == 0
    assert (dataset / "status_log.csv").read_bytes() != (other / "status_log.csv").read_bytes()


def test_featurize_outputs(features, capsys) -> None:
    assert (features / "samples.npz").is_file()
    assert (features / "elimination_report.txt").is_file()
    meta = json.loads((features / "featurize.json").read_text(encoding="utf-8"))
    assert meta["window_config"]["window_length"] == 24
    assert meta["window_config"]["stride"] == 12
    assert meta["n_samples"] > 0
    with np.load(features / "samples.npz") as bundle:
        assert bundle["x"].shape[0] == meta["n_samples"]
        assert bundle["x"].shape[1] == 24


def test_featurize_bytes_are_pinned(tmp_path, capsys) -> None:
    # digests of the bytes written before windows became one WindowSet;
    # a labeled character too short to window and an unlabeled one, both with
    # longer ids than any windowed character, must not widen origin_character
    data = tmp_path / "data"
    assert run([
        "synth", "--bots", "3", "--normals", "5", "--days", "3", "--seed", "21", "--out", str(data)
    ]) == 0
    log, labels = data / "status_log.csv", data / "labels.csv"
    with open(log, "a", encoding="utf-8") as fh:
        for cid in ("labeled_but_short_history", "never_labeled_character"):
            for t in range(5):
                fh.write(f"{cid},acct,{1704067200 + 3600 * t}," + ",".join(["1.00"] * 9) + "\n")
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write("labeled_but_short_history,normal\n")
    pinned = {
        "per-character": (
            "5b0880f5624646df0a6d02c4e47c750e6c4374879f3d8b0b1f1aad0cfeeec24f",
            "46efd67a81b494230790759dbfa9b13e33789be8a59cc0a0cfaaec0cb2eebe8d",
        ),
        "per-window": (
            "9a2db23c82b36a63eaaf0f7c4bb6d11ebdff0ac017a45cbfa0e433b35977b224",
            "705f84ad18c11be45df2eb63983ca3ef31c3f0ce8e85e4e5dfb7b46783e3f545",
        ),
    }
    for scope, digests in pinned.items():
        out = tmp_path / scope
        assert run([
            "featurize", "--log", str(log), "--labels", str(labels),
            "--scaling-scope", scope, "--stride", "8", "--out", str(out),
        ]) == 0
        got = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("samples.npz", "featurize.json")
        )
        assert got == digests, scope


def test_featurize_keeps_a_character_whose_id_is_quoted(dataset, tmp_path, capsys) -> None:
    # both files quote b0001; csv reads "b0001" as b0001 in each, so its labels still apply
    log, labels = tmp_path / "status_log.csv", tmp_path / "labels.csv"
    quoted = re.sub(r"(?m)^b0001,", '"b0001",', (dataset / "status_log.csv").read_text(encoding="utf-8"))
    log.write_text(quoted, encoding="utf-8")
    quoted = (dataset / "labels.csv").read_text(encoding="utf-8").replace("\nb0001,", '\n"b0001",')
    labels.write_text(quoted, encoding="utf-8")
    assert '"b0001",bot' in labels.read_text(encoding="utf-8")
    out = tmp_path / "feat"
    assert run(["featurize", "--log", str(log), "--labels", str(labels), "--out", str(out)]) == 0
    ingest = json.loads((out / "featurize.json").read_text(encoding="utf-8"))["ingest"]
    assert "unlabeled" not in ingest["drop_reasons"]
    with np.load(out / "samples.npz") as bundle:
        assert "b0001" in bundle["origin_character"].tolist()


def test_featurize_keeps_a_character_whose_id_starts_with_a_hash(dataset, tmp_path, capsys) -> None:
    # b0001 is #x in both files; the label file must not turn its row into a comment
    log, labels = tmp_path / "status_log.csv", tmp_path / "labels.csv"
    hashed = re.sub(r"(?m)^b0001,", "#x,", (dataset / "status_log.csv").read_text(encoding="utf-8"))
    log.write_text(hashed, encoding="utf-8")
    entries = dict(read_label_file(dataset / "labels.csv").entries)
    entries["#x"] = entries.pop("b0001")
    write_label_file(labels, LabelFile(entries, as_of=""))
    out = tmp_path / "feat"
    assert run(["featurize", "--log", str(log), "--labels", str(labels), "--out", str(out)]) == 0
    ingest = json.loads((out / "featurize.json").read_text(encoding="utf-8"))["ingest"]
    assert "unlabeled" not in ingest["drop_reasons"]
    with np.load(out / "samples.npz") as bundle:
        assert "#x" in bundle["origin_character"].tolist()


def test_crossval_and_score_bytes_are_pinned(tmp_path, capsys) -> None:
    # the crossval digests were taken when the model config lost l2_lambda and use_batchnorm (window
    # metrics did not move), and score's when training lost the L2 penalty
    data = tmp_path / "data"
    assert run(
        ["synth", "--bots", "6", "--normals", "18", "--days", "14", "--seed", "3", "--out", str(data)]
    ) == 0
    log, labels = str(data / "status_log.csv"), str(data / "labels.csv")
    assert run(["featurize", "--log", log, "--labels", labels, "--out", str(tmp_path / "feat")]) == 0
    assert run(
        ["train", "--samples", str(tmp_path / "feat"), "--epochs", "1", "--seed", "3",
         "--out", str(tmp_path / "model")]
    ) == 0
    crossval = ["crossval", "--log", log, "--labels", labels, "--k", "3", "--epochs", "1", "--seed", "3"]
    runs = {
        "cv/report.json": (
            [*crossval, "--out", str(tmp_path / "cv")],
            "183118a242b2e2e777949d415b3d65a30277c5abfab08dded8a33196e412e5ec",
        ),
        "cvp/report.json": (
            [*crossval, "--by-period", "7", "--out", str(tmp_path / "cvp")],
            "370fc40cbec11c4125b33ce9117adf006bb406930a180f8e561fd950a5413886",
        ),
        "score/scores.csv": (
            ["score", "--log", log, "--labels", labels, "--model", str(tmp_path / "model" / "model.bin"),
             "--out", str(tmp_path / "score")],
            "66c98e11d7da19138bbba6359932f20b7eeca9b6c292a7b20943a5451640977e",
        ),
        "cvl/report.json": (
            ["crossval", "--log", log, "--labels", labels, "--k", "2", "--epochs", "1", "--seed", "3",
             "--by-period", "2", "--leaky-folds", "--threshold", "0.4", "--out", str(tmp_path / "cvl")],
            "51b1ac61037cccc14b7a585885c8ac3dd9b491c51877c27c7915e638c40d7382",
        ),
    }
    for name, (argv, digest) in runs.items():
        assert run(argv) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_report_and_train_bytes_are_pinned(tmp_path, capsys) -> None:
    # report.json's digest is of the bytes written while each report built
    # its JSON by hand; model.bin's and training_log.json's were taken when
    # training lost the L2 penalty and model.bin went to format version 2.
    # Training stops early after epoch 2, so the log carries an early_stop entry
    data = tmp_path / "data"
    assert run(
        ["synth", "--bots", "3", "--normals", "5", "--days", "3", "--seed", "21", "--out", str(data)]
    ) == 0
    log, labels = str(data / "status_log.csv"), str(data / "labels.csv")
    assert run(["featurize", "--log", log, "--labels", labels, "--out", str(tmp_path / "feat")]) == 0
    assert run(
        ["train", "--samples", str(tmp_path / "feat"), "--epochs", "6", "--early-stop-patience", "1",
         "--lr", "0.05", "--seed", "4", "--out", str(tmp_path / "model")]
    ) == 0
    assert run(["report", "--log", log, "--labels", labels, "--out", str(tmp_path / "report")]) == 0
    pinned = {
        "report/report.json": "9b8bdf5011c79984aee06b73dce8c682555279eac0dbe8153c3bf67e856b16b7",
        "model/model.bin": "424752fb121a20782f8e46ecd8df7e637f154b47f408930b1825dc1ea83dfefe",
        "model/training_log.json": "40a206bb1b35b020b9de824a0e9dff4b141af4d51a250b5b95cbbe2d51b7deda",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.fixture(scope="module")
def short_dataset(tmp_path_factory):
    """Six characters over half a day: 12 hourly rows each, fewer than one 24-step window."""
    out = tmp_path_factory.mktemp("short")
    assert run(["synth", "--bots", "2", "--normals", "4", "--days", "0.5", "--seed", "11", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "extra, message",
    [
        (["crossval"], "no windows produced from the input timelines"),
        (["crossval", "--by-period", "7"], "no week produced windows"),
        (["report"], "no windows produced from the input timelines"),
    ],
)
def test_crossval_without_one_full_window_is_a_data_error(short_dataset, extra, message, tmp_path, capsys) -> None:
    # extra is the command and its options; report fails on the same short log
    log, labels = str(short_dataset / "status_log.csv"), str(short_dataset / "labels.csv")
    command, *options = extra
    assert run([command, "--log", log, "--labels", labels, *options, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["featurize", "crossval", "report"])
def test_label_file_naming_no_logged_character_is_a_data_error(dataset, command, tmp_path, capsys) -> None:
    labels, out = tmp_path / "labels.csv", tmp_path / "out"
    write_label_file(labels, LabelFile({"nobody": Label.BOT}, as_of=""))
    assert run([command, "--log", str(dataset / "status_log.csv"), "--labels", str(labels), "--out", str(out)]) == 2
    assert "error: no labeled timelines present in the input\n" in capsys.readouterr().err
    assert not out.exists()


def test_score_skips_characters_shorter_than_the_window(short_dataset, model_dir, tmp_path, capsys) -> None:
    out = tmp_path / "score"
    argv = ["score", "--log", str(short_dataset / "status_log.csv"), "--model", str(model_dir / "model.bin")]
    assert run([*argv, "--out", str(out)]) == 0
    assert "scored 0 characters (0 at or above threshold 0.5, 6 skipped as shorter than the window)" in (
        capsys.readouterr().out
    )
    assert (out / "scores.csv").read_text(encoding="utf-8") == "character_id,probability,label\n"


def test_featurize_window_longer_than_history(dataset, tmp_path, capsys) -> None:
    rc = run(
        [
            "featurize",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--window-length", "200",
            "--out", str(tmp_path / "none"),
        ]
    )
    assert rc == 2
    assert "no windows produced" in capsys.readouterr().err


def test_train_writes_model_and_log(model_dir) -> None:
    assert (model_dir / "model.bin").is_file()
    log = json.loads((model_dir / "training_log.json").read_text(encoding="utf-8"))
    assert log["summary"]["epochs_run"] == 1
    assert log["epochs"][0]["epoch"] == 1
    manifest = json.loads((model_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 1
    assert len(manifest["inputs"]) == 2


def test_train_rejects_bad_hidden_dim(features, tmp_path) -> None:
    rc = run(
        ["train", "--samples", str(features), "--hidden-dim", "0", "--out", str(tmp_path / "m")]
    )
    assert rc == 1


def test_train_rejects_windows_of_another_length_than_featurize_json(features, tmp_path, capsys) -> None:
    # a model trained on 12-step windows would claim 24 and score 24-step windows
    samples = tmp_path / "samples"
    shutil.copytree(features, samples)
    npz = samples / "samples.npz"
    npz.write_bytes(_with_samples("x", lambda x: x[:, :12])(npz.read_bytes()))
    assert run(["train", "--samples", str(samples), "--epochs", "1", "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == (
        f"error: windows in {npz} are 12 steps long, not 24 as {samples / 'featurize.json'} says\n"
    )
    assert not (tmp_path / "m").exists()


def test_score_chain(dataset, model_dir, tmp_path, capsys) -> None:
    out = tmp_path / "scores"
    rc = run(
        [
            "score",
            "--log", str(dataset / "status_log.csv"),
            "--model", str(model_dir / "model.bin"),
            "--labels", str(dataset / "labels.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "scored 12 characters" in capsys.readouterr().out
    lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "character_id,probability,label"
    assert len(lines) == 13
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert probs == sorted(probs, reverse=True)
    labels = {line.split(",")[2] for line in lines[1:]}
    assert labels <= {"bot", "normal"}


def test_score_without_labels(dataset, model_dir, tmp_path) -> None:
    out = tmp_path / "scores"
    rc = run(
        [
            "score",
            "--log", str(dataset / "status_log.csv"),
            "--model", str(model_dir / "model.bin"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 13
    assert all(line.endswith(",") for line in lines[1:])


def test_score_quotes_ids_as_the_log_does(dataset, model_dir, tmp_path) -> None:
    # ids that need quoting in CSV must read back as one field each
    renamed = {"b0001": "x,1", "n0001": 'say "hi"'}
    with open(dataset / "status_log.csv", newline="", encoding="utf-8") as fh:
        rows = [[renamed.get(row[0], row[0]), *row[1:]] for row in csv.reader(fh)]
    log = tmp_path / "status_log.csv"
    with open(log, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / "scores"
    assert run(["score", "--log", str(log), "--model", str(model_dir / "model.bin"), "--out", str(out)]) == 0
    with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert len(table) == 13
    assert {len(row) for row in table} == {3}
    assert set(renamed.values()) <= {row[0] for row in table[1:]}


def test_score_zero_head_ranks_by_character_id(dataset, model_dir, tmp_path, capsys) -> None:
    # zeroed readout makes every probability exactly 0.5, so ordering falls
    # back to the character id and the >= threshold rule flags everyone
    bundle = load_model(model_dir / "model.bin")
    bundle.params.W_out[:] = 0.0
    bundle.params.b_out = 0.0
    flat_path = tmp_path / "flat.bin"
    save_model(flat_path, bundle)
    out = tmp_path / "scores"
    rc = run(
        [
            "score",
            "--log", str(dataset / "status_log.csv"),
            "--model", str(flat_path),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "12 at or above threshold 0.5" in capsys.readouterr().out
    lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()[1:]
    ids = [line.split(",")[0] for line in lines]
    assert ids == sorted(ids)
    assert {line.split(",")[1] for line in lines} == {"0.500000"}


def test_corrupted_model_is_data_error(dataset, model_dir, tmp_path, capsys) -> None:
    bad = tmp_path / "bad.bin"
    raw = bytearray((model_dir / "model.bin").read_bytes())
    raw[:4] = b"WHAT"
    bad.write_bytes(bytes(raw))
    rc = run(
        [
            "score",
            "--log", str(dataset / "status_log.csv"),
            "--model", str(bad),
            "--out", str(tmp_path / "s"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _as_version_1(blob: bytes) -> bytes:
    """A model.bin as format version 1 wrote it for ``--no-batchnorm``: the
    config's l2_lambda and use_batchnorm, and no digest."""

    def edit(meta: dict) -> dict:
        meta["model_config"].update(l2_lambda=1e-4, use_batchnorm=False)
        del meta["sha256"]
        return meta

    blob = _with_model_metadata(edit)(blob)
    return blob[:4] + struct.pack("<I", 1) + blob[8:]


def _as_version_2(blob: bytes) -> bytes:
    """A model.bin as format version 2 wrote it: a digest of the payload alone."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    payload = hashlib.sha256(blob[12 + meta_len :]).hexdigest()

    def edit(meta: dict) -> dict:
        del meta["sha256"]
        meta["payload_sha256"] = payload
        return meta

    blob = _with_model_metadata(edit)(blob)
    return blob[:4] + struct.pack("<I", 2) + blob[8:]


@pytest.mark.parametrize(
    "corrupt, want",
    [
        (lambda blob: blob[:-20] + bytes([blob[-20] ^ 0x01]) + blob[-19:], "does not match its sha256 digest"),
        (_as_version_1, "has unsupported format version 1"),
        (_as_version_2, "has unsupported format version 2"),
        (lambda blob: _model_field("window_config", "stride", value=6)(blob), "does not match its sha256 digest"),
        (
            lambda blob: _model_field("model_config", "use_batchnorm", value=False)(blob),
            "does not match its sha256 digest",
        ),
    ],
    ids=["flipped-payload-byte", "version-1", "version-2", "stride-edited", "stray-use-batchnorm-key"],
)
def test_changed_payload_or_old_format_model_is_data_error(
    corrupt, want, dataset, model_dir, tmp_path, capsys
) -> None:
    bad = tmp_path / "model.bin"
    bad.write_bytes(corrupt((model_dir / "model.bin").read_bytes()))
    argv = ["score", "--log", str(dataset / "status_log.csv"), "--model", str(bad), "--out", str(tmp_path / "s")]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: model file {bad} {want}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
@pytest.mark.parametrize("command", ["synth", "featurize", "train", "crossval", "score", "report"])
def test_out_that_cannot_be_written_is_data_error(
    command, beneath, dataset, features, model_dir, tmp_path, capsys
) -> None:
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n", encoding="utf-8")
    out = taken / "out" if beneath else taken
    log, labels = ["--log", str(dataset / "status_log.csv")], ["--labels", str(dataset / "labels.csv")]
    argv = {
        "synth": ["synth", "--bots", "1", "--normals", "1", "--days", "1"],
        "featurize": ["featurize", *log, *labels],
        "train": ["train", "--samples", str(features), "--epochs", "1"],
        "crossval": ["crossval", *log, *labels, "--k", "2", "--epochs", "1"],
        "score": ["score", *log, "--model", str(model_dir / "model.bin")],
        "report": ["report", *log, *labels],
    }[command]
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
    assert taken.read_text(encoding="utf-8") == "a file, not a directory\n"


@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
def test_crossval_checks_out_before_it_reads_or_trains(beneath, dataset, monkeypatch, tmp_path, capsys) -> None:
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n", encoding="utf-8")
    out = taken / "out" if beneath else taken

    def never(*args, **kwargs):
        raise AssertionError("crossval read or trained before it checked --out")

    monkeypatch.setattr(cli, "load_timelines", never)
    monkeypatch.setattr(harness, "train", never)
    argv = ["crossval", "--log", str(dataset / "status_log.csv"), "--labels", str(dataset / "labels.csv"),
            "--k", "2", "--epochs", "1", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {taken} is not a directory\n"
    assert taken.read_text(encoding="utf-8") == "a file, not a directory\n"


def test_report_prints_tables(dataset, tmp_path, capsys) -> None:
    out = tmp_path / "rep"
    rc = run(
        [
            "report",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert (out / "report.txt").read_text(encoding="utf-8") == shown
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(doc) == {"distributions", "elimination", "ingest", "window_config"}


def test_crossval_stdout_has_fold_rows_and_average(dataset, capsys) -> None:
    rc = run(
        [
            "crossval",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--k", "3",
            "--epochs", "1",
            "--seed", "11",
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    for name in ("Fold 1", "Fold 2", "Fold 3", "Average"):
        assert name in shown
    assert "Fold 4" not in shown
    assert "F1 Score" in shown


def test_crossval_out_artifacts_match_stdout(dataset, tmp_path, capsys) -> None:
    out = tmp_path / "cv"
    rc = run(
        [
            "crossval",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--k", "3",
            "--epochs", "1",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert (out / "report.txt").read_text(encoding="utf-8") == shown
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(doc["rows"]) == 3
    assert doc["average"]["f1"] == pytest.approx(
        float(np.mean([row["metrics"]["f1"] for row in doc["rows"]])), abs=1e-12
    )
    assert "ingest" in doc and "elimination" not in doc


def _metrics_objects(doc: object) -> list[dict]:
    """Every metrics object in a report document: each dict that holds an f1."""
    if isinstance(doc, list):
        return [m for item in doc for m in _metrics_objects(item)]
    if not isinstance(doc, dict):
        return []
    found = [doc] if "f1" in doc else []
    return found + [m for value in doc.values() for m in _metrics_objects(value)]


@pytest.mark.parametrize("by_period", [[], ["--by-period", "4.5"]])
def test_crossval_report_holds_what_ran(by_period, fortnight, tmp_path, capsys) -> None:
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "2", "--epochs", "1", "--seed", "21", *by_period, "--out", str(tmp_path / "cv")]
    assert run(argv) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "cv" / "report.json").read_text(encoding="utf-8"))
    detail = {"periods", "skipped_periods"} if by_period else set()
    assert set(doc) == {"rows", "average", "confusion_total", "config", "ingest"} | detail
    configs = [doc["config"], *(p["report"]["config"] for p in doc.get("periods", []))]
    for config in configs:
        assert {f.name for f in fields(FoldOptions)} <= set(config)
        assert config["by_period_days"] == (4.5 if by_period else None) and config["leaky_folds"] is False
    metrics = _metrics_objects(doc)
    # the average and each row's metrics; by period, 3 rows and each period's own average and 2 folds
    assert len(metrics) == (1 + 3 + 3 * (1 + 2) if by_period else 1 + 2)
    assert all(isinstance(m["flags"], list) for m in metrics)


@pytest.mark.parametrize("by_period, fits", [([], 3), (["--by-period", "4.5"], 3 * 3)])
def test_crossval_fits_elimination_only_in_its_folds(by_period, fits, fortnight, monkeypatch, capsys) -> None:
    # k fits a run, or k per evaluated period: 14 days in 4.5-day periods evaluate three and skip the fourth
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate_noninfluential(*args, **kwargs)

    monkeypatch.setattr(cli, "eliminate_noninfluential", counted)
    monkeypatch.setattr(harness, "eliminate_noninfluential", counted)
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "3", "--epochs", "1", "--seed", "21", *by_period]
    assert run(argv) == 0
    assert "Average" in capsys.readouterr().out
    assert len(calls) == fits


def test_crossval_grouped_needs_enough_characters(dataset, capsys) -> None:
    # only 4 bot characters, so 5 grouped folds cannot each hold one
    rc = run(
        [
            "crossval",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--k", "5",
            "--epochs", "1",
            "--seed", "11",
        ]
    )
    assert rc == 2
    assert "insufficient" in capsys.readouterr().err
    rc = run(
        [
            "crossval",
            "--log", str(dataset / "status_log.csv"),
            "--labels", str(dataset / "labels.csv"),
            "--k", "5",
            "--epochs", "1",
            "--seed", "11",
            "--leaky-folds",
        ]
    )
    assert rc == 0


@pytest.fixture(scope="module")
def fortnight(tmp_path_factory):
    out = tmp_path_factory.mktemp("fortnight")
    rc = run(
        [
            "synth",
            "--bots", "3",
            "--normals", "6",
            "--days", "14",
            "--seed", "21",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_crossval_by_period_labels_weeks(fortnight, capsys) -> None:
    rc = run(
        [
            "crossval",
            "--log", str(fortnight / "status_log.csv"),
            "--labels", str(fortnight / "labels.csv"),
            "--k", "2",
            "--epochs", "1",
            "--seed", "21",
            "--by-period",
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "Week 1" in shown and "Week 2" in shown
    assert "Week 3" not in shown and "Fold" not in shown
    assert "Average" in shown


def test_crossval_by_period_other_lengths_say_period(fortnight, capsys) -> None:
    rc = run(
        [
            "crossval",
            "--log", str(fortnight / "status_log.csv"),
            "--labels", str(fortnight / "labels.csv"),
            "--k", "2",
            "--epochs", "1",
            "--seed", "21",
            "--by-period", "14",
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "Period 1" in shown
    assert "Week" not in shown


def test_crossval_by_period_rejects_nonpositive(fortnight) -> None:
    rc = run(
        [
            "crossval",
            "--log", str(fortnight / "status_log.csv"),
            "--labels", str(fortnight / "labels.csv"),
            "--by-period", "0",
        ]
    )
    assert rc == 1


def test_crossval_by_period_skips_periods_without_windows(fortnight, tmp_path, capsys) -> None:
    argv = [
        "crossval",
        "--log", str(fortnight / "status_log.csv"),
        "--labels", str(fortnight / "labels.csv"),
        "--k", "2",
        "--epochs", "1",
        "--seed", "21",
    ]
    # 14 days in 4.5-day periods: the fourth holds half a day, less than one window
    assert run(argv + ["--by-period", "4.5", "--out", str(tmp_path / "cv")]) == 0
    shown = capsys.readouterr().out
    assert "Period 3" in shown and "Period 4" not in shown.split("Average")[0]
    assert "skipped, no windows: Period 4" in shown
    doc = json.loads((tmp_path / "cv" / "report.json").read_text(encoding="utf-8"))
    assert doc["skipped_periods"] == ["Period 4"]
    assert [p["name"] for p in doc["periods"]] == ["Period 1", "Period 2", "Period 3"]
    assert (tmp_path / "cv" / "report.txt").read_text(encoding="utf-8") == shown

    # 0.2-day periods are all shorter than one 24-hour window
    assert run(argv + ["--by-period", "0.2"]) == 2
    assert "no period produced windows" in capsys.readouterr().err


def test_crossval_by_period_numbers_weeks_by_the_calendar(tmp_path, capsys) -> None:
    # a month whose third week logged nothing: the fourth week keeps its calendar name and seed
    data = tmp_path / "data"
    assert run(["synth", "--bots", "4", "--normals", "8", "--days", "28", "--seed", "3", "--out", str(data)]) == 0
    log = data / "status_log.csv"
    header, *lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    times = [float(line.split(",")[2]) for line in lines]
    week = [int((t - min(times)) // (7 * 86400.0)) for t in times]
    log.write_text(header + "".join(line for line, w in zip(lines, week) if w != 2), encoding="utf-8")
    argv = ["crossval", "--log", str(log), "--labels", str(data / "labels.csv"), "--k", "2", "--epochs", "1",
            "--seed", "3", "--by-period", "--out", str(tmp_path / "cv")]
    assert run(argv) == 0
    shown = capsys.readouterr().out
    assert "Week 4" in shown and "Week 3" not in shown and "skipped" not in shown
    doc = json.loads((tmp_path / "cv" / "report.json").read_text(encoding="utf-8"))
    assert [row["name"] for row in doc["rows"]] == ["Week 1", "Week 2", "Week 4"]
    assert [p["name"] for p in doc["periods"]] == ["Week 1", "Week 2", "Week 4"]
    assert doc["skipped_periods"] == []
    assert doc["periods"][2]["report"]["config"]["seed"] == derive_seed(3, 4)


def test_crossval_by_period_too_short_to_number_is_a_data_error(fortnight, tmp_path, capsys) -> None:
    # in 1e-300-day periods the last record falls past period 2**53, beyond which the codes lose integers
    argv = [
        "crossval",
        "--log", str(fortnight / "status_log.csv"),
        "--labels", str(fortnight / "labels.csv"),
        "--k", "2",
        "--epochs", "1",
        "--by-period", "1e-300",
        "--out", str(tmp_path / "cv"),
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: periods too short to number: the log spans 2**53 of them or more\n"
    assert not (tmp_path / "cv").exists()


def test_crossval_by_period_evaluates_periods_of_exactly_one_window(tmp_path, capsys) -> None:
    data = tmp_path / "data"
    assert run(["synth", "--bots", "3", "--normals", "4", "--days", "2", "--seed", "5", "--out", str(data)]) == 0
    argv = [
        "crossval",
        "--log", str(data / "status_log.csv"),
        "--labels", str(data / "labels.csv"),
        "--k", "2",
        "--epochs", "1",
        "--seed", "5",
        "--by-period", "1",
    ]
    # 48 hourly rows in 1-day periods: each character holds exactly 24 rows, one default window, per period
    assert run(argv + ["--out", str(tmp_path / "cv")]) == 0
    doc = json.loads((tmp_path / "cv" / "report.json").read_text(encoding="utf-8"))
    assert [p["name"] for p in doc["periods"]] == ["Period 1", "Period 2"]
    assert doc["skipped_periods"] == []
    assert [row["n_test"] for row in doc["rows"]] == [7, 7]
    capsys.readouterr()

    assert run(argv + ["--window-length", "25"]) == 2
    assert "error: no period produced windows\n" in capsys.readouterr().err


def test_crossval_fold_whose_fit_keeps_no_feature_is_a_data_error(tmp_path, capsys) -> None:
    # every character logs the same series but bot b0, whose rows alone separate the classes: the fit over
    # every character keeps all nine features, and the fold that tests b0 hides its label and keeps none
    ids, rows = ["b0", "b1", "b2", "n0", "n1", "n2"], 48
    values = np.tile(np.arange(rows, dtype=float)[:, None] * np.arange(1, 10), (len(ids), 1))
    values[:rows] += 1000.0
    timestamps = np.tile(DEFAULT_START + 3600.0 * np.arange(rows), len(ids))
    log, labels = str(tmp_path / "log.csv"), str(tmp_path / "labels.csv")
    write_status_log(log, StatusLog(np.repeat(ids, rows), np.repeat(ids, rows), timestamps, values), canonical_schema())
    write_label_file(labels, LabelFile({c: Label.BOT if c[0] == "b" else Label.NORMAL for c in ids}, as_of=""))
    assert run(["report", "--log", log, "--labels", labels]) == 0
    assert "dropped 0 of 9 features" in capsys.readouterr().out
    argv = ["crossval", "--log", log, "--labels", labels, "--k", "2", "--epochs", "1", "--out", str(tmp_path / "cv")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: Fold 2: its training characters leave no feature that separates the classes; "
        "elimination error: no active features remain after deactivation\n"
    )
    assert not (tmp_path / "cv").exists()
    assert run(argv + ["--by-period", "1"]) == 2
    assert "error: Period 1, Fold 1: its training characters leave no feature" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()


def test_numeric_error_maps_to_exit_3(monkeypatch, tmp_path, capsys) -> None:
    def explode(args):
        raise NumericError("loss diverged")

    monkeypatch.setattr(cli, "cmd_synth", explode)
    rc = run(["synth", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "loss diverged" in capsys.readouterr().err


def test_crossval_numeric_error_in_a_fold_exits_3_with_one_line(fortnight, monkeypatch, tmp_path, capfd) -> None:
    # capfd, not capsys: a fold that trains in a forked worker writes to the inherited file descriptors
    real_train = harness.train

    def failing_train(x, y, cfg, opts):
        if cfg.seed == derive_seed(21, 1):
            raise NumericError("numeric overflow in gradients")
        return real_train(x, y, cfg, opts)

    monkeypatch.setattr(harness, "train", failing_train)
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "3", "--epochs", "1", "--seed", "21", "--out", str(tmp_path / "cv")]
    assert run(argv) == 3
    captured = capfd.readouterr()
    assert captured.err == "error: numeric overflow in gradients\n"
    assert captured.out == ""
    assert not (tmp_path / "cv").exists()
    assert multiprocessing.active_children() == []


FOLDS_IN_WORKERS = pytest.mark.skipif(
    not hasattr(os, "fork") or harness._openblas_function("set_num_threads") is None,
    reason="the folds run in the calling process here",
)


@FOLDS_IN_WORKERS
def test_crossval_by_period_opens_one_worker_pool(fortnight, monkeypatch, capsys) -> None:
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "3", "--epochs", "1", "--seed", "21", "--by-period", "4.5"]
    assert run(argv) == 0
    # three evaluated periods of three folds each share the one pool
    assert "Period 3" in capsys.readouterr().out
    assert len(opened) == 1


def test_crossval_by_period_checks_every_period_before_any_fold_trains(
    fortnight, monkeypatch, tmp_path, capsys
) -> None:
    # 14 days in 4.5-day periods evaluate three periods of 3 folds each, fitted in (period, fold) order,
    # so the seventh fit is period 3's first fold
    trained = tmp_path / "trained.txt"
    real_train = harness.train
    fits = []

    def seventh_fit_keeps_nothing(timelines, schema):
        fits.append(schema)
        if len(fits) == 7:
            raise DataError("no active features remain after deactivation")
        return eliminate_noninfluential(timelines, schema)

    def recording_train(x, y, cfg, opts):
        with open(trained, "a", encoding="utf-8") as fh:
            fh.write(f"{cfg.seed}\n")
        return real_train(x, y, cfg, opts)

    monkeypatch.setattr(harness, "eliminate_noninfluential", seventh_fit_keeps_nothing)
    monkeypatch.setattr(harness, "train", recording_train)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "3", "--epochs", "1", "--seed", "21", "--by-period", "4.5", "--out", str(tmp_path / "cv")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: Period 3, Fold 1: its training characters leave no feature that separates the classes; "
        "elimination error: no active features remain after deactivation\n"
    )
    assert not trained.exists()
    assert not (tmp_path / "cv").exists()


def test_crossval_by_period_folds_in_workers_report_what_folds_in_process_report(
    fortnight, monkeypatch, tmp_path, capsys
) -> None:
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "3", "--epochs", "2", "--seed", "21", "--by-period", "4.5", "--out"]
    shown = []
    for cpus in (2, 1):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        assert run(argv + [str(tmp_path / f"cv-{cpus}")]) == 0
        shown.append(capsys.readouterr().out)
    assert shown[0] == shown[1]
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "cv-2" / name).read_bytes() == (tmp_path / "cv-1" / name).read_bytes()


# Runs the crossval arguments in argv[1:] with two usable CPUs, where every fold's worker kills
# itself, and prints the exit code and how many child processes are left.
_KILLED_WORKER_CROSSVAL = """
import multiprocessing, os, signal, sys
from botledger import cli, harness

assert "concurrent.futures.process" not in sys.modules
caller, real_train = os.getpid(), harness.train

def killing_train(x, y, cfg, opts):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_train(x, y, cfg, opts)

harness._usable_cpus, harness.train = lambda: 2, killing_train
rc = cli.run(sys.argv[1:])
print(rc, len(multiprocessing.active_children()))
"""


@FOLDS_IN_WORKERS
def test_crossval_worker_killed_mid_fold_exits_3_with_one_line(fortnight, tmp_path) -> None:
    argv = ["crossval", "--log", str(fortnight / "status_log.csv"), "--labels", str(fortnight / "labels.csv"),
            "--k", "3", "--epochs", "1", "--seed", "21", "--by-period", "4.5", "--out", str(tmp_path / "cv")]
    src = str(Path(botledger.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_WORKER_CROSSVAL, *argv], capture_output=True, encoding="utf-8", env=env,
        timeout=60,
    )
    assert done.stdout == "3 0\n", done.stderr
    # the first split read, period 1's first fold, lost its worker
    assert done.stderr == (
        "error: Period 1, Fold 1: its worker process died, "
        "for example because the out-of-memory killer stopped it\n"
    )
    assert not (tmp_path / "cv").exists()


@pytest.fixture(scope="module")
def queue(dataset, tmp_path_factory):
    """The dataset's log plus ``c0001``, 5 rows long and so shorter than a window, and its labels less
    ``n0002``'s, so that character is unlabeled: 13 characters, sorted b0001-b0004, c0001, n0001-n0008."""
    out = tmp_path_factory.mktemp("queue")
    with open(dataset / "status_log.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    short = [["c0001", "acct_c0001", *row[2:]] for row in rows[1:] if row[0] == "b0001"][:5]
    with open(out / "status_log.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows + short)
    labels = read_label_file(dataset / "labels.csv")
    entries = {cid: label for cid, label in labels.entries.items() if cid != "n0002"}
    write_label_file(out / "labels.csv", LabelFile(entries, labels.as_of))
    return out


def _score_argv(queue, model_dir, out):
    return ["score", "--log", str(queue / "status_log.csv"), "--labels", str(queue / "labels.csv"),
            "--model", str(model_dir / "model.bin"), "--out", str(out)]


def test_score_writes_the_same_queue_at_every_chunk_size(queue, model_dir, monkeypatch, tmp_path, capsys) -> None:
    # chunks of 1, 3 and the default 7 characters; each spy records the pid it ran in
    real_windows, real_predict = harness.windows_from_timelines, harness.predict_probs
    pids: dict[str, list[int]] = {"windows": [], "predict": []}

    def windows_spy(*args):
        pids["windows"].append(os.getpid())
        return real_windows(*args)

    def predict_spy(*args):
        pids["predict"].append(os.getpid())
        return real_predict(*args)

    monkeypatch.setattr(harness, "windows_from_timelines", windows_spy)
    monkeypatch.setattr(harness, "predict_probs", predict_spy)
    shown, scores = [], []
    for size in (1, 3, harness.SCORE_CHUNK_CHARACTERS):
        monkeypatch.setattr(harness, "SCORE_CHUNK_CHARACTERS", size)
        out = tmp_path / f"score-{size}"
        assert run(_score_argv(queue, model_dir, out)) == 0
        shown.append(capsys.readouterr().out.replace(str(out), "OUT"))
        scores.append((out / "scores.csv").read_bytes())
    assert shown[1:] == shown[:1] * 2 and scores[1:] == scores[:1] * 2
    assert "scored 12 characters" in shown[0] and "1 skipped as shorter than the window" in shown[0]
    assert b"\nn0002," in scores[0] and b"c0001" not in scores[0]
    # 13 characters give 13, 5 and 2 chunks; each chunk predicts one stack per window count among its
    # characters with windows (all of the dataset's characters have the same count): 12, 5 and 2 stacks
    assert len(pids["windows"]) == 13 + 5 + 2 and len(pids["predict"]) == 12 + 5 + 2
    # both ran here, so a tracer or profiler of this process sees them
    assert set(pids["windows"]) == set(pids["predict"]) == {os.getpid()}
    assert multiprocessing.active_children() == []


def test_score_numeric_error_in_a_chunk_exits_3_with_one_line(queue, model_dir, monkeypatch, tmp_path, capfd) -> None:
    # with three characters a chunk, n0001 is in the second chunk and n0003 in the third; the
    # error is n0001's, and no later chunk is scored
    monkeypatch.setattr(harness, "SCORE_CHUNK_CHARACTERS", 3)
    bundle = load_model(model_dir / "model.bin")
    timelines, _ = load_timelines(queue / "status_log.csv", queue / "labels.csv", bundle.schema, keep_unlabeled=True)
    failing = {
        cid: windows_from_timelines(timelines[c : c + 1], bundle.schema, bundle.window_config).x
        for c, cid in enumerate(timelines.character_id.tolist())
        if cid in ("n0001", "n0003")
    }
    real_predict = harness.predict_probs
    predicted = []

    def failing_predict(params, cfg, x):
        predicted.append(x)
        for cid, windows in failing.items():
            if any(np.array_equal(batch, windows) for batch in (x if x.ndim == 4 else [x])):
                raise NumericError(f"numeric overflow in the windows of {cid}")
        return real_predict(params, cfg, x)

    monkeypatch.setattr(harness, "predict_probs", failing_predict)
    assert run(_score_argv(queue, model_dir, tmp_path / "score")) == 3
    captured = capfd.readouterr()
    assert captured.err == "error: numeric overflow in the windows of n0001\n"
    assert captured.out == ""
    assert not (tmp_path / "score").exists()
    # one stack of b0001-b0003, then one of b0004 and n0001 (c0001 has no window)
    assert len(predicted) == 2 and predicted[-1].shape[0] == 2
    assert np.array_equal(predicted[-1][1], failing["n0001"])


def test_seed_defaults_to_zero(tmp_path) -> None:
    out = tmp_path / "zero"
    rc = run(["synth", "--bots", "2", "--normals", "2", "--days", "1", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"] == {"seed": 0}


def test_environment_seed_is_ignored(monkeypatch, tmp_path) -> None:
    argv = ["synth", "--bots", "2", "--normals", "2", "--days", "1", "--out"]
    unset, set_ = tmp_path / "unset", tmp_path / "set"
    monkeypatch.delenv("BOTLEDGER_SEED", raising=False)
    assert run([*argv, str(unset)]) == 0
    monkeypatch.setenv("BOTLEDGER_SEED", "99")
    assert run([*argv, str(set_)]) == 0
    manifest = json.loads((set_ / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"] == {"seed": 0}
    assert (set_ / "status_log.csv").read_bytes() == (unset / "status_log.csv").read_bytes()


def test_config_file_between_defaults_and_flags(tmp_path) -> None:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bots": 3, "days": 1.0, "normals": 2}), encoding="utf-8")
    from_file = tmp_path / "from_file"
    rc = run(["synth", "--config", str(cfg_path), "--seed", "7", "--out", str(from_file)])
    assert rc == 0
    manifest = json.loads((from_file / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["bots"] == 3

    overridden = tmp_path / "overridden"
    rc = run(
        ["synth", "--config", str(cfg_path), "--bots", "5", "--seed", "7", "--out", str(overridden)]
    )
    assert rc == 0
    manifest = json.loads((overridden / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["bots"] == 5
    assert manifest["config"]["days"] == 1.0


def test_config_unknown_key_is_data_error(tmp_path, capsys) -> None:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    rc = run(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_must_be_json_object(tmp_path) -> None:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]", encoding="utf-8")
    assert run(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    cfg_path.write_text("{nope", encoding="utf-8")
    assert run(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert run(["synth", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 2


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


_EMPTY_ARCHIVE = _npz(
    x=np.zeros((0, 24, 9)),
    y=np.zeros(0),
    origin_character=np.array([], dtype=str),
    origin_start=np.zeros(0, dtype=np.int64),
)
_MISALIGNED_ARCHIVE = _npz(
    x=np.zeros((3, 24, 9)),
    y=np.zeros(2),
    origin_character=np.array(["a", "b", "c"]),
    origin_start=np.zeros(3, dtype=np.int64),
)


def _with_model_metadata(edit):
    """Rewrite a model.bin's metadata JSON through ``edit``, keeping its payload."""

    def rewrite(blob: bytes) -> bytes:
        (meta_len,) = struct.unpack("<I", blob[8:12])
        meta = json.dumps(edit(json.loads(blob[12 : 12 + meta_len]))).encode()
        return blob[:8] + struct.pack("<I", len(meta)) + meta + blob[12 + meta_len :]

    return rewrite


def _signed(blob: bytes) -> bytes:
    """A model.bin with its digest set to match its metadata and payload, as ``save_model`` sets it."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    meta = json.loads(blob[12 : 12 + meta_len])
    unsigned = json.dumps({k: v for k, v in meta.items() if k != "sha256"}, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(unsigned.encode() + blob[12 + meta_len :]).hexdigest()
    return _model_field("sha256", value=digest)(blob)


def _with_tensor_entry(name, value):
    """Set the first entry of tensor ``name`` in a model.bin's payload to ``value``, and the
    digest to match."""

    def rewrite(blob: bytes) -> bytes:
        (meta_len,) = struct.unpack("<I", blob[8:12])
        cfg = json.loads(blob[12 : 12 + meta_len])["model_config"]
        where, _ = param_layout(cfg["input_dim"], cfg["hidden_dim"]).views[name]
        flat = np.frombuffer(blob[12 + meta_len :], dtype="<f8").copy()
        flat[where.start] = value
        return _signed(blob[: 12 + meta_len] + flat.tobytes())

    return rewrite


def _drop_window_config(meta: dict) -> dict:
    del meta["window_config"]
    return meta


def _drop_first_active_feature(meta: dict, key: str = "feature_schema") -> dict:
    active = meta[key]["active"]
    active[active.index(True)] = False
    return meta


def _narrow_featurize_schema(blob: bytes) -> bytes:
    return json.dumps(_drop_first_active_feature(json.loads(blob), "schema")).encode()


def _shorten_active_mask(meta: dict, key: str = "feature_schema") -> dict:
    meta[key]["active"].pop()
    return meta


def _repeat_first_feature_name(meta: dict, key: str = "feature_schema") -> dict:
    features = meta[key]["features"]
    features[1]["name"] = features[0]["name"]
    return meta


def _featurize_edit(edit, *args):
    """Rewrite a featurize.json through ``edit``."""
    return lambda blob: json.dumps(edit(json.loads(blob), *args)).encode()


def _set_field(*path, value):
    """An edit that sets ``doc[path[0]][path[1]]...`` to ``value``."""

    def edit(doc: dict) -> dict:
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return doc

    return edit


def _model_field(*path, value):
    """Rewrite one field of a model.bin's metadata."""
    return _with_model_metadata(_set_field(*path, value=value))


def _featurize_field(*path, value):
    """Rewrite one field of a featurize.json."""
    return lambda blob: json.dumps(_set_field(*path, value=value)(json.loads(blob))).encode()


def _with_samples(name, edit):
    """Rewrite one array of a samples.npz through ``edit``."""

    def rewrite(blob: bytes) -> bytes:
        with np.load(io.BytesIO(blob)) as bundle:
            arrays = dict(bundle)
        arrays[name] = edit(arrays[name])
        return _npz(**arrays)

    return rewrite


def _put(index, value):
    def edit(array: np.ndarray) -> np.ndarray:
        array = array.copy()
        array[index] = value
        return array

    return edit


@pytest.mark.parametrize(
    "command, config, corrupt, code",
    [
        # config values of the wrong type are usage errors
        ("synth", {"bots": None}, None, 1),
        ("synth", {"days": [1]}, None, 1),
        ("crossval", {"k": None}, None, 1),
        ("crossval", {"seed": [1]}, None, 1),
        ("crossval", {"threshold": None}, None, 1),
        ("crossval", {"by_period": [7]}, None, 1),
        ("crossval", {"window_length": None}, None, 1),
        ("crossval", {"hidden_dim": [3]}, None, 1),
        ("train", {"lr": None}, None, 1),
        ("train", {"early_stop_patience": [2]}, None, 1),
        ("score", {"threshold": None}, None, 1),
        # corrupt or incomplete featurize output is a data error
        ("train", None, ("featurize.json", b"{not json"), 2),
        ("train", None, ("featurize.json", b"\xff\xfe"), 2),
        ("train", None, ("featurize.json", b"[]"), 2),
        ("train", None, ("featurize.json", b'{"window_config": {}}'), 2),
        ("train", None, ("samples.npz", _EMPTY_ARCHIVE), 2),
        ("train", None, ("samples.npz", _MISALIGNED_ARCHIVE), 2),
        # text inputs that are not valid UTF-8 are data errors
        ("synth", None, ("cfg.json", b'{"bots": "\xff"}'), 2),
        ("crossval", None, ("status_log.csv", lambda blob: blob + b"\xff\n"), 2),
        ("crossval", None, ("labels.csv", lambda blob: blob + b"\xff,bot\n"), 2),
        # model.bin metadata that is no JSON object, or whose schema disagrees
        # with the model's input width, is a data error
        ("score", None, ("model.bin", _with_model_metadata(lambda meta: 5)), 2),
        ("score", None, ("model.bin", _with_model_metadata(list)), 2),
        ("score", None, ("model.bin", _with_model_metadata(_drop_first_active_feature)), 2),
        # a status-log field over the csv module's size limit
        ("crossval", None, ("status_log.csv", lambda blob: blob + b"x" * 200_000 + b"\n"), 2),
        # a featurize.json whose active features disagree with the window width
        ("train", None, ("featurize.json", _narrow_featurize_schema), 2),
        # window arrays outside the sample contract, or a truncated archive
        ("train", None, ("samples.npz", _with_samples("x", _put((0, 0, 0), np.nan))), 2),
        ("train", None, ("samples.npz", _with_samples("x", _put((0, 0, 0), 1.5))), 2),
        ("train", None, ("samples.npz", _with_samples("x", _put((0, 0, 0), -0.1))), 2),
        ("train", None, ("samples.npz", _with_samples("y", _put(0, 0.5))), 2),
        ("train", None, ("samples.npz", _with_samples("y", _put(0, np.nan))), 2),
        ("train", None, ("samples.npz", _with_samples("x", lambda x: x[:, 0])), 2),
        ("train", None, ("samples.npz", lambda blob: blob[: len(blob) // 2]), 2),
        # fewer than two folds, thresholds that are no probability, and
        # period lengths that are no positive number of days
        ("crossval", {"k": 1}, None, 1),
        ("crossval", {"threshold": float("nan")}, None, 1),
        ("crossval", {"threshold": -1}, None, 1),
        ("crossval", {"threshold": 1.5}, None, 1),
        ("score", {"threshold": float("nan")}, None, 1),
        ("score", {"threshold": float("inf")}, None, 1),
        ("score", {"threshold": -0.5}, None, 1),
        ("crossval", {"by_period": float("nan")}, None, 1),
        ("crossval", {"by_period": float("inf")}, None, 1),
        # float options must be finite; an infinite integer option and a null
        # where the default is not null are usage errors too
        ("crossval", {"lr": float("nan")}, None, 1),
        ("crossval", {"lr": float("inf")}, None, 1),
        ("crossval", {"dropout": float("nan")}, None, 1),
        ("train", {"dropout": float("inf")}, None, 1),
        ("train", {"dropout": float("nan")}, None, 1),
        ("synth", {"days": float("nan")}, None, 1),
        ("synth", {"days": float("inf")}, None, 1),
        ("synth", {"interval_hours": float("nan")}, None, 1),
        ("synth", {"separability": float("-inf")}, None, 1),
        ("synth", {"bots": float("inf")}, None, 1),
        ("train", {"dropout": None}, None, 1),
        ("crossval", {"leaky_folds": None}, None, 1),
        # config values cast strictly: switches take JSON booleans, integer
        # options integral numbers, float options numbers
        ("crossval", {"leaky_folds": "false"}, None, 1),
        ("crossval", {"leaky_folds": "no"}, None, 1),
        ("train", {"batch_size": False}, None, 1),
        ("crossval", {"k": 2.9}, None, 1),
        ("crossval", {"k": "3"}, None, 1),
        ("crossval", {"k": True}, None, 1),
        ("train", {"hidden_dim": 2.5}, None, 1),
        ("synth", {"bots": "2"}, None, 1),
        ("synth", {"days": True}, None, 1),
        ("synth", {"days": "7"}, None, 1),
        ("train", {"lr": "0.01"}, None, 1),
        ("score", {"threshold": False}, None, 1),
        # seeds must be non-negative, and early stopping needs a patience of
        # at least one epoch
        ("synth", {"seed": -4}, None, 1),
        ("train", {"seed": -1}, None, 1),
        ("crossval", {"seed": -1}, None, 1),
        ("train", {"early_stop_patience": 0}, None, 1),
        ("train", {"early_stop_patience": -2}, None, 1),
        # values outside an option's range, and a model file that is not there
        ("train", {"hidden_dim": 0}, None, 1),
        ("crossval", {"epochs": -1}, None, 1),
        ("train", {"batch_size": 0}, None, 1),
        ("train", {"dropout": 1.5}, None, 1),
        ("crossval", {"stride": 0}, None, 1),
        ("synth", {"bots": -1}, None, 1),
        ("score", None, ("model.bin", None), 2),
        # option combinations synth cannot run
        ("synth", {"days": 1, "interval_hours": 100}, None, 1),
        ("synth", {"bots": 0, "normals": 0}, None, 1),
        # artifact fields cast strictly: switches are JSON booleans, integer
        # fields integral numbers
        ("score", None, ("model.bin", _model_field("feature_schema", "active", 0, value="false")), 2),
        ("score", None, ("model.bin", _model_field("model_config", "input_dim", value=True)), 2),
        ("score", None, ("model.bin", _model_field("model_config", "hidden_dim", value=32.9)), 2),
        ("score", None, ("model.bin", _model_field("model_config", "seed", value="11")), 2),
        ("score", None, ("model.bin", _model_field("feature_schema", "active", 0, value=1)), 2),
        ("score", None, ("model.bin", _model_field("feature_schema", "features", 0, "id", value=1.5)), 2),
        ("score", None, ("model.bin", _model_field("window_config", "window_length", value=24.5)), 2),
        ("score", None, ("model.bin", _model_field("window_config", "stride", value=True)), 2),
        ("train", None, ("featurize.json", _featurize_field("window_config", "stride", value="12")), 2),
        ("train", None, ("featurize.json", _featurize_field("schema", "active", 0, value="true")), 2),
        # float fields of model.bin are JSON numbers and finite
        ("score", None, ("model.bin", _model_field("model_config", "dropout_p", value="0.1")), 2),
        ("score", None, ("model.bin", _model_field("model_config", "dropout_p", value=float("nan"))), 2),
        # featurize output that keeps no feature, with windows zero features wide
        (
            "train",
            None,
            [
                ("featurize.json", _featurize_field("schema", "active", value=[False] * 9)),
                ("samples.npz", _with_samples("x", lambda x: x[:, :, :0])),
            ],
            2,
        ),
        # a feature schema its own constructor rejects: an active mask one
        # entry short, or two features that share a name
        ("score", None, ("model.bin", _with_model_metadata(_shorten_active_mask)), 2),
        ("score", None, ("model.bin", _with_model_metadata(_repeat_first_feature_name)), 2),
        ("train", None, ("featurize.json", _featurize_edit(_repeat_first_feature_name, "schema")), 2),
        # a tensor holding NaN or inf, a metadata length past the end of the
        # file, and metadata without a window config
        ("score", None, ("model.bin", _with_tensor_entry("b_out", np.nan)), 2),
        ("score", None, ("model.bin", _with_tensor_entry("W_x", np.inf)), 2),
        ("score", None, ("model.bin", lambda blob: blob[:8] + struct.pack("<I", len(blob)) + blob[12:]), 2),
        ("score", None, ("model.bin", _with_model_metadata(_drop_window_config)), 2),
        # a null seed, as for every other option whose default is not null
        ("crossval", {"seed": None}, None, 1),
        # the removed L2 penalty and batch-norm switch are unknown config keys
        ("train", {"l2": 0.1}, None, 2),
        ("crossval", {"batchnorm": False}, None, 2),
    ],
)
def test_malformed_inputs_exit_with_documented_code(
    command, config, corrupt, code, dataset, features, model_dir, tmp_path, capsys
) -> None:
    samples = tmp_path / "samples"
    shutil.copytree(features, samples)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for path in (dataset / "status_log.csv", dataset / "labels.csv", model_dir / "model.bin"):
        shutil.copy(path, inputs)
    cfg_path = inputs / "cfg.json"
    if config is not None:
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
    # one (file, content) pair, or a list of them
    for name, content in [corrupt] if isinstance(corrupt, tuple) else corrupt or []:
        target = (samples if name in ("featurize.json", "samples.npz") else inputs) / name
        if content is None:
            target.unlink()
        else:
            target.write_bytes(content(target.read_bytes()) if callable(content) else content)
    log, labels = str(inputs / "status_log.csv"), str(inputs / "labels.csv")
    argv = {
        "synth": ["synth"],
        "crossval": ["crossval", "--log", log, "--labels", labels],
        "train": ["train", "--samples", str(samples), "--epochs", "1"],
        "score": ["score", "--log", log, "--model", str(inputs / "model.bin")],
    }[command] + ["--out", str(tmp_path / "out")]
    if cfg_path.exists():
        argv += ["--config", str(cfg_path)]
    assert run(argv) == code
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["--days", "1", "--interval-hours", "100"], ("--days", "--interval-hours")),
        (["--bots", "0", "--normals", "0"], ("--bots", "--normals")),
        (["--days", "1e308", "--interval-hours", "1e-300"], ("--days", "--interval-hours")),
    ],
)
def test_synth_option_combinations_name_both_flags(argv, flags, tmp_path, capsys) -> None:
    assert run(["synth", *argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, want",
    [
        ("leaky_folds", "false", "must be true or false"),
        ("leaky_folds", 1, "must be true or false"),
        ("k", 2.9, "must be an integer"),
        ("k", "3", "must be an integer"),
        ("k", True, "must be an integer"),
        ("seed", 1e400, "must be an integer"),
        ("seed", None, "must not be null"),
        ("lr", "0.01", "must be a number"),
        ("threshold", False, "must be a number"),
    ],
)
def test_config_value_of_wrong_type_names_the_flag(key, value, want, tmp_path, capsys) -> None:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = ["crossval", "--log", "log.csv", "--labels", "labels.csv", "--config", str(cfg_path)]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"{cli._flag(key)} {want}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_config_numbers_are_accepted(tmp_path) -> None:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 4.0, "seed": 7.0, "lr": 1, "leaky_folds": False}), encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["crossval", "--log", "log.csv", "--labels", "labels.csv", "--config", str(cfg_path)]
    )
    resolved = cli._resolve(args)
    assert [(resolved[k], type(resolved[k])) for k in ("k", "seed", "lr", "leaky_folds")] == [
        (4, int),
        (7, int),
        (1.0, float),
        (False, bool),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["crossval", "--k", "1"],
        ["crossval", "--threshold", "nan"],
        ["score", "--threshold", "-1"],
    ],
)
def test_bad_k_or_threshold_flag_is_usage_error(argv, dataset, model_dir, tmp_path, capsys) -> None:
    inputs = ["--log", str(dataset / "status_log.csv")]
    inputs += ["--labels", str(dataset / "labels.csv")] if argv[0] == "crossval" else [
        "--model", str(model_dir / "model.bin"), "--out", str(tmp_path / "out")
    ]
    assert run(argv + inputs) == 1
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("synth", "seed", -1),
        ("train", "seed", -1),
        ("crossval", "seed", -3),
        ("train", "early_stop_patience", 0),
        ("train", "early_stop_patience", -2),
    ],
)
def test_negative_seed_or_patience_names_the_flag(command, key, value, features, tmp_path, capsys) -> None:
    paths = {
        "synth": [],
        "train": ["--samples", str(features)],
        "crossval": ["--log", "log.csv", "--labels", "labels.csv"],
    }[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}), encoding="utf-8")
    for source in ([cli._flag(key), str(value)], ["--config", str(cfg_path)]):
        assert run([command, *paths, *source, "--out", str(tmp_path / "out")]) == 1, source
        err = capsys.readouterr().err
        assert f"error: {cli._flag(key)} must be " in err and f", got {value}\n" in err, source
        assert "Traceback" not in err


_OUT_OF_RANGE = [
    ("synth", "bots", -1, "non-negative"),
    ("synth", "days", 0, "positive"),
    ("synth", "separability", 1.5, "in [0, 1]"),
    ("featurize", "window_length", 1, "at least 2"),
    ("featurize", "stride", 0, "at least 1"),
    ("train", "hidden_dim", 0, "at least 1"),
    ("train", "epochs", -1, "non-negative"),
    ("train", "batch_size", 0, "at least 1"),
    ("train", "dropout", 1.5, "in [0, 1)"),
    ("train", "lr", 0, "positive"),
    ("crossval", "k", 1, "at least 2"),
    ("crossval", "threshold", 1.5, "in [0, 1]"),
    ("crossval", "by_period", 0, "positive"),
    ("score", "threshold", -1, "in [0, 1]"),
    ("synth", "normals", -1, "non-negative"),
    ("synth", "interval_hours", 0, "positive"),
    ("synth", "seed", -1, "non-negative"),
    ("train", "early_stop_patience", 0, "at least 1"),
]


@pytest.mark.parametrize("command, key, value, want", _OUT_OF_RANGE)
def test_out_of_range_option_names_the_flag(command, key, value, want, tmp_path, capsys) -> None:
    # ranges are checked before any input is read, so the paths need not exist
    paths = {
        "synth": [],
        "featurize": ["--log", "log.csv", "--labels", "labels.csv"],
        "train": ["--samples", str(tmp_path / "samples")],
        "crossval": ["--log", "log.csv", "--labels", "labels.csv"],
        "score": ["--log", "log.csv", "--model", "model.bin"],
    }[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}), encoding="utf-8")
    for source in ([f"{cli._flag(key)}={value}"], ["--config", str(cfg_path)]):
        assert run([command, *paths, *source, "--out", str(tmp_path / "out")]) == 1, source
        err = capsys.readouterr().err
        assert f"error: {cli._flag(key)} must be {want}, got " in err, (source, err)
        assert not (tmp_path / "out").exists()
    # an option that sets a config field takes its range from that field
    if cli._OPTIONS[key].field is not None:
        owner, name = cli._OPTIONS[key].field
        required = {"input_dim": 1} if owner is ModelConfig else {}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be {want}, got {value}")):
            owner(**required, **{name: value})


def test_every_ranged_option_is_range_tested() -> None:
    tested = {key for _, key, _, _ in _OUT_OF_RANGE}
    assert tested == {key for key, option in cli._OPTIONS.items() if option.allowed is not None}


def test_only_seed_by_period_and_leaky_folds_state_their_own_setting() -> None:
    # every other option takes its type, default and range from a config field
    assert {key for key, option in cli._OPTIONS.items() if option.field is None} == {"seed"}


_CONFIG_FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (GenConfig, WindowConfig, ModelConfig, TrainOptions)
    for f in fields(cls)
    if f.type == "float"
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, name", _CONFIG_FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in _CONFIG_FLOAT_FIELDS])
def test_config_float_fields_reject_non_finite(cls, name, value) -> None:
    required = {"input_dim": 1} if cls is ModelConfig else {}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value}")):
        cls(**required, **{name: value})


_SEED_FIELDS = [(GenConfig, "seed"), (ModelConfig, "seed"), (TrainOptions, "shuffle_seed")]


@pytest.mark.parametrize("cls, name", _SEED_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in _SEED_FIELDS])
def test_config_seed_fields_reject_negatives(cls, name) -> None:
    # a negative seed would otherwise fail later, inside numpy's generator
    required = {"input_dim": 4} if cls is ModelConfig else {}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be non-negative, got -1")):
        cls(**required, **{name: -1})
    assert getattr(cls(**required, **{name: 0}), name) == 0


_FLOAT_FLAGS = [
    ("synth", "--days"),
    ("synth", "--interval-hours"),
    ("synth", "--separability"),
    ("train", "--dropout"),
    ("train", "--lr"),
    ("crossval", "--dropout"),
    ("crossval", "--lr"),
    ("crossval", "--threshold"),
    ("crossval", "--by-period"),
    ("score", "--threshold"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
def test_non_finite_float_flag_is_usage_error(command, flag, value, tmp_path, capsys) -> None:
    # option values are checked before any input is read, so the paths need not exist
    paths = {
        "synth": [],
        "train": ["--samples", str(tmp_path / "samples")],
        "crossval": ["--log", "log.csv", "--labels", "labels.csv"],
        "score": ["--log", "log.csv", "--model", "model.bin"],
    }[command]
    assert run([command, *paths, f"{flag}={value}", "--out", str(tmp_path / "out")]) == 1
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_PATH_ARGS = {"help", "log", "labels", "model", "samples", "config", "out"}


def test_flags_are_exactly_the_config_keys(tmp_path) -> None:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flag_keys = {
        command: {action.dest for action in p._actions} - _PATH_ARGS
        for command, p in sub.choices.items()
    }
    every_key = set().union(*flag_keys.values())
    cfg_path = tmp_path / "cfg.json"
    for command, keys in flag_keys.items():
        args = argparse.Namespace(command=command, config=None, **dict.fromkeys(keys))
        resolved = cli._resolve(args)
        assert set(resolved) == keys, command
        # every flag is a config key, and the resolved values read back unchanged
        cfg_path.write_text(json.dumps(resolved), encoding="utf-8")
        args.config = str(cfg_path)
        assert cli._resolve(args) == resolved, command
        # the options of other commands are not
        others = every_key - keys
        if others:
            cfg_path.write_text(json.dumps(dict.fromkeys(others, 1)), encoding="utf-8")
            with pytest.raises(DataError, match="unknown config keys") as err:
                cli._resolve(args)
            assert all(key in str(err.value) for key in others), command


def test_switch_flag_equals_config_key(tmp_path) -> None:
    # every switch defaults to false, and its flag sets it true
    assert all(option.default is False for option in cli._OPTIONS.values() if option.type is bool)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"leaky_folds": True}), encoding="utf-8")
    argv = ["crossval", "--log", "log.csv", "--labels", "labels.csv"]
    by_flag, by_file, unset = (
        cli._resolve(cli.build_parser().parse_args(argv + extra))
        for extra in (["--leaky-folds"], ["--config", str(cfg_path)], [])
    )
    assert by_flag == by_file
    assert by_flag["leaky_folds"] is True and unset["leaky_folds"] is False


@pytest.mark.parametrize(
    "command, flags",
    [
        ("train", ["--l2", "0.1"]),
        ("train", ["--no-batchnorm"]),
        ("crossval", ["--l2", "0.1"]),
        ("crossval", ["--no-batchnorm"]),
    ],
)
def test_removed_model_flags_are_usage_errors(command, flags, tmp_path, capsys) -> None:
    paths = {"train": ["--samples", "samples"], "crossval": ["--log", "log.csv", "--labels", "labels.csv"]}[command]
    assert run([command, *paths, *flags, "--out", str(tmp_path / "out")]) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", ["botledger", "botledger.cli"])
def test_module_entry_points_print_version(module) -> None:
    src = str(Path(botledger.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", module, "--version"], capture_output=True, encoding="utf-8", env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"botledger {botledger.__version__}\n"
