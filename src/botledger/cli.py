"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` fabricates a labeled dataset,
``featurize`` turns logs into training windows, ``train`` fits a model,
``crossval`` runs the k-fold evaluation (optionally split into calendar
periods), ``score`` applies a saved model to a log, and ``report`` prints
distribution and elimination tables.

Each option is one row of ``_OPTIONS``: its type, default, allowed range
and argparse extras.  Its flag is the key with dashes, and a switch sets the
opposite of its default (``--no-batchnorm`` sets ``batchnorm`` false).  An
option that sets a config field names that field and takes its type,
default and range from it, as declared on the field, so the library and the
CLI check the same ranges; only ``seed``, which feeds several configs,
states its own in the row.  ``_config`` builds every
config from the resolved options; they are in range by then, so it passes
them to the constructor as they are.

Option precedence is CLI flag, then ``--config`` JSON file (keyed like the
table), then the ``BOTLEDGER_SEED`` environment variable (seeds only), then
built-in defaults.  ``_resolve`` casts every value to its option's type
once, with the strict ``schema.json_value`` that also reads ``model.bin``
and ``featurize.json``.  A value outside its option's range is a usage
error that names the flag.

``_write_outputs`` is the only writer of artifacts.  Commands hand it
their report objects, and it writes them as JSON with ``schema.document``,
each dataclass as its fields.  It makes ``--out`` just before the first
file is written, so a command that fails on its options or inputs leaves no
``--out`` behind, and it drops a ``manifest.json`` beside the outputs with
the resolved options, as cast, and sha256 checksums of inputs and outputs,
so reruns can be compared byte-for-byte.

Exit codes: 0 success, 1 usage error, 2 data or artifact error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import zipfile
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DataError, NumericError
from .features import (
    ScalingScope,
    WindowConfig,
    eliminate_noninfluential,
    format_distribution_text,
    format_elimination_text,
    summarize_distributions,
    windows_from_timelines,
)
from .harness import (
    FoldOptions,
    TrainOptions,
    cross_validate,
    cross_validate_by_period,
    derive_seed,
    format_report_text,
    predict_probs,
    train,
)
from .ingest import csv_field, load_timelines, write_label_file, write_status_log
from .model_io import ModelBundle, load_model, save_model
from .network import ModelConfig
from .schema import (
    FeatureSchema,
    Label,
    Range,
    WindowSet,
    at_least,
    canonical_schema,
    check_setting,
    document,
    field_types,
    json_value,
    read_document,
)
from .synth import GenConfig, generate, write_event_log


class UsageError(Exception):
    """Bad command line or bad option values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2) here
        raise UsageError(message)


class _Option(NamedTuple):
    type: type
    default: object
    allowed: Range | None
    extras: dict  # argparse extras
    field: tuple[type, str] | None = None  # the config class and field the option sets


def _setting(owner: type, name: str, **extras) -> _Option:
    """The option that sets field ``name`` of ``owner``, with that field's type, default and range."""
    (f,) = (f for f in fields(owner) if f.name == name)
    return _Option(field_types(owner)[name], f.default, f.metadata.get("allowed"), extras, (owner, name))


# Every option a command resolves.
_OPTIONS: dict[str, _Option] = {
    "bots": _setting(GenConfig, "n_bots"),
    "normals": _setting(GenConfig, "n_normals"),
    "days": _setting(GenConfig, "days"),
    "interval_hours": _setting(GenConfig, "interval_hours", help="snapshot interval"),
    "separability": _setting(GenConfig, "separability", help="0: bots mimic their human archetypes; 1: fully bot-like"),
    "window_length": _setting(WindowConfig, "window_length", help="timesteps per training window"),
    "stride": _setting(WindowConfig, "stride", help="offset between consecutive windows"),
    "scaling_scope": _setting(
        WindowConfig, "scaling_scope", choices=[s.value for s in ScalingScope],
        help="min-max over the whole timeline or each window",
    ),
    "hidden_dim": _setting(ModelConfig, "hidden_dim", help="LSTM hidden width"),
    "dropout": _setting(ModelConfig, "dropout_p", help="dropout probability on the final hidden state"),
    "l2": _setting(ModelConfig, "l2_lambda", help="L2 penalty on weight matrices"),
    "batch_size": _setting(TrainOptions, "batch_size"),
    "epochs": _setting(TrainOptions, "epochs"),
    "lr": _setting(TrainOptions, "lr", help="Adam learning rate"),
    "batchnorm": _setting(ModelConfig, "use_batchnorm", help="disable input batch normalization"),
    "early_stop_patience": _setting(TrainOptions, "early_stop_patience", help="enable early stopping"),
    "k": _setting(FoldOptions, "k", help="number of folds"),
    "threshold": _setting(FoldOptions, "threshold", help="bot decision threshold (ties count as bot)"),
    "by_period": _setting(
        FoldOptions, "by_period_days", nargs="?", const=7.0,
        help="split rows by calendar period of this many days (default 7)",
    ),
    "leaky_folds": _setting(
        FoldOptions, "leaky_folds", help="assign windows to folds individually instead of per character"
    ),
    # one seed feeds every config of a command, some through derive_seed
    "seed": _Option(int, None, at_least(0), {}),
}
_WINDOW_KEYS = ("window_length", "stride", "scaling_scope")
_MODEL_KEYS = ("hidden_dim", "dropout", "l2", "batch_size", "epochs", "lr", "batchnorm")
# The options of each command, in --help order.
_COMMAND_OPTIONS: dict[str, tuple[str, ...]] = {
    "synth": ("bots", "normals", "days", "interval_hours", "separability", "seed"),
    "featurize": _WINDOW_KEYS,
    "train": (*_MODEL_KEYS, "early_stop_patience", "seed"),
    "crossval": (*_WINDOW_KEYS, *_MODEL_KEYS, "k", "threshold", "by_period", "leaky_folds", "seed"),
    "score": ("threshold",),
    "report": _WINDOW_KEYS,
}


def _flag(key: str) -> str:
    option = _OPTIONS[key]
    name = key.replace("_", "-")
    return f"--no-{name}" if option.type is bool and option.default else f"--{name}"


def _cast(key: str, value: object, source: str | None = None) -> object:
    """``value`` cast to the type of option ``key`` by ``json_value`` and checked
    against its range, named ``source`` (its flag) in errors."""
    option = _OPTIONS[key]
    if value is None:
        if option.default is None:
            return None
        raise UsageError(f"config key {key!r} must not be null")
    try:
        value = json_value(option.type, value)
        check_setting(value, option.allowed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{source or _flag(key)} {exc}") from exc
    return value


def _load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags, in rising precedence,
    and cast every value to its option's type."""
    keys = _COMMAND_OPTIONS[args.command]
    resolved = {key: _OPTIONS[key].default for key in keys}
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise DataError(
                f"unknown config keys for {args.command}: {', '.join(sorted(unknown))}"
            )
        resolved.update(file_cfg)
    for key in keys:
        flag_value = getattr(args, key)
        resolved[key] = _cast(key, resolved[key] if flag_value is None else flag_value)
    if "seed" in resolved and resolved["seed"] is None:
        env = os.environ.get("BOTLEDGER_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"BOTLEDGER_SEED must be an integer, got {env!r}") from None
        resolved["seed"] = _cast("seed", seed, "BOTLEDGER_SEED")
    return resolved


def _config(cls: type, resolved: dict, **fixed):
    """A ``cls`` from the resolved options that set its fields, plus ``fixed`` field values."""
    values = {
        option.field[1]: resolved[key]
        for key, option in _OPTIONS.items()
        if key in resolved and option.field and option.field[0] is cls
    }
    return cls(**values, **fixed)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_outputs(
    args: argparse.Namespace,
    resolved: dict,
    inputs: list,
    seeds: dict,
    outputs: dict[str, object],
) -> Path:
    """Make ``--out`` and write each named output into it: a str as text, a
    callable is given the path to write, and anything else, dataclasses
    included, as JSON by ``schema.document``.  Then write ``manifest.json``
    with the resolved options, as cast, and the sha256 of every input and
    output."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, content: object) -> None:
        if callable(content):
            content(out / name)
        elif isinstance(content, str):
            (out / name).write_text(content, encoding="utf-8")
        else:
            text = json.dumps(content, indent=2, sort_keys=True, default=document)
            (out / name).write_text(text + "\n", encoding="utf-8")

    for name, content in outputs.items():
        write(name, content)
    write(
        "manifest.json",
        {
            "command": args.command,
            "version": __version__,
            "config": resolved,
            "seeds": seeds,
            "inputs": [{"path": str(Path(p)), "sha256": _sha256(Path(p))} for p in inputs],
            "outputs": [{"name": name, "sha256": _sha256(out / name)} for name in outputs],
        },
    )
    return out


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    if resolved["bots"] + resolved["normals"] < 1:
        raise UsageError("--bots and --normals must add up to at least 1")
    cfg = _config(GenConfig, resolved, seed=resolved["seed"])
    try:
        steps = cfg.steps
    except OverflowError:  # days / interval beyond the float range
        raise UsageError("--days and --interval-hours must give a finite number of snapshots") from None
    if steps < 2:
        raise UsageError(f"--days and --interval-hours must give at least two snapshots, got {steps}")
    data = generate(cfg)
    out = _write_outputs(
        args,
        resolved,
        inputs=[],
        seeds={"seed": cfg.seed},
        outputs={
            "status_log.csv": lambda path: write_status_log(path, data.records, canonical_schema()),
            "labels.csv": lambda path: write_label_file(path, data.labels),
            "events.log": lambda path: write_event_log(path, data.events),
        },
    )
    n_bots = sum(1 for lab in data.labels.entries.values() if lab is Label.BOT)
    print(
        f"wrote {len(data.records)} records for {len(data.labels.entries)} characters "
        f"({n_bots} bots, {len(data.labels.entries) - n_bots} normals) to {out}"
    )
    return 0


def _prepare_samples(args: argparse.Namespace, resolved: dict):
    """Shared featurize/crossval/report front half: labeled timelines, ingest stats, window config."""
    timelines, stats = load_timelines(args.log, args.labels, canonical_schema())
    if not timelines:
        raise DataError("no labeled timelines present in the input")
    return timelines, stats, _config(WindowConfig, resolved)


def cmd_featurize(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    timelines, stats, window_cfg = _prepare_samples(args, resolved)
    schema, elim_report = eliminate_noninfluential(timelines, canonical_schema())
    samples = windows_from_timelines(timelines, schema, window_cfg)
    if not samples:
        raise DataError(
            "no windows produced; every timeline is shorter than the window length"
        )
    out = _write_outputs(
        args,
        resolved,
        inputs=[args.log, args.labels],
        seeds={},
        outputs={
            "samples.npz": lambda path: np.savez(
                path, x=samples.x, y=samples.y, origin_character=samples.character, origin_start=samples.start
            ),
            "featurize.json": {
                "schema": schema,
                "window_config": window_cfg,
                "elimination": elim_report,
                "ingest": stats,
                "n_samples": len(samples),
            },
            "elimination_report.txt": format_elimination_text(elim_report),
        },
    )
    kept = len(schema.active_indices())
    print(
        f"kept {kept} of {len(schema)} features; wrote {len(samples)} windows "
        f"({window_cfg.window_length} steps, stride {window_cfg.stride}) to {out}"
    )
    return 0


def _load_samples_dir(samples_dir: str) -> tuple[WindowSet, FeatureSchema, WindowConfig, dict]:
    base = Path(samples_dir)
    npz_path = base / "samples.npz"
    meta_path = base / "featurize.json"
    if not npz_path.is_file() or not meta_path.is_file():
        raise DataError(f"{samples_dir} does not look like featurize output")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        schema = read_document(FeatureSchema, meta["schema"], "feature schema")
        window_cfg = read_document(WindowConfig, meta["window_config"], "window config")
    except (OSError, ValueError, KeyError, TypeError, DataError) as exc:
        raise DataError(f"cannot read featurize metadata {meta_path}: {exc}") from exc
    width = len(schema.active_indices())
    if not width:
        raise DataError(f"featurize metadata {meta_path} marks no feature active")
    try:
        with open(npz_path, "rb") as fh, np.load(fh) as bundle:
            samples = WindowSet(
                x=bundle["x"],
                y=bundle["y"],
                character=bundle["origin_character"],
                start=bundle["origin_start"],
            )
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read samples from {npz_path}: {exc}") from exc
    if not samples:
        raise DataError(f"sample archive {npz_path} holds no windows")
    if np.isnan(samples.y).any():
        raise DataError(f"sample archive {npz_path} holds unlabeled windows")
    if samples.x.shape[2] != width:
        raise DataError(f"windows in {npz_path} are not {width} features wide as {meta_path} says")
    length = window_cfg.window_length
    if samples.x.shape[1] != length:
        raise DataError(f"windows in {npz_path} are {samples.x.shape[1]} steps long, not {length} as {meta_path} says")
    return samples, schema, window_cfg, meta


def _train_options(resolved: dict) -> TrainOptions:
    return _config(TrainOptions, resolved, shuffle_seed=derive_seed(resolved["seed"], 0x5EED))


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    samples, schema, window_cfg, _ = _load_samples_dir(args.samples)
    cfg = _config(ModelConfig, resolved, input_dim=samples.x.shape[2], seed=resolved["seed"])
    opts = _train_options(resolved)
    params, log = train(samples.x, samples.y, cfg, opts)
    summary = {
        "n_samples": len(samples),
        "epochs_run": len(log),
        "final_loss": log[-1]["loss"] if log else None,
        "seed": cfg.seed,
    }
    bundle = ModelBundle(
        params=params, config=cfg, schema=schema, window_config=window_cfg, training_summary=summary
    )
    out = _write_outputs(
        args,
        resolved,
        inputs=[Path(args.samples) / "samples.npz", Path(args.samples) / "featurize.json"],
        seeds={"seed": cfg.seed, "shuffle_seed": opts.shuffle_seed},
        outputs={
            "model.bin": lambda path: save_model(path, bundle),
            "training_log.json": {"epochs": log, "summary": summary},
        },
    )
    final = f"{summary['final_loss']:.6f}" if log else "n/a"
    print(f"trained on {len(samples)} windows for {len(log)} epochs (final loss {final}); model at {out / 'model.bin'}")
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    seed = resolved["seed"]
    timelines, stats, window_cfg = _prepare_samples(args, resolved)
    schema = canonical_schema()  # every feature: each fold fits its own elimination
    cfg = _config(ModelConfig, resolved, input_dim=len(schema), seed=seed)
    opts = _train_options(resolved)
    folds = _config(FoldOptions, resolved, seed=seed)
    detail: dict = {}

    if folds.by_period_days is None:
        report = cross_validate(timelines, schema, window_cfg, cfg, opts, folds)
        title = f"Cross-validation results (k={folds.k}, seed={seed})"
    else:
        report, detail["periods"], detail["skipped_periods"] = cross_validate_by_period(
            timelines, schema, window_cfg, cfg, opts, folds
        )
        title = f"Cross-validation by period (k={folds.k}, seed={seed}, period={folds.by_period_days:g}d)"

    text = format_report_text(report, title)
    if detail.get("skipped_periods"):
        text += f"skipped, no windows: {', '.join(detail['skipped_periods'])}\n"
    print(text, end="")
    if args.out:
        doc = {**document(report), "ingest": stats, **detail}
        outputs = {"report.json": doc, "report.txt": text}
        _write_outputs(args, resolved, inputs=[args.log, args.labels], seeds={"seed": seed}, outputs=outputs)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    threshold = resolved["threshold"]
    bundle = load_model(args.model)
    timelines, _ = load_timelines(args.log, args.labels, bundle.schema, keep_unlabeled=True)
    rows = []
    skipped = 0
    # one character at a time: windowing the whole log at once holds every window in memory
    for c, (cid, y) in enumerate(zip(timelines.character_id.tolist(), timelines.y.tolist())):
        windows = windows_from_timelines(timelines[c : c + 1], bundle.schema, bundle.window_config)
        if not windows:
            skipped += 1
            continue
        probs = predict_probs(bundle.params, bundle.config, windows.x)
        label = "" if math.isnan(y) else (Label.BOT if y else Label.NORMAL).value
        rows.append((cid, float(probs.mean()), label))
    rows.sort(key=lambda r: (-r[1], r[0]))

    csv = "character_id,probability,label\n" + "".join(
        f"{csv_field(cid)},{prob:.6f},{label}\n" for cid, prob, label in rows
    )
    inputs = [p for p in (args.model, args.log, args.labels) if p]
    out = _write_outputs(args, resolved, inputs=inputs, seeds={}, outputs={"scores.csv": csv})
    flagged = sum(1 for _, prob, _ in rows if prob >= threshold)
    print(
        f"scored {len(rows)} characters ({flagged} at or above threshold {threshold:g}, "
        f"{skipped} skipped as shorter than the window); scores at {out / 'scores.csv'}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    timelines, stats, window_cfg = _prepare_samples(args, resolved)
    schema, elim_report = eliminate_noninfluential(timelines, canonical_schema())
    samples = windows_from_timelines(timelines, schema, window_cfg)
    if not samples:
        raise DataError("no windows produced from the input timelines")
    summary = summarize_distributions(samples, schema)
    text = format_distribution_text(summary) + "\n" + format_elimination_text(elim_report)
    print(text, end="")
    if args.out:
        doc = {"distributions": summary, "elimination": elim_report, "ingest": stats, "window_config": window_cfg}
        _write_outputs(
            args, resolved, inputs=[args.log, args.labels], seeds={}, outputs={"report.txt": text, "report.json": doc}
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="botledger", description="Game-bot detection from financial status logs.")
    parser.add_argument("--version", action="version", version=f"botledger {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    log, labels = ("--log", True, "status log CSV"), ("--labels", True, "label CSV")
    # command, handler, help, path arguments as (flag, required, help)
    commands = (
        ("synth", cmd_synth, "generate a synthetic labeled dataset", ()),
        ("featurize", cmd_featurize, "build training windows from a labeled log", (log, labels)),
        ("train", cmd_train, "train a model on featurize output", (("--samples", True, "featurize output directory"),)),
        ("crossval", cmd_crossval, "stratified k-fold evaluation from raw logs", (log, labels)),
        ("score", cmd_score, "apply a saved model to a status log", (
            log,
            ("--model", True, "model file from train"),
            ("--labels", False, "optional label CSV to echo into the output"),
        )),
        ("report", cmd_report, "distribution and elimination tables", (log, labels)),
    )
    for command, handler, help_text, paths in commands:
        p = sub.add_parser(command, help=help_text)
        for flag, required, path_help in paths:
            p.add_argument(flag, required=required, help=path_help)
        for key in _COMMAND_OPTIONS[command]:
            typ, default, _, extras, _ = _OPTIONS[key]
            if typ is bool:
                extras = {"action": "store_const", "const": not default, **extras}
            elif "choices" not in extras:  # a choice stays a string, so argparse lists the choices
                extras = {"type": typ, **extras}
            p.add_argument(_flag(key), dest=key, **extras)
        p.add_argument("--config", help="JSON file with option defaults")
        if command in ("crossval", "report"):  # these print their report; files are optional
            p.add_argument("--out", help="optional directory for report artifacts")
        else:
            p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, DataError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2 if isinstance(exc, DataError) else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
