"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` fabricates a labeled dataset,
``featurize`` turns logs into training windows, ``train`` fits a model,
``crossval`` runs the k-fold evaluation (optionally split into calendar
periods), ``score`` applies a saved model to a log, and ``report`` prints
distribution and elimination tables.

Each option is one row of ``_OPTIONS``: its type, default, allowed range
and argparse extras.  Its flag is the key with dashes, and a switch sets the
opposite of its default (``--no-batchnorm`` sets ``batchnorm`` false).
Option precedence is CLI flag, then ``--config`` JSON file (keyed like the
table), then the ``BOTLEDGER_SEED`` environment variable (seeds only), then
built-in defaults.  ``_resolve`` casts every value to its option's type
once, so commands read typed values.  The cast is strict: switches take only
JSON booleans, integer options only integral numbers, and float options only
finite numbers.  A value outside its option's range is a usage error that
names the flag.

Output directories are made just before the first file is written, so a
command that fails on its options or inputs leaves no ``--out`` behind.

Every artifact-writing command drops a ``manifest.json`` beside its outputs
with the resolved options, as cast, and sha256 checksums of inputs and
outputs, so reruns can be compared byte-for-byte.

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
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator

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
    TrainOptions,
    cross_validate,
    cross_validate_by_period,
    derive_seed,
    format_report_text,
    predict_probs,
    train,
)
from .ingest import load_timelines, write_label_file, write_status_log
from .model_io import ModelBundle, load_model, save_model
from .network import ModelConfig
from .schema import FeatureSchema, Label, WindowSet, canonical_schema, json_bool, json_int
from .synth import GenConfig, generate, write_event_log


class UsageError(Exception):
    """Bad command line or bad option values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2) here
        raise UsageError(message)


def _field_defaults(cls: type) -> dict:
    return {f.name: f.default for f in fields(cls)}


_GEN = _field_defaults(GenConfig)
_WINDOW = _field_defaults(WindowConfig)
_MODEL = _field_defaults(ModelConfig)
_TRAIN = _field_defaults(TrainOptions)

# A numeric option's allowed values: a test and how the error message states it.
_Range = tuple[Callable[[float], bool], str]


def _at_least(low: int) -> _Range:
    return (lambda v: v >= low), "non-negative" if low == 0 else f"at least {low}"


_POSITIVE: _Range = ((lambda v: v > 0), "positive")
_UNIT: _Range = ((lambda v: 0 <= v <= 1), "in [0, 1]")
_UNIT_OPEN: _Range = ((lambda v: 0 <= v < 1), "in [0, 1)")

# Every option a command resolves: key -> (type, default, range, argparse extras).
_OPTIONS: dict[str, tuple[type, object, _Range | None, dict]] = {
    "bots": (int, 10, _at_least(0), {}),
    "normals": (int, 40, _at_least(0), {}),
    "days": (float, _GEN["days"], _POSITIVE, {}),
    "interval_hours": (float, _GEN["snapshot_interval"] / 3600.0, _POSITIVE, {"help": "snapshot interval"}),
    "separability": (
        float, _GEN["separability"], _UNIT, {"help": "0: bots behave like humans; 1: fully bot-like"}
    ),
    "window_length": (int, _WINDOW["window_length"], _at_least(2), {"help": "timesteps per training window"}),
    "stride": (int, _WINDOW["stride"], _at_least(1), {"help": "offset between consecutive windows"}),
    "scaling_scope": (
        ScalingScope,
        _WINDOW["scaling_scope"],
        None,
        {"choices": [s.value for s in ScalingScope], "help": "min-max over the whole timeline or each window"},
    ),
    "hidden_dim": (int, _MODEL["hidden_dim"], _at_least(1), {"help": "LSTM hidden width"}),
    "dropout": (float, _MODEL["dropout_p"], _UNIT_OPEN, {"help": "dropout probability on the final hidden state"}),
    "l2": (float, _MODEL["l2_lambda"], _at_least(0), {"help": "L2 penalty on weight matrices"}),
    "batch_size": (int, _TRAIN["batch_size"], _at_least(1), {}),
    "epochs": (int, _TRAIN["epochs"], _at_least(0), {}),
    "lr": (float, _TRAIN["lr"], _POSITIVE, {"help": "Adam learning rate"}),
    "batchnorm": (bool, _MODEL["use_batchnorm"], None, {"help": "disable input batch normalization"}),
    "early_stop_patience": (int, _TRAIN["early_stop_patience"], _at_least(1), {"help": "enable early stopping"}),
    "k": (int, 10, _at_least(2), {"help": "number of folds"}),
    "threshold": (float, 0.5, _UNIT, {"help": "bot decision threshold (ties count as bot)"}),
    "by_period": (
        float,
        None,
        _POSITIVE,
        {"nargs": "?", "const": 7.0, "help": "split rows by calendar period of this many days (default 7)"},
    ),
    "leaky_folds": (bool, False, None, {"help": "assign windows to folds individually instead of per character"}),
    "seed": (int, None, _at_least(0), {}),
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
    typ, default, _, _ = _OPTIONS[key]
    name = key.replace("_", "-")
    return f"--no-{name}" if typ is bool and default else f"--{name}"


@contextmanager
def _option_values() -> Iterator[None]:
    """Report option values a config class rejects as usage errors."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad option value: {exc}") from exc


def _cast(key: str, value: object) -> object:
    """``value`` as the type of option ``key``.

    Only JSON's own types convert: a switch takes ``true`` or ``false``, an
    integer option an integral number (``4.0`` is 4), and a float option a
    finite number.  Strings and booleans are never numbers.  The value must
    lie in the option's range.
    """
    typ, default, _, _ = _OPTIONS[key]
    if value is None:
        if default is None:
            return None
        raise UsageError(f"config key {key!r} must not be null")
    flag = _flag(key)
    if typ is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise UsageError(f"{flag} must be a number, got {value!r}")
    try:
        value = {bool: json_bool, int: json_int}.get(typ, typ)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{flag} {exc}") from exc
    if typ is float and not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}")
    _check_range(flag, key, value)
    return value


def _check_range(source: str, key: str, value: object) -> None:
    allowed = _OPTIONS[key][2]
    if allowed is not None and not allowed[0](value):
        raise UsageError(f"{source} must be {allowed[1]}, got {value}")


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
    resolved = {key: _OPTIONS[key][1] for key in keys}
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
            resolved["seed"] = int(env)
        except ValueError:
            raise UsageError(f"BOTLEDGER_SEED must be an integer, got {env!r}") from None
        _check_range("BOTLEDGER_SEED", "seed", resolved["seed"])
    return resolved


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    resolved: dict,
    inputs: list[Path],
    outputs: list[Path],
    seeds: dict,
) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
        "seeds": seeds,
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in inputs],
        "outputs": [{"name": p.name, "sha256": _sha256(p)} for p in outputs],
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _window_config(resolved: dict) -> WindowConfig:
    with _option_values():
        return WindowConfig(
            window_length=resolved["window_length"],
            stride=resolved["stride"],
            scaling_scope=resolved["scaling_scope"],
        )


def _model_config(resolved: dict, input_dim: int) -> ModelConfig:
    with _option_values():
        return ModelConfig(
            input_dim=input_dim,
            hidden_dim=resolved["hidden_dim"],
            dropout_p=resolved["dropout"],
            l2_lambda=resolved["l2"],
            use_batchnorm=resolved["batchnorm"],
            seed=resolved["seed"],
        )


def _train_options(resolved: dict) -> TrainOptions:
    with _option_values():
        return TrainOptions(
            epochs=resolved["epochs"],
            batch_size=resolved["batch_size"],
            lr=resolved["lr"],
            shuffle_seed=derive_seed(resolved["seed"], 0x5EED),
            early_stop_patience=resolved.get("early_stop_patience"),
        )


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    if resolved["bots"] + resolved["normals"] < 1:
        raise UsageError("--bots and --normals must add up to at least 1")
    with _option_values():
        cfg = GenConfig(
            n_bots=resolved["bots"],
            n_normals=resolved["normals"],
            days=resolved["days"],
            snapshot_interval=resolved["interval_hours"] * 3600.0,
            separability=resolved["separability"],
            seed=resolved["seed"],
        )
        if cfg.steps < 2:
            raise UsageError(f"--days and --interval-hours must give at least two snapshots, got {cfg.steps}")
    data = generate(cfg)
    out = _out_dir(args)
    log_path = out / "status_log.csv"
    labels_path = out / "labels.csv"
    events_path = out / "events.log"
    write_status_log(log_path, data.records, canonical_schema())
    write_label_file(labels_path, data.labels)
    write_event_log(events_path, data.events)
    _write_manifest(
        out,
        "synth",
        resolved,
        inputs=[],
        outputs=[log_path, labels_path, events_path],
        seeds={"seed": cfg.seed},
    )
    n_bots = sum(1 for lab in data.labels.entries.values() if lab is Label.BOT)
    print(
        f"wrote {len(data.records)} records for {len(data.labels.entries)} characters "
        f"({n_bots} bots, {len(data.labels.entries) - n_bots} normals) to {out}"
    )
    return 0


def _prepare_samples(args: argparse.Namespace, resolved: dict):
    """Shared featurize/crossval/report front half: ingest and eliminate."""
    schema = canonical_schema()
    timelines, stats = load_timelines(args.log, args.labels, schema)
    if not timelines:
        raise DataError("no labeled timelines present in the input")
    active_schema, elim_report = eliminate_noninfluential(timelines, schema)
    window_cfg = _window_config(resolved)
    return timelines, stats, active_schema, elim_report, window_cfg


def cmd_featurize(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    timelines, stats, schema, elim_report, window_cfg = _prepare_samples(args, resolved)
    samples = windows_from_timelines(timelines, schema, window_cfg)
    if not samples:
        raise DataError(
            "no windows produced; every timeline is shorter than the window length"
        )
    out = _out_dir(args)
    samples_path = out / "samples.npz"
    with open(samples_path, "wb") as fh:
        np.savez(
            fh,
            x=samples.x,
            y=samples.y,
            origin_character=samples.character,
            origin_start=samples.start,
        )
    meta_path = out / "featurize.json"
    _write_json(
        meta_path,
        {
            "schema": schema.to_dict(),
            "window_config": window_cfg.to_dict(),
            "elimination": elim_report.to_dict(),
            "ingest": stats.to_dict(),
            "n_samples": len(samples),
        },
    )
    elim_path = out / "elimination_report.txt"
    elim_path.write_text(format_elimination_text(elim_report), encoding="utf-8")
    _write_manifest(
        out,
        "featurize",
        resolved,
        inputs=[Path(args.log), Path(args.labels)],
        outputs=[samples_path, meta_path, elim_path],
        seeds={},
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
        schema = FeatureSchema.from_dict(meta["schema"])
        window_cfg = WindowConfig.from_dict(meta["window_config"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read featurize metadata {meta_path}: {exc}") from exc
    try:
        with np.load(npz_path) as bundle:
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
    width = len(schema.active_indices())
    if samples.x.shape[2] != width:
        raise DataError(f"windows in {npz_path} are not {width} features wide as {meta_path} says")
    return samples, schema, window_cfg, meta


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    samples, schema, window_cfg, _ = _load_samples_dir(args.samples)
    cfg = _model_config(resolved, input_dim=samples.x.shape[2])
    opts = _train_options(resolved)
    params, log = train(samples, cfg, opts)
    summary = {
        "n_samples": len(samples),
        "epochs_run": len(log),
        "final_loss": log[-1]["loss"] if log else None,
        "seed": cfg.seed,
    }
    out = _out_dir(args)
    model_path = out / "model.bin"
    save_model(
        model_path,
        ModelBundle(
            params=params,
            config=cfg,
            schema=schema,
            window_config=window_cfg,
            training_summary=summary,
        ),
    )
    log_path = out / "training_log.json"
    _write_json(log_path, {"epochs": log, "summary": summary})
    _write_manifest(
        out,
        "train",
        resolved,
        inputs=[Path(args.samples) / "samples.npz", Path(args.samples) / "featurize.json"],
        outputs=[model_path, log_path],
        seeds={"seed": cfg.seed, "shuffle_seed": opts.shuffle_seed},
    )
    final = f"{summary['final_loss']:.6f}" if log else "n/a"
    print(f"trained on {len(samples)} windows for {len(log)} epochs (final loss {final}); model at {model_path}")
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    seed, k, period_days, threshold = resolved["seed"], resolved["k"], resolved["by_period"], resolved["threshold"]
    timelines, stats, schema, elim_report, window_cfg = _prepare_samples(args, resolved)
    grouped = not resolved["leaky_folds"]
    cfg = _model_config(resolved, input_dim=len(schema.active_indices()))
    opts = _train_options(resolved)
    folds = {"k": k, "seed": seed, "threshold": threshold, "group_by_character": grouped}
    detail: dict = {}

    if period_days is None:
        samples = windows_from_timelines(timelines, schema, window_cfg)
        if not samples:
            raise DataError("no windows produced from the input timelines")
        report = cross_validate(samples, cfg, opts, **folds)
        title = f"Cross-validation results (k={k}, seed={seed})"
    else:
        report, detail["periods"], detail["skipped_periods"] = cross_validate_by_period(
            timelines, schema, window_cfg, cfg, opts, period_days=period_days, **folds
        )
        title = f"Cross-validation by period (k={k}, seed={seed}, period={period_days:g}d)"

    text = format_report_text(report, title)
    if detail.get("skipped_periods"):
        text += f"skipped, no windows: {', '.join(detail['skipped_periods'])}\n"
    print(text, end="")
    if args.out:
        out = _out_dir(args)
        report_json = out / "report.json"
        report_txt = out / "report.txt"
        doc = report.to_dict()
        doc["ingest"] = stats.to_dict()
        doc["elimination"] = elim_report.to_dict()
        doc.update(detail)
        _write_json(report_json, doc)
        report_txt.write_text(text, encoding="utf-8")
        _write_manifest(
            out,
            "crossval",
            resolved,
            inputs=[Path(args.log), Path(args.labels)],
            outputs=[report_json, report_txt],
            seeds={"seed": seed},
        )
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

    out = _out_dir(args)
    scores_path = out / "scores.csv"
    with open(scores_path, "w", encoding="utf-8") as fh:
        fh.write("character_id,probability,label\n")
        for cid, prob, label in rows:
            fh.write(f"{cid},{prob:.6f},{label}\n")
    inputs = [Path(args.model), Path(args.log)]
    if args.labels:
        inputs.append(Path(args.labels))
    _write_manifest(out, "score", resolved, inputs=inputs, outputs=[scores_path], seeds={})
    flagged = sum(1 for _, prob, _ in rows if prob >= threshold)
    print(
        f"scored {len(rows)} characters ({flagged} at or above threshold {threshold:g}, "
        f"{skipped} skipped as shorter than the window); scores at {scores_path}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    timelines, stats, schema, elim_report, window_cfg = _prepare_samples(args, resolved)
    samples = windows_from_timelines(timelines, schema, window_cfg)
    if not samples:
        raise DataError("no windows produced from the input timelines")
    summary = summarize_distributions(samples, schema)
    text = format_distribution_text(summary) + "\n" + format_elimination_text(elim_report)
    print(text, end="")
    if args.out:
        out = _out_dir(args)
        report_txt = out / "report.txt"
        report_json = out / "report.json"
        report_txt.write_text(text, encoding="utf-8")
        _write_json(
            report_json,
            {
                "distributions": summary.to_dict(),
                "elimination": elim_report.to_dict(),
                "ingest": stats.to_dict(),
                "window_config": window_cfg.to_dict(),
            },
        )
        _write_manifest(
            out,
            "report",
            resolved,
            inputs=[Path(args.log), Path(args.labels)],
            outputs=[report_txt, report_json],
            seeds={},
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
            typ, default, _, extras = _OPTIONS[key]
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
