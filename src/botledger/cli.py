"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` fabricates a labeled dataset,
``featurize`` turns logs into training windows, ``train`` fits a model,
``crossval`` runs the k-fold evaluation (optionally split into calendar
periods), ``score`` applies a saved model to a log, and ``report`` prints
distribution and elimination tables.

Option precedence is CLI flag, then ``--config`` JSON file, then the
``BOTLEDGER_SEED`` environment variable (seeds only), then built-in defaults.
Every artifact-writing command drops a ``manifest.json`` beside its outputs
with sha256 checksums of inputs and outputs, so reruns can be compared
byte-for-byte.

Exit codes: 0 success, 1 usage error, 2 data or artifact error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zipfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .errors import DataError, NumericError
from .features import (
    ScalingScope,
    WindowConfig,
    eliminate_noninfluential,
    format_distribution_text,
    format_elimination_text,
    slide_windows,
    summarize_distributions,
    windows_from_timelines,
)
from .harness import (
    TrainOptions,
    EarlyStopConfig,
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
from .schema import FeatureSchema, Label, WindowSet, canonical_schema
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

_DEFAULTS: dict[str, dict] = {
    "synth": {
        "bots": 10,
        "normals": 40,
        "days": _GEN["days"],
        "interval_hours": _GEN["snapshot_interval"] / 3600.0,
        "separability": _GEN["separability"],
        "seed": None,
    },
    "featurize": {
        "window_length": _WINDOW["window_length"],
        "stride": _WINDOW["stride"],
        "scaling_scope": _WINDOW["scaling_scope"].value,
    },
    "train": {
        "hidden_dim": _MODEL["hidden_dim"],
        "dropout": _MODEL["dropout_p"],
        "l2": _MODEL["l2_lambda"],
        "batch_size": _TRAIN["batch_size"],
        "epochs": _TRAIN["epochs"],
        "lr": _TRAIN["lr"],
        "batchnorm": _MODEL["use_batchnorm"],
        "early_stop_patience": None,
        "seed": None,
    },
    "score": {"threshold": 0.5},
}
_DEFAULTS["crossval"] = {
    **_DEFAULTS["featurize"],
    **{key: value for key, value in _DEFAULTS["train"].items() if key != "early_stop_patience"},
    "k": 10,
    "threshold": 0.5,
    "by_period": None,
    "leaky_folds": False,
}
_DEFAULTS["report"] = dict(_DEFAULTS["featurize"])


@contextmanager
def _option_values() -> Iterator[None]:
    """Report option values of the wrong type or out of range as usage errors.

    Config files can hold ``null`` or lists where numbers belong, so the
    casts raise ``TypeError`` as well as ``ValueError``.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad option value: {exc}") from exc


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


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, config file, and explicit flags, in rising precedence."""
    defaults = _DEFAULTS[command]
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise DataError(
                f"unknown config keys for {command}: {', '.join(sorted(unknown))}"
            )
        resolved.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if getattr(args, "no_batchnorm", None):
        resolved["batchnorm"] = False
    if "seed" in resolved and resolved["seed"] is None:
        env = os.environ.get("BOTLEDGER_SEED")
        if env is not None:
            try:
                resolved["seed"] = int(env)
            except ValueError:
                raise UsageError(f"BOTLEDGER_SEED must be an integer, got {env!r}") from None
        else:
            resolved["seed"] = 0
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
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _window_config(resolved: dict) -> WindowConfig:
    with _option_values():
        return WindowConfig(
            window_length=int(resolved["window_length"]),
            stride=int(resolved["stride"]),
            scaling_scope=ScalingScope(resolved["scaling_scope"]),
        )


def _threshold(resolved: dict) -> float:
    with _option_values():
        threshold = float(resolved["threshold"])
    if not 0.0 <= threshold <= 1.0:  # NaN fails this too
        raise UsageError(f"--threshold must be a probability in [0, 1], got {threshold:g}")
    return threshold


def _model_config(resolved: dict, input_dim: int) -> ModelConfig:
    with _option_values():
        return ModelConfig(
            input_dim=input_dim,
            hidden_dim=int(resolved["hidden_dim"]),
            dropout_p=float(resolved["dropout"]),
            l2_lambda=float(resolved["l2"]),
            use_batchnorm=bool(resolved["batchnorm"]),
            seed=int(resolved["seed"]),
        )


def _train_options(resolved: dict) -> TrainOptions:
    patience = resolved.get("early_stop_patience")
    with _option_values():
        return TrainOptions(
            epochs=int(resolved["epochs"]),
            batch_size=int(resolved["batch_size"]),
            lr=float(resolved["lr"]),
            shuffle_seed=derive_seed(int(resolved["seed"]), 0x5EED),
            early_stop=EarlyStopConfig(patience=int(patience)) if patience else None,
        )


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args, "synth")
    out = _out_dir(args)
    with _option_values():
        cfg = GenConfig(
            n_bots=int(resolved["bots"]),
            n_normals=int(resolved["normals"]),
            days=float(resolved["days"]),
            snapshot_interval=float(resolved["interval_hours"]) * 3600.0,
            separability=float(resolved["separability"]),
            seed=int(resolved["seed"]),
        )
    data = generate(cfg)
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
    resolved = _resolve(args, "featurize")
    out = _out_dir(args)
    timelines, stats, schema, elim_report, window_cfg = _prepare_samples(args, resolved)
    samples = windows_from_timelines(timelines, schema, window_cfg)
    if not samples:
        raise DataError(
            "no windows produced; every timeline is shorter than the window length"
        )
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
    resolved = _resolve(args, "train")
    out = _out_dir(args)
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
    resolved = _resolve(args, "crossval")
    with _option_values():
        seed = int(resolved["seed"])
        k = int(resolved["k"])
        period_days = None if resolved["by_period"] is None else float(resolved["by_period"])
    if k < 2:
        raise UsageError(f"--k must be at least 2, got {k}")
    threshold = _threshold(resolved)
    timelines, stats, schema, elim_report, window_cfg = _prepare_samples(args, resolved)
    grouped = not bool(resolved["leaky_folds"])
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
        if not 0.0 < period_days < float("inf"):  # NaN fails this too
            raise UsageError("--by-period must be a positive number of days")
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
    resolved = _resolve(args, "score")
    threshold = _threshold(resolved)
    out = _out_dir(args)
    bundle = load_model(args.model)
    timelines, _ = load_timelines(args.log, args.labels, bundle.schema, keep_unlabeled=True)
    rows = []
    skipped = 0
    for timeline in timelines:
        windows = slide_windows(timeline, bundle.schema, bundle.window_config)
        if not windows:
            skipped += 1
            continue
        probs = predict_probs(bundle.params, bundle.config, windows.x)
        rows.append((timeline.character_id, float(probs.mean()), timeline.label))
    rows.sort(key=lambda r: (-r[1], r[0]))

    scores_path = out / "scores.csv"
    with open(scores_path, "w", encoding="utf-8") as fh:
        fh.write("character_id,probability,label\n")
        for cid, prob, label in rows:
            fh.write(f"{cid},{prob:.6f},{label.value if label else ''}\n")
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
    resolved = _resolve(args, "report")
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


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-length", type=int, help="timesteps per training window")
    p.add_argument("--stride", type=int, help="offset between consecutive windows")
    p.add_argument(
        "--scaling-scope",
        choices=[s.value for s in ScalingScope],
        help="min-max over the whole timeline or each window",
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden-dim", type=int, help="LSTM hidden width")
    p.add_argument("--dropout", type=float, help="dropout probability on the final hidden state")
    p.add_argument("--l2", type=float, help="L2 penalty on weight matrices")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument(
        "--no-batchnorm",
        action="store_true",
        default=None,
        help="disable input batch normalization",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="botledger", description="Game-bot detection from financial status logs.")
    parser.add_argument("--version", action="version", version=f"botledger {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--bots", type=int)
    p.add_argument("--normals", type=int)
    p.add_argument("--days", type=float)
    p.add_argument("--interval-hours", type=float, help="snapshot interval")
    p.add_argument("--separability", type=float, help="0: bots behave like humans; 1: fully bot-like")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="build training windows from a labeled log")
    p.add_argument("--log", required=True, help="status log CSV")
    p.add_argument("--labels", required=True, help="label CSV")
    _add_window_flags(p)
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model on featurize output")
    p.add_argument("--samples", required=True, help="featurize output directory")
    _add_model_flags(p)
    p.add_argument("--early-stop-patience", type=int, help="enable early stopping")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("crossval", help="stratified k-fold evaluation from raw logs")
    p.add_argument("--log", required=True, help="status log CSV")
    p.add_argument("--labels", required=True, help="label CSV")
    _add_window_flags(p)
    _add_model_flags(p)
    p.add_argument("--k", type=int, help="number of folds")
    p.add_argument("--threshold", type=float, help="bot decision threshold (ties count as bot)")
    p.add_argument(
        "--by-period",
        type=float,
        nargs="?",
        const=7.0,
        help="split rows by calendar period of this many days (default 7)",
    )
    p.add_argument(
        "--leaky-folds",
        action="store_true",
        default=None,
        help="assign windows to folds individually instead of per character",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", help="optional directory for report artifacts")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("score", help="apply a saved model to a status log")
    p.add_argument("--log", required=True, help="status log CSV")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--labels", help="optional label CSV to echo into the output")
    p.add_argument("--threshold", type=float, help="reporting threshold")
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="distribution and elimination tables")
    p.add_argument("--log", required=True, help="status log CSV")
    p.add_argument("--labels", required=True, help="label CSV")
    _add_window_flags(p)
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", help="optional directory for report artifacts")
    p.set_defaults(func=cmd_report)

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
