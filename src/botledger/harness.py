"""Training loop, stratified cross-validation, period splitting, character
scores, and metrics.

Fold assignment is stratified by label and, by default, grouped by character:
every window cut from one character lands in the same fold, so a model is
never tested on slices of a timeline it trained on.  The leaky mode assigns
windows independently (still stratified) to expose how much that kind of
leakage inflates scores.  In either mode each fold fits feature elimination
on the labels of its own training characters alone.

``cross_validate`` evaluates the whole log, or each calendar period of it,
as one flat list of named splits, one per fold of each span.  It windows,
folds and fits every span before any split trains, then trains every split
in one pool of forked worker processes with one OpenBLAS thread each, or in
the calling process where it cannot; the report is the same either way.
``score_characters`` cuts the windows of a chunk of characters at a time, in
the calling process, and predicts the chunk's characters of each window
count in one stacked forward.  Every inference call (a fold's test windows, early stopping's
validation windows, ``score``'s characters) goes through ``predict_probs``,
which computes in ``TRAIN_DTYPE``, the dtype the model was trained in.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BotledgerError, DataError
from .features import WindowConfig, eliminate_noninfluential, windows_from_timelines
from .ingest import _usable_cpus
from .model_io import ModelBundle
from .network import (
    TRAIN_DTYPE,
    ModelConfig,
    ModelParams,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_adam,
    init_params,
)
from .schema import POSITIVE, UNIT, FeatureSchema, Label, Timelines, WindowSet, at_least, check_settings, setting


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with bot as the positive class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()


def compute_metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy/precision/recall/F1 with flagged zero-division conventions."""
    if cm.total < 1:
        raise ValueError("confusion matrix is empty")
    flags: list[str] = []
    accuracy = (cm.tp + cm.tn) / cm.total
    if cm.tp + cm.fp == 0:
        precision = 0.0
        flags.append("precision_zero_division")
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall = 0.0
        flags.append("recall_zero_division")
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    if precision + recall == 0.0:
        f1 = 0.0
        flags.append("f1_zero_division")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(accuracy, precision, recall, f1, tuple(flags))


@dataclass(frozen=True)
class FoldOptions:
    """Cross-validation settings: ``k`` folds dealt from ``seed``, grouped by
    character unless ``leaky_folds`` deals single windows, a probability at
    or above ``threshold`` counted as bot, and, when ``by_period_days`` is
    set, a separate evaluation of each calendar period that long."""

    seed: int = setting(0, at_least(0))
    k: int = setting(10, at_least(2))
    threshold: float = setting(0.5, UNIT)
    leaky_folds: bool = setting(False)
    by_period_days: float | None = setting(None, POSITIVE)

    __post_init__ = check_settings


def confusion_from_predictions(
    probabilities: np.ndarray, labels: np.ndarray, threshold: float = FoldOptions.threshold
) -> ConfusionMatrix:
    """Threshold probabilities (ties classify as bot) and count outcomes."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels must align")
    pred = p >= threshold
    actual = y == 1.0
    return ConfusionMatrix(
        tp=int(np.sum(pred & actual)),
        fp=int(np.sum(pred & ~actual)),
        tn=int(np.sum(~pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )


def check_folds(fold_of: np.ndarray, samples: WindowSet, folds: FoldOptions) -> None:
    """Raise ``ValueError`` unless ``fold_of`` deals each window of ``samples``
    to one of ``folds.k`` folds, leaves no fold empty and, when grouped by
    character, deals every window of a character to one fold."""
    if fold_of.shape != (len(samples),):
        raise ValueError("fold assignments do not cover the sample list")
    if fold_of.min() < 0 or fold_of.max() >= folds.k:
        raise ValueError("fold assignment out of range")
    if (np.bincount(fold_of, minlength=folds.k) == 0).any():
        raise ValueError("every fold must receive at least one sample")
    if not folds.leaky_folds:
        # every window must sit in the fold of its character's first window
        _, first, inverse = np.unique(samples.character, return_index=True, return_inverse=True)
        leaked = np.flatnonzero(fold_of[first][inverse] != fold_of)
        if leaked.size:
            character = str(samples.character[leaked[0]])
            raise ValueError(f"character {character!r} spans multiple folds")


def make_folds(samples: WindowSet, folds: FoldOptions) -> np.ndarray:
    """Each window's fold in ``[0, folds.k)``: stratified k-fold, grouped by
    character unless disabled, and checked by ``check_folds``.

    Group mode shuffles each label's sorted characters with the seeded
    generator and deals them round-robin, so per-label character counts
    across folds differ by at most one.  Either mode requires at least k
    members per class.
    """
    y = samples.y
    if np.isnan(y).any():
        raise ValueError("cross-validation needs labeled samples")
    k = folds.k
    rng = np.random.default_rng(folds.seed)
    # the units dealt to folds: characters (sorted by id) or single windows
    if not folds.leaky_folds:
        _, first, inverse = np.unique(samples.character, return_index=True, return_inverse=True)
        conflicted = np.flatnonzero(y[first][inverse] != y)
        if conflicted.size:
            character = str(samples.character[conflicted[0]])
            raise DataError(f"character {character!r} carries conflicting labels")
        unit_y, unit, kind = y[first], "characters", " grouped"
    else:
        inverse, unit_y, unit, kind = np.arange(len(y)), y, "samples", ""
    unit_fold = np.full(len(unit_y), -1, dtype=int)
    for label in (Label.BOT, Label.NORMAL):
        members = np.flatnonzero(unit_y == label.encode())
        if len(members) < k:
            raise DataError(
                f"insufficient class members: {len(members)} {label.value} {unit} for k={k}{kind} folds"
            )
        unit_fold[members[rng.permutation(len(members))]] = np.arange(len(members)) % k

    fold_of = unit_fold[inverse]
    check_folds(fold_of, samples, folds)
    return fold_of


def split_by_period(timelines: Timelines, period_seconds: float) -> list[tuple[int, Timelines]]:
    """Partition records into consecutive half-open periods.

    A record at time t belongs to period floor((t - anchor) / period), where
    the anchor is the earliest record, so boundary records always fall into
    the later period.  Returns (period index, that period's rows) sorted by
    period; a period, or a character in a period, with no record is absent.
    Raises ``DataError`` when an index reaches 2**53, past which a float
    no longer holds every integer.
    """
    if period_seconds <= 0:
        raise ValueError("period length must be positive")
    if not len(timelines.timestamp):
        return []
    first = timelines.timestamp.min()
    if not float(timelines.timestamp.max() - first) / period_seconds < 2**53:
        raise DataError("periods too short to number: the log spans 2**53 of them or more")
    period = np.floor((timelines.timestamp - first) / period_seconds).astype(int)
    return [(p, timelines.select(period == p)) for p in np.unique(period).tolist()]


# Share of the training windows early stopping holds out for validation.
HOLDOUT_FRACTION = 0.1


@dataclass(frozen=True)
class TrainOptions:
    """Training-loop settings; ``early_stop_patience`` None trains every epoch."""

    epochs: int = setting(5, at_least(0))
    batch_size: int = setting(64, at_least(1))
    lr: float = setting(1e-3, POSITIVE)
    shuffle_seed: int = setting(0, at_least(0))
    early_stop_patience: int | None = setting(None, at_least(1))

    __post_init__ = check_settings


def _epoch_batches(batch_size: int, order: np.ndarray) -> list[np.ndarray]:
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train(x: np.ndarray, y: np.ndarray, cfg: ModelConfig, opts: TrainOptions) -> tuple[ModelParams, list[dict]]:
    """Minibatch Adam training on windows ``x`` with targets ``y``; returns the
    trained params and per-epoch log.

    Batches are reshuffled every epoch from a dedicated generator; dropout
    masks come from a second generator so batch order and masks stay
    independent.  A trailing single-sample batch is merged into its
    predecessor (one sample's batch statistics are its own values, which
    erases the level information batch norm should preserve).  Early
    stopping holds out ``HOLDOUT_FRACTION`` of the windows for validation
    and stops after ``early_stop_patience`` epochs without improvement; the
    params returned are those of the epoch with the lowest validation loss,
    not those of the last epoch run.  Each minibatch is cast to
    ``TRAIN_DTYPE`` on its own, so the training forward/backward run in
    float32 without a float32 copy of the whole set; the validation windows
    go through ``predict_probs``, in float32 too.
    """
    classes = set(np.unique(y).tolist())
    if classes != {0.0, 1.0}:
        raise DataError("training needs labeled samples, at least one of each class")
    n = x.shape[0]

    params = init_params(cfg)
    state = init_adam(params, lr=opts.lr)
    shuffle_rng, dropout_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(opts.shuffle_seed).spawn(2)
    ]

    holdout: np.ndarray | None = None
    train_idx = np.arange(n)
    if opts.early_stop_patience is not None:
        order = shuffle_rng.permutation(n)
        # both classes are present, so n >= 2 and training keeps a window
        n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
        holdout, train_idx = order[:n_hold], order[n_hold:]

    log: list[dict] = []
    best_val = np.inf
    best_params = params
    stale = 0
    for epoch in range(opts.epochs):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        losses: list[float] = []
        for batch_idx in _epoch_batches(opts.batch_size, order):
            xb, yb = x[batch_idx].astype(TRAIN_DTYPE), y[batch_idx]
            probs, trace = forward(params, xb, cfg, training=True, rng=dropout_rng)
            losses.append(bce_loss(probs, yb))
            grads = backward(trace, yb, params, cfg)
            params, state = adam_step(params, grads, state)
        entry = {"epoch": epoch + 1, "loss": float(np.mean(losses))}
        log.append(entry)
        if holdout is not None:
            val_probs = predict_probs(params, cfg, x[holdout])
            entry["val_loss"] = bce_loss(val_probs, y[holdout])
            if entry["val_loss"] < best_val - 1e-12:
                best_val = entry["val_loss"]
                best_params = params.copy()  # the next training forward updates BN stats in place
                stale = 0
            else:
                stale += 1
            if stale >= opts.early_stop_patience:
                entry["early_stop"] = True
                break
    return (params if holdout is None else best_params), log


def predict_probs(params: ModelParams, cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """The bot probability of each of the windows ``x``, (B,) for a (B, T, D)
    batch and (G, B) for a (G, B, T, D) stack of G batches, computed in
    ``TRAIN_DTYPE`` up to ``forward``'s float64 readout; a batch's
    probabilities do not depend on the stack it is in."""
    probs, _ = forward(params, x.astype(TRAIN_DTYPE, copy=False), cfg, training=False)
    return probs


@dataclass(frozen=True)
class EvalRow:
    name: str
    metrics: Metrics
    confusion: ConfusionMatrix
    n_test: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_test", self.confusion.total)


@dataclass(frozen=True)
class EvalReport:
    """Per-fold (or per-period) rows plus their arithmetic mean and summed confusion."""

    rows: tuple[EvalRow, ...]
    config: dict
    average: Metrics = field(init=False)
    confusion_total: ConfusionMatrix = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "average", average_metrics([r.metrics for r in self.rows]))
        object.__setattr__(self, "confusion_total", sum((r.confusion for r in self.rows), ConfusionMatrix()))


def average_metrics(rows: Sequence[Metrics]) -> Metrics:
    if not rows:
        raise ValueError("cannot average zero metric rows")
    return Metrics(
        accuracy=float(np.mean([m.accuracy for m in rows])),
        precision=float(np.mean([m.precision for m in rows])),
        recall=float(np.mean([m.recall for m in rows])),
        f1=float(np.mean([m.f1 for m in rows])),
        flags=tuple(sorted({f for m in rows for f in m.flags})),
    )


def derive_seed(*keys: int) -> int:
    """Stable child seed for (experiment seed, fold index, ...) tuples."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


class _Split(NamedTuple):
    """One fold of one span of a ``cross_validate`` run: its name, its span's
    windows (shared, not copied), its test mask, its kept columns, and the
    model and training settings it trains with, seeds derived."""

    name: str
    samples: WindowSet
    test: np.ndarray
    keep: np.ndarray
    cfg: ModelConfig
    opts: TrainOptions


def _fold_keep(timelines: Timelines, schema: FeatureSchema, trained_characters: np.ndarray, name: str) -> np.ndarray:
    """Which active columns of ``schema`` split ``name`` keeps: elimination
    fitted with every label of ``timelines`` hidden but those of
    ``trained_characters``, so no test label helps choose the features."""
    trained = np.isin(timelines.character_id, trained_characters)
    try:
        fitted, _ = eliminate_noninfluential(replace(timelines, y=np.where(trained, timelines.y, np.nan)), schema)
    except DataError as exc:
        reason = "its training characters leave no feature that separates the classes"
        raise DataError(f"{name}: {reason}; elimination error: {exc}") from exc
    return np.array(fitted.active)[np.array(schema.active)]


def _split_probs(split: _Split) -> np.ndarray:
    """Train a fresh model on the windows ``split`` does not test and return
    its probabilities for the windows it does, on the columns it keeps."""
    x = split.samples.x if split.keep.all() else split.samples.x[..., split.keep]
    params, _ = train(x[~split.test], split.samples.y[~split.test], split.cfg, split.opts)
    return predict_probs(params, split.cfg, x[split.test])


# The splits of the forked worker this runs in, set by ``_start_worker``.
_WORKER_SPLITS: Sequence[_Split] = ()


def _start_worker(splits: Sequence[_Split], set_blas_threads: Callable[[int], None]) -> None:
    global _WORKER_SPLITS
    _WORKER_SPLITS = splits
    set_blas_threads(1)


def _in_worker(index: int) -> np.ndarray:
    return _split_probs(_WORKER_SPLITS[index])


def _openblas_function(name: str) -> Callable | None:
    """The function ``openblas_<name>`` of numpy's bundled OpenBLAS, under
    whichever symbol that build exports, when there is one."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _predict_splits(splits: Sequence[_Split]) -> list[np.ndarray]:
    """``_split_probs`` of each of ``splits``, in split order.

    One pool of forked workers, one per usable CPU up to the number of
    splits, trains them; each worker is pinned to one OpenBLAS thread, so
    the workers do not contend for cores, and takes the splits, windows
    included, from the fork rather than as a pickled copy.  Results are read
    in split order, and each read starts the next split unless a started one
    has failed, so the first failing split in that order raises its error
    here, as in one process, after the splits already running end.  A worker
    that dies (say, stopped by the out-of-memory killer) ends the run with a
    ``BotledgerError`` that names the split read.  No worker outlives the
    call.  Without ``fork``, a second usable CPU or the OpenBLAS setter, the
    splits train here in turn.
    """
    workers = min(len(splits), _usable_cpus())
    pin = _openblas_function("set_num_threads") if workers > 1 and hasattr(os, "fork") else None
    if pin is None:
        return [_split_probs(split) for split in splits]
    # imported here, so that commands which never train in workers do not load them (2 MB, 10 ms)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pin.argtypes, pin.restype = [ctypes.c_int], None
    fork = multiprocessing.get_context("fork")
    results: list[np.ndarray] = []
    # not multiprocessing.Pool: a worker killed mid-task hangs Pool.imap but raises BrokenProcessPool here
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_start_worker, initargs=(splits, pin)) as pool:
        futures: list = []
        while len(results) < len(splits):
            ahead = min(len(splits), len(results) + workers)
            while len(futures) < ahead and not any(f.done() and f.exception() for f in futures[len(results) :]):
                futures.append(pool.submit(_in_worker, len(futures)))
            try:
                results.append(futures[len(results)].result())
            except BrokenProcessPool as exc:
                died = "its worker process died, for example because the out-of-memory killer stopped it"
                raise BotledgerError(f"{splits[len(results)].name}: {died}") from exc
    return results


def cross_validate(
    timelines: Timelines,
    schema: FeatureSchema,
    window_cfg: WindowConfig,
    cfg: ModelConfig,
    opts: TrainOptions,
    folds: FoldOptions,
) -> tuple[EvalReport, dict]:
    """Stratified k-fold evaluation of the whole log, or of each calendar
    period of ``folds.by_period_days`` days; each fold fits its own
    elimination and trains a fresh model.

    Each span (the log, or a period) is windowed once, over every active
    column of ``schema``, and ``make_folds`` gives each window its fold.
    Each fold of each span becomes one ``_Split`` (``Fold n``, or ``Period
    m, Fold n``) with its test mask, the columns its ``_fold_keep`` fit
    keeps, and model and shuffle seeds derived from (span seed, fold), all
    before any split trains.  ``_predict_splits`` then trains each split on
    the windows outside its test mask and predicts those inside, in forked
    workers where it can; the report does not depend on where a split ran.
    The report's ``config`` holds the fields of ``folds`` beside the model
    and training settings.

    Row ``Period n`` (``Week n`` for 7-day periods) is calendar period n,
    ``split_by_period``'s index plus one, with a seed derived from
    (``folds.seed``, n), and holds that period's average metrics and summed
    confusion.  A period with no record gets no row; one that gives no
    window (typically the last, partial one) is skipped by name.  Returns
    the report and a detail dict: empty for the whole log; by period,
    ``"periods"``, each evaluated period's own report as
    ``{"name", "report"}`` dicts, and ``"skipped_periods"``.

    Raises ``DataError``, named by fold and period, when no window is cut,
    folds cannot be dealt or a fold's fit keeps no feature.  The first
    split, in (period, fold) order, whose training raises stops the run
    with that error.
    """
    config = {**asdict(folds), "model": cfg, "epochs": opts.epochs, "batch_size": opts.batch_size, "lr": opts.lr}
    if folds.by_period_days is None:
        spans = [("", timelines, folds)]
    else:
        row_name = "Week" if folds.by_period_days == 7.0 else "Period"
        spans = [
            (f"{row_name} {period + 1}", period_timelines, replace(folds, seed=derive_seed(folds.seed, period + 1)))
            for period, period_timelines in split_by_period(timelines, folds.by_period_days * 86400.0)
        ]
    evaluated: list[tuple[str, str, int]] = []  # each evaluated span's name, its splits' name prefix and seed
    splits: list[_Split] = []
    skipped: list[str] = []
    for name, span_timelines, span_folds in spans:
        prefix = f"{name}, " if name else ""
        try:
            samples = windows_from_timelines(span_timelines, schema, window_cfg)
            if not samples:
                if name:
                    skipped.append(name)
                    continue
                raise DataError("no windows produced from the input timelines")
            fold_of = make_folds(samples, span_folds)
        except DataError as exc:
            raise DataError(prefix + str(exc)) from exc
        evaluated.append((name, prefix, span_folds.seed))
        for fold in range(folds.k):
            split_name, test = f"{prefix}Fold {fold + 1}", fold_of == fold
            keep = _fold_keep(span_timelines, schema, samples.character[~test], split_name)
            fold_cfg = replace(cfg, input_dim=int(keep.sum()), seed=derive_seed(span_folds.seed, fold))
            fold_opts = replace(opts, shuffle_seed=derive_seed(span_folds.seed, fold, 1))
            splits.append(_Split(split_name, samples, test, keep, fold_cfg, fold_opts))
    if not splits:
        raise DataError(f"no {row_name.lower()} produced windows")

    probs = iter(_predict_splits(splits))
    reports: list[EvalReport] = []
    for span, (_, prefix, seed) in enumerate(evaluated):
        rows = []
        for split in splits[span * folds.k : (span + 1) * folds.k]:
            cm = confusion_from_predictions(next(probs), split.samples.y[split.test], folds.threshold)
            rows.append(EvalRow(split.name.removeprefix(prefix), compute_metrics(cm), cm))
        reports.append(EvalReport(rows=tuple(rows), config={**config, "seed": seed}))
    if folds.by_period_days is None:
        return reports[0], {}
    rows = [EvalRow(name, r.average, r.confusion_total) for (name, _, _), r in zip(evaluated, reports)]
    periods = [{"name": name, "report": report} for (name, _, _), report in zip(evaluated, reports)]
    return EvalReport(rows=tuple(rows), config=config), {"periods": periods, "skipped_periods": skipped}


# Consecutive characters in one ``score_characters`` chunk, which is one
# stacked forward per window count.  On the benchmark's score-queue log (100
# characters of 55 windows each, 2-vCPU VM, one BLAS thread, medians of 12
# calls, two rounds), a chunk of 7 characters took 66-67 ms of CPU, 10 took
# 64 ms, 15 took 62-63 ms, 25 took 66-67 ms and the whole log at once 96 ms;
# 3 took 75-78 ms and 1 took 98 ms.  The tracemalloc peak grows by about
# 1.1 MB a character, most of it the all-step input projection: 7.6 MB at
# 7, 10.8 MB at 10, 16.1 MB at 15 and 107 MB for the whole log.
SCORE_CHUNK_CHARACTERS = 7


def score_characters(timelines: Timelines, bundle: ModelBundle) -> np.ndarray:
    """Each character's mean window probability under ``bundle``; NaN for a
    character shorter than one window.

    Windows are cut ``SCORE_CHUNK_CHARACTERS`` consecutive characters at a
    time, with one ``windows_from_timelines`` call, so the whole log's
    windows are never held at once, and each chunk's scores are placed by
    its windows' ``character``.  The chunk's characters with the same number
    of windows go through ``predict_probs`` as one (characters, windows,
    time, features) stack, one batch per character, and a character with no
    other of its count as one batch, so a score does not depend on the
    chunking or on the other characters of its stack.  The first chunk, in
    character order, that fails raises.
    """
    scores = np.full(len(timelines), np.nan)
    for lo in range(0, len(timelines), SCORE_CHUNK_CHARACTERS):
        chunk = timelines[lo : lo + SCORE_CHUNK_CHARACTERS]
        windows = windows_from_timelines(chunk, bundle.schema, bundle.window_config)
        first = np.flatnonzero(windows.start == 0)
        scored = lo + np.flatnonzero(np.isin(chunk.character_id, windows.character[first]))
        counts = np.diff(first, append=len(windows))
        for count in np.unique(counts).tolist():
            group = np.flatnonzero(counts == count)
            starts = first[group]
            # a lone character goes as a plain batch, a view of the chunk's windows: a stack of one
            # would pay for a copy and for the stacked products' dispatch at every step
            if len(group) == 1:
                x = windows.x[starts[0] : starts[0] + count]
            else:
                x = windows.x[starts[:, None] + np.arange(count)]
            scores[scored[group]] = predict_probs(bundle.params, bundle.config, x).mean(axis=-1)
    return scores


def format_report_text(report: EvalReport, title: str = "Cross-validation results") -> str:
    """Fixed-width table: one row per fold/period plus the average."""
    header = f"{'Experiment':<14}{'Accuracy':>10}{'Precision':>11}{'Recall':>9}{'F1 Score':>10}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row in report.rows:
        m = row.metrics
        lines.append(
            f"{row.name:<14}{m.accuracy:>10.4f}{m.precision:>11.4f}{m.recall:>9.4f}{m.f1:>10.4f}"
        )
    lines.append("-" * len(header))
    a = report.average
    lines.append(f"{'Average':<14}{a.accuracy:>10.4f}{a.precision:>11.4f}{a.recall:>9.4f}{a.f1:>10.4f}")
    if a.flags:
        lines.append(f"flags: {', '.join(a.flags)}")
    return "\n".join(lines) + "\n"
