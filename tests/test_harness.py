"""Metrics, fold hygiene, period splitting, and training-loop behavior."""

import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import botledger
from botledger import harness
from botledger.errors import DataError, NumericError
from botledger.features import WindowConfig, eliminate_noninfluential, windows_from_timelines
from botledger.harness import (
    ConfusionMatrix,
    EvalRow,
    FoldOptions,
    TrainOptions,
    average_metrics,
    check_folds,
    compute_metrics,
    confusion_from_predictions,
    cross_validate,
    derive_seed,
    format_report_text,
    make_folds,
    predict_probs,
    split_by_period,
    train,
)
from botledger.model_io import ModelBundle
from botledger.network import ModelConfig, bce_loss, forward, init_params
from botledger.schema import FeatureSchema, Label, Timelines, WindowSet, canonical_schema, document


def window_set(windows):
    """A WindowSet from (matrix, label, (character, start)) triples."""
    return WindowSet(
        x=np.array([m for m, _, _ in windows]),
        y=np.array([label.encode() for _, label, _ in windows]),
        character=np.array([origin[0] for _, _, origin in windows]),
        start=np.array([origin[1] for _, _, origin in windows]),
    )


def toy_separable(n_chars_per_class=4, windows_per_char=4, t=8, d=2, seed=0):
    """Ramp-shaped bots vs flat normals; trivially learnable."""
    rng = np.random.default_rng(seed)
    out = []
    ramp = np.linspace(0.05, 0.95, t)
    for c in range(n_chars_per_class):
        for w in range(windows_per_char):
            m = np.clip(ramp[:, None] + rng.normal(0, 0.03, (t, d)), 0.0, 1.0)
            out.append((m, Label.BOT, (f"b{c}", w)))
            m2 = np.clip(0.5 + rng.normal(0, 0.03, (t, d)), 0.0, 1.0)
            out.append((m2, Label.NORMAL, (f"n{c}", w)))
    return window_set(out)


TOY_SCHEMA = FeatureSchema(canonical_schema().features[:2], (True, True))
TOY_WINDOWS = WindowConfig(window_length=8, stride=8)


def toy_timelines(samples):
    """Each character's windows end to end, then a 0 row and a 1 row, as its
    timeline, so per-character scaling leaves the windows as they were and
    ``TOY_WINDOWS`` cuts them again; bots sit one unit higher, so elimination
    keeps both columns."""
    ids = np.unique(samples.character)
    y = [samples.y[samples.character == cid][0] for cid in ids]
    ends = np.repeat([[0.0], [1.0]], samples.x.shape[2], axis=1)
    blocks = [np.concatenate([*samples.x[samples.character == cid], ends]) + label for cid, label in zip(ids, y)]
    return Timelines(
        character_id=ids,
        y=y,
        bounds=np.cumsum([0, *map(len, blocks)]),
        timestamp=np.arange(sum(map(len, blocks))),
        values=np.concatenate(blocks),
    )


def one_window_triples(n_bots, n_normals, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda: rng.random((4, 2))
    bots = [(mk(), Label.BOT, (f"b{i:03d}", 0)) for i in range(n_bots)]
    normals = [(mk(), Label.NORMAL, (f"n{i:03d}", 0)) for i in range(n_normals)]
    return bots + normals


def one_window_samples(n_bots, n_normals, seed=0):
    return window_set(one_window_triples(n_bots, n_normals, seed))


# ---------------------------------------------------------------- metrics

def test_metrics_perfect_classifier() -> None:
    m = compute_metrics(ConfusionMatrix(tp=10, fp=0, tn=10, fn=0))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert m.flags == ()


def test_metrics_frozen_example() -> None:
    m = compute_metrics(ConfusionMatrix(tp=92, fp=8, tn=98, fn=2))
    assert m.accuracy == 0.95
    assert m.precision == 0.92
    assert m.recall == 0.9787234042553191
    assert m.f1 == 0.9484536082474226


def test_metrics_zero_division_flags() -> None:
    m = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=3))
    assert m.precision == 0.0 and "precision_zero_division" in m.flags
    assert m.f1 == 0.0 and "f1_zero_division" in m.flags
    m2 = compute_metrics(ConfusionMatrix(tp=0, fp=4, tn=5, fn=0))
    assert m2.recall == 0.0 and "recall_zero_division" in m2.flags


def test_metrics_empty_matrix_rejected() -> None:
    with pytest.raises(ValueError):
        compute_metrics(ConfusionMatrix())


def test_confusion_addition() -> None:
    total = ConfusionMatrix(1, 2, 3, 4) + ConfusionMatrix(10, 20, 30, 40)
    assert (total.tp, total.fp, total.tn, total.fn) == (11, 22, 33, 44)
    assert total.total == 110


def test_metrics_match_brute_force_recount() -> None:
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 1001))
        probs = rng.random(n)
        labels = rng.integers(0, 2, n).astype(float)
        threshold = float(rng.uniform(0.05, 0.95))
        cm = confusion_from_predictions(probs, labels, threshold)
        # independent recount, one pair at a time
        tp = fp = tn = fn = 0
        for p, y in zip(probs, labels):
            pred = p >= threshold
            if pred and y == 1.0:
                tp += 1
            elif pred and y == 0.0:
                fp += 1
            elif not pred and y == 0.0:
                tn += 1
            else:
                fn += 1
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        m = compute_metrics(cm)
        assert abs(m.accuracy - (tp + tn) / n) < 1e-12
        if tp + fp:
            assert abs(m.precision - tp / (tp + fp)) < 1e-12
        if tp + fn:
            assert abs(m.recall - tp / (tp + fn)) < 1e-12


def test_threshold_monotonicity() -> None:
    rng = np.random.default_rng(3)
    probs = rng.random(200)
    labels = rng.integers(0, 2, 200).astype(float)
    last_recall = 1.0
    for threshold in np.linspace(0.0, 1.0, 21):
        m = compute_metrics(confusion_from_predictions(probs, labels, float(threshold)))
        assert m.recall <= last_recall + 1e-12
        last_recall = m.recall


def test_tie_classifies_as_bot() -> None:
    cm = confusion_from_predictions(np.array([0.5, 0.5]), np.array([1.0, 0.0]), threshold=0.5)
    assert cm.tp == 1 and cm.fp == 1 and cm.tn == 0 and cm.fn == 0


def test_average_metrics_is_arithmetic_mean() -> None:
    rows = [
        compute_metrics(ConfusionMatrix(tp=92, fp=8, tn=98, fn=2)),
        compute_metrics(ConfusionMatrix(tp=40, fp=10, tn=45, fn=5)),
        compute_metrics(ConfusionMatrix(tp=7, fp=3, tn=8, fn=2)),
    ]
    avg = average_metrics(rows)
    for field in ("accuracy", "precision", "recall", "f1"):
        manual = sum(getattr(m, field) for m in rows) / 3.0
        assert abs(getattr(avg, field) - manual) < 1e-12


def test_average_metrics_merges_flags() -> None:
    rows = [
        compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=3)),
        compute_metrics(ConfusionMatrix(tp=5, fp=1, tn=5, fn=1)),
    ]
    assert "precision_zero_division" in average_metrics(rows).flags


# ------------------------------------------------------------------ folds

@pytest.mark.parametrize(
    "values, message",
    [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"threshold": float("nan")}, "threshold must be finite, got nan"),
        ({"by_period_days": 0}, "by_period_days must be positive, got 0"),
    ],
)
def test_fold_options_reject_values_outside_their_range(values, message) -> None:
    # k and an out-of-range threshold are checked with their flags in test_cli
    with pytest.raises(ValueError, match=re.escape(message)):
        FoldOptions(**values)
    assert FoldOptions() == FoldOptions(seed=0, k=10, threshold=0.5, leaky_folds=False, by_period_days=None)


def test_fold_balance_perfect_stratification() -> None:
    samples = one_window_samples(30, 70)
    fold_of = make_folds(samples, FoldOptions(k=10, seed=0))
    for fold in range(10):
        idx = np.flatnonzero(fold_of == fold)
        labels = samples.y[idx].tolist()
        assert labels.count(1.0) == 3
        assert labels.count(0.0) == 7


def test_folds_group_characters() -> None:
    samples = toy_separable(n_chars_per_class=6, windows_per_char=5)
    folds = FoldOptions(k=3, seed=1)
    assignments = make_folds(samples, folds)
    fold_of = {}
    for i, character in enumerate(samples.character):
        fold_of.setdefault(character, set()).add(int(assignments[i]))
    assert all(len(folds) == 1 for folds in fold_of.values())
    check_folds(assignments, samples, folds)


def test_folds_deterministic_under_seed() -> None:
    samples = one_window_samples(12, 20)
    a = make_folds(samples, FoldOptions(k=4, seed=9))
    b = make_folds(samples, FoldOptions(k=4, seed=9))
    assert np.array_equal(a, b)
    c = make_folds(samples, FoldOptions(k=4, seed=10))
    assert not np.array_equal(a, c)


def test_folds_insufficient_class_members() -> None:
    samples = one_window_samples(3, 40)
    with pytest.raises(DataError, match="insufficient class members"):
        make_folds(samples, FoldOptions(k=10, seed=0))


def test_leaky_folds_split_characters() -> None:
    # one character per class, many windows: grouping would be impossible
    samples = window_set(
        [(np.full((4, 2), 0.3), Label.BOT, ("b0", i)) for i in range(8)]
        + [(np.full((4, 2), 0.6), Label.NORMAL, ("n0", i)) for i in range(8)]
    )
    with pytest.raises(DataError):
        make_folds(samples, FoldOptions(k=2, seed=0))
    leaky = FoldOptions(k=2, seed=0, leaky_folds=True)
    fold_of = make_folds(samples, leaky)
    check_folds(fold_of, samples, leaky)
    with pytest.raises(ValueError, match="spans multiple folds"):
        check_folds(fold_of, samples, replace(leaky, leaky_folds=False))
    bot_folds = {int(fold_of[i]) for i, y in enumerate(samples.y) if y == 1.0}
    assert bot_folds == {0, 1}


def test_validate_rejects_tampered_assignments() -> None:
    samples = one_window_samples(4, 4)
    folds = FoldOptions(k=2, seed=0)
    fold_of = make_folds(samples, folds)
    fold_of[0] = 99
    with pytest.raises(ValueError):
        check_folds(fold_of, samples, folds)


def test_validate_rejects_character_leakage() -> None:
    samples = toy_separable(n_chars_per_class=4, windows_per_char=3)
    folds = FoldOptions(k=2, seed=0)
    fold_of = make_folds(samples, folds)
    victim = samples.character[0]
    idx = [i for i, character in enumerate(samples.character) if character == victim]
    fold_of[idx[0]] = 1 - fold_of[idx[0]]
    with pytest.raises(ValueError, match="spans multiple folds"):
        check_folds(fold_of, samples, folds)


def test_conflicting_character_labels_rejected() -> None:
    samples = window_set(
        [
            (np.full((4, 2), 0.2), Label.BOT, ("dual", 0)),
            (np.full((4, 2), 0.2), Label.NORMAL, ("dual", 1)),
        ]
        + one_window_triples(4, 4)
    )
    with pytest.raises(DataError, match="conflicting labels"):
        make_folds(samples, FoldOptions(k=2, seed=0))


# ---------------------------------------------------------------- periods

def _timelines(*characters):
    """(id, label, timestamps) characters as one Timelines of two zero columns."""
    lengths = [len(timestamps) for _, _, timestamps in characters]
    return Timelines(
        character_id=np.array([cid for cid, _, _ in characters], dtype=str),
        y=[label.encode() for _, label, _ in characters],
        bounds=np.cumsum([0, *lengths]),
        timestamp=[t for _, _, timestamps in characters for t in timestamps],
        values=np.zeros((sum(lengths), 2)),
    )


def test_split_by_period_four_weeks() -> None:
    day = 86400.0
    hours = np.arange(0, 28 * 24) * 3600.0
    parts = split_by_period(_timelines(("c1", Label.BOT, hours)), 7 * day)
    assert [p for p, _ in parts] == [0, 1, 2, 3]
    for _, subs in parts:
        assert len(subs) == 1 and subs.bounds.tolist() == [0, 7 * 24]


def test_split_boundary_goes_to_later_period() -> None:
    parts = split_by_period(_timelines(("c1", Label.NORMAL, [0.0, 100.0, 200.0])), 100.0)
    assert [p for p, _ in parts] == [0, 1, 2]
    assert parts[1][1].timestamp.tolist() == [100.0]
    assert parts[2][1].timestamp.tolist() == [200.0]


def test_split_timeline_confined_to_one_period() -> None:
    timelines = _timelines(("late", Label.BOT, [250.0, 260.0]), ("wide", Label.NORMAL, [0.0, 150.0, 250.0]))
    parts = dict(split_by_period(timelines, 100.0))
    assert parts[2].character_id.tolist() == ["late", "wide"]
    assert parts[2].y.tolist() == [1.0, 0.0]
    assert parts[2].bounds.tolist() == [0, 2, 3]
    assert parts[0].character_id.tolist() == ["wide"]
    assert parts[1].character_id.tolist() == ["wide"]
    assert parts[1].timestamp.tolist() == [150.0]


def test_split_anchor_defaults_to_earliest_record() -> None:
    parts = split_by_period(_timelines(("c1", Label.BOT, [1000.0, 1050.0, 1120.0])), 100.0)
    assert [p for p, _ in parts] == [0, 1]
    assert parts[0][1].bounds.tolist() == [0, 2]


def test_split_rejects_bad_period() -> None:
    with pytest.raises(ValueError):
        split_by_period(_timelines(), 0.0)
    assert split_by_period(_timelines(), 7.0) == []


def test_split_rejects_periods_too_short_to_number() -> None:
    # the last record's period index must stay below 2**53, where floats still hold every integer
    timelines = _timelines(("c1", Label.BOT, [0.0, 2.0**53]))
    assert [p for p, _ in split_by_period(timelines, 2.0)] == [0, 2**52]
    for period in (1.0, 1e-300, 5e-324):
        with pytest.raises(DataError, match="periods too short to number"):
            split_by_period(timelines, period)


# --------------------------------------------------------------- training

def test_train_zero_epochs_returns_init() -> None:
    samples = toy_separable()
    cfg = ModelConfig(2, 8, 0.0, 0.0, seed=5)
    params, log = train(samples.x, samples.y, cfg, TrainOptions(epochs=0, batch_size=8))
    fresh = init_params(cfg)
    assert log == []
    assert np.array_equal(params.W_x, fresh.W_x)
    assert np.array_equal(params.W_h, fresh.W_h)
    assert np.array_equal(params.W_out, fresh.W_out)


def test_train_deterministic() -> None:
    samples = toy_separable()
    cfg = ModelConfig(2, 8, 0.2, 1e-4, seed=5)
    opts = TrainOptions(epochs=3, batch_size=8, lr=1e-2, shuffle_seed=11)
    p1, log1 = train(samples.x, samples.y, cfg, opts)
    p2, log2 = train(samples.x, samples.y, cfg, opts)
    assert np.array_equal(p1.W_x, p2.W_x)
    assert np.array_equal(p1.W_h, p2.W_h)
    assert log1 == log2


def test_train_requires_both_classes() -> None:
    samples = toy_separable()
    bots = samples.y == 1.0
    with pytest.raises(DataError):
        train(samples.x[bots], samples.y[bots], ModelConfig(2, 8, 0.0, 0.0), TrainOptions(epochs=1))


def test_train_separable_set_converges() -> None:
    # 32 samples, batch 8 -> 200 Adam steps over 50 epochs
    samples = toy_separable()
    cfg = ModelConfig(2, 32, 0.2, 1e-4, seed=0)
    x, y = samples.x, samples.y
    init_probs, _ = forward(init_params(cfg).copy(), x, cfg, training=False)
    initial_loss = bce_loss(init_probs, y, init_params(cfg), cfg.l2_lambda)

    params, log = train(x, y, cfg, TrainOptions(epochs=50, batch_size=8, lr=1e-2))
    probs = predict_probs(params, cfg, x)
    final_loss = bce_loss(probs, y, params, cfg.l2_lambda)
    assert final_loss <= 0.1 * initial_loss
    m = compute_metrics(confusion_from_predictions(probs, y))
    assert m.accuracy >= 0.99


def test_train_loss_decreases_over_epochs() -> None:
    samples = toy_separable(seed=2)
    cfg = ModelConfig(2, 16, 0.0, 0.0, seed=1)
    _, log = train(samples.x, samples.y, cfg, TrainOptions(epochs=10, batch_size=8, lr=1e-2))
    assert log[-1]["loss"] < log[0]["loss"]
    assert [e["epoch"] for e in log] == list(range(1, 11))


def test_train_early_stop_triggers_on_noise() -> None:
    rng = np.random.default_rng(5)
    noise = window_set(
        [
            (
                np.clip(0.5 + rng.normal(0, 0.2, (8, 2)), 0, 1),
                Label.BOT if i % 2 else Label.NORMAL,
                (f"c{i}", 0),
            )
            for i in range(40)
        ]
    )
    opts = TrainOptions(
        epochs=40, batch_size=8, lr=1e-2, shuffle_seed=1, early_stop_patience=3
    )
    cfg = ModelConfig(2, 8, 0.2, 1e-4, seed=2)
    params, log = train(noise.x, noise.y, cfg, opts)
    assert len(log) < 40
    assert log[-1].get("early_stop") is True
    assert all("val_loss" in e for e in log)

    # the returned model is the best validation epoch's, not the last one's
    best = min(e["val_loss"] for e in log)
    assert log[-1]["val_loss"] > best
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(1).spawn(2)[0])
    holdout = shuffle_rng.permutation(40)[:4]  # HOLDOUT_FRACTION of 40
    x, y = noise.x, noise.y
    probs = predict_probs(params, cfg, x[holdout])
    assert bce_loss(probs, y[holdout], params, cfg.l2_lambda) == best


def test_train_forward_is_float32_and_prediction_float64(monkeypatch) -> None:
    seen = {True: [], False: []}
    real_forward = harness.forward

    def recording_forward(params, batch, cfg, *, training, rng=None):
        seen[training].append(str(batch.dtype))
        return real_forward(params, batch, cfg, training=training, rng=rng)

    monkeypatch.setattr(harness, "forward", recording_forward)
    samples = toy_separable()
    cfg = ModelConfig(2, 8, 0.2, 1e-4, seed=2)
    opts = TrainOptions(epochs=2, batch_size=8, early_stop_patience=5)
    params, _ = train(samples.x, samples.y, cfg, opts)
    probs = predict_probs(params, cfg, samples.x)
    assert samples.x.dtype == np.float64
    assert seen[True] == ["float32"] * 8  # 29 training windows in batches of 8, twice
    assert seen[False] == ["float32"] * 3  # two validation passes, one prediction
    # the readout, and so the probabilities, stay float64
    assert probs.dtype == np.float64
    assert params.flat.dtype == np.float64


def test_train_rejects_empty_or_unlabeled_windows() -> None:
    cfg = ModelConfig(2, 8, 0.0, 0.0)
    samples = toy_separable()
    with pytest.raises(DataError):
        train(samples.x[samples.y > 1.0], samples.y[samples.y > 1.0], cfg, TrainOptions(epochs=1))
    y = samples.y.copy()
    y[0] = np.nan
    with pytest.raises(DataError):
        train(samples.x, y, cfg, TrainOptions(epochs=1))


def _ragged_queue():
    """Nine characters of 20, 5, 36, 28, 20, 44, 36, 28 and 20 rows: 4, 0, 8, 6, 4, 10, 8, 6 and 4 windows
    of ``RAGGED_WINDOWS``, so window counts interleave and one character is shorter than a window."""
    lengths = [20, 5, 36, 28, 20, 44, 36, 28, 20]
    rng = np.random.default_rng(12)
    return Timelines(
        character_id=[f"c{c}" for c in range(len(lengths))],
        y=[c % 2 for c in range(len(lengths))],
        bounds=np.cumsum([0, *lengths]),
        timestamp=np.arange(sum(lengths)),
        values=rng.normal(size=(sum(lengths), 2)).cumsum(axis=0),
    )


RAGGED_WINDOWS = WindowConfig(window_length=8, stride=4)


@pytest.mark.parametrize("chunk", [1, 3, harness.SCORE_CHUNK_CHARACTERS])
def test_score_characters_stacks_each_window_count_of_a_chunk(chunk, monkeypatch) -> None:
    timelines = _ragged_queue()
    cfg = ModelConfig(input_dim=2, hidden_dim=6, seed=4)
    params = init_params(cfg)
    params.bn_running_mean = np.array([0.4, 0.6])
    params.bn_running_var = np.array([0.1, 0.3])
    bundle = ModelBundle(params, cfg, TOY_SCHEMA, RAGGED_WINDOWS, {})
    # reference: each character predicted alone, as one batch
    want = np.full(len(timelines), np.nan)
    for c in range(len(timelines)):
        windows = windows_from_timelines(timelines[c : c + 1], TOY_SCHEMA, RAGGED_WINDOWS)
        if len(windows):
            want[c] = predict_probs(params, cfg, windows.x).mean()
    # one (characters, windows, time, features) stack per chunk and window count, or one
    # (windows, time, features) batch for a character alone with its count
    counts = [4, 0, 8, 6, 4, 10, 8, 6, 4]
    chunks = [counts[lo : lo + chunk] for lo in range(0, len(counts), chunk)]
    groups = [(part.count(n), n, 8, 2) for part in chunks for n in set(part) - {0}]
    want_stacks = sorted(shape[1:] if shape[0] == 1 else shape for shape in groups)
    real_predict = harness.predict_probs
    stacks = []

    def predict_spy(params, cfg, x):
        stacks.append(x.shape)
        return real_predict(params, cfg, x)

    monkeypatch.setattr(harness, "SCORE_CHUNK_CHARACTERS", chunk)
    monkeypatch.setattr(harness, "predict_probs", predict_spy)
    got = harness.score_characters(timelines, bundle)
    assert np.array_equal(got, want, equal_nan=True) and np.isnan(got).tolist() == [c == 0 for c in counts]
    assert sorted(stacks) == want_stacks


# --------------------------------------------------------- cross-validation

def test_cross_validate_separable() -> None:
    samples = toy_separable(n_chars_per_class=8, windows_per_char=4, seed=1)
    cfg = ModelConfig(2, 16, 0.2, 1e-4, seed=0)
    report, _ = cross_validate(
        toy_timelines(samples), TOY_SCHEMA, TOY_WINDOWS, cfg, TrainOptions(epochs=30, batch_size=8, lr=1e-2),
        FoldOptions(k=2, seed=3),
    )
    assert report.average.f1 >= 0.95
    assert [r.name for r in report.rows] == ["Fold 1", "Fold 2"]
    assert sum(r.n_test for r in report.rows) == len(samples)
    assert report.confusion_total.total == len(samples)
    assert report.config["k"] == 2


def test_cross_validate_reproducible() -> None:
    samples = toy_separable(n_chars_per_class=6, windows_per_char=2, seed=4)
    cfg = ModelConfig(2, 8, 0.2, 1e-4, seed=0)
    opts = TrainOptions(epochs=5, batch_size=8, lr=1e-2)
    timelines = toy_timelines(samples)
    r1, _ = cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, opts, FoldOptions(k=2, seed=8))
    r2, _ = cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, opts, FoldOptions(k=2, seed=8))
    assert json.dumps(r1, default=document) == json.dumps(r2, default=document)


def test_report_average_row_matches_mean() -> None:
    samples = toy_separable(n_chars_per_class=6, windows_per_char=2, seed=4)
    cfg = ModelConfig(2, 8, 0.0, 0.0, seed=0)
    report, _ = cross_validate(
        toy_timelines(samples), TOY_SCHEMA, TOY_WINDOWS, cfg, TrainOptions(epochs=5, batch_size=8, lr=1e-2),
        FoldOptions(k=3, seed=1),
    )
    for field in ("accuracy", "precision", "recall", "f1"):
        manual = sum(getattr(r.metrics, field) for r in report.rows) / len(report.rows)
        assert abs(getattr(report.average, field) - manual) < 1e-12


def test_cross_validate_trains_and_predicts_on_rows_of_one_window_set(monkeypatch, tmp_path) -> None:
    # the folds may train in forked workers, so each spy records to files: one line per call (the
    # WindowSet's length, or the fold's derived model seed), and each fold's arrays under that seed
    timelines = toy_timelines(toy_separable(n_chars_per_class=10, windows_per_char=2, seed=5))
    folds = FoldOptions(k=10, seed=6)
    samples = windows_from_timelines(timelines, TOY_SCHEMA, TOY_WINDOWS)
    fold_of = make_folds(samples, folds)
    made, trained, predicted = tmp_path / "made.txt", tmp_path / "trained.txt", tmp_path / "predicted.txt"
    real_post_init, real_train, real_predict = WindowSet.__post_init__, harness.train, harness.predict_probs

    def log(path, value):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{value}\n")

    def counting_post_init(self):
        log(made, len(self.x))
        real_post_init(self)

    def recording_train(x, y, cfg, opts):
        log(trained, cfg.seed)
        np.save(tmp_path / f"train-x-{cfg.seed}.npy", x)
        np.save(tmp_path / f"train-y-{cfg.seed}.npy", y)
        return real_train(x, y, cfg, opts)

    def recording_predict(params, cfg, x):
        log(predicted, cfg.seed)
        np.save(tmp_path / f"predict-x-{cfg.seed}.npy", x)
        return real_predict(params, cfg, x)

    monkeypatch.setattr(WindowSet, "__post_init__", counting_post_init)
    monkeypatch.setattr(harness, "train", recording_train)
    monkeypatch.setattr(harness, "predict_probs", recording_predict)
    cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, ModelConfig(2, 4, 0.0, 0.0), TrainOptions(epochs=1), folds)
    # the windowing alone; no fold builds a WindowSet of its own
    assert made.read_text(encoding="utf-8").split() == [str(len(samples))]
    # each fold trains and predicts exactly once
    seeds = sorted(str(derive_seed(folds.seed, fold)) for fold in range(folds.k))
    assert sorted(trained.read_text(encoding="utf-8").split()) == seeds
    assert sorted(predicted.read_text(encoding="utf-8").split()) == seeds
    for fold in range(folds.k):
        seed = derive_seed(folds.seed, fold)
        assert np.array_equal(np.load(tmp_path / f"train-x-{seed}.npy"), samples.x[fold_of != fold])
        assert np.array_equal(np.load(tmp_path / f"train-y-{seed}.npy"), samples.y[fold_of != fold])
        assert np.array_equal(np.load(tmp_path / f"predict-x-{seed}.npy"), samples.x[fold_of == fold])


def test_format_report_text_layout() -> None:
    report, _ = cross_validate(
        toy_timelines(toy_separable(n_chars_per_class=4, windows_per_char=2, seed=7)),
        TOY_SCHEMA,
        TOY_WINDOWS,
        ModelConfig(2, 8, 0.0, 0.0, seed=0),
        TrainOptions(epochs=2, batch_size=8, lr=1e-2),
        FoldOptions(k=2, seed=0),
    )
    text = format_report_text(report)
    lines = text.splitlines()
    assert "Experiment" in lines[2] and "F1 Score" in lines[2]
    assert any(line.startswith("Fold 1") for line in lines)
    assert any(line.startswith("Average") for line in lines)


def test_derive_seed_stable_and_distinct() -> None:
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0, 1) != derive_seed(7, 0)


def test_eval_row_serialization() -> None:
    cm = ConfusionMatrix(tp=5, fp=1, tn=6, fn=0)
    row = EvalRow(name="Fold 1", metrics=compute_metrics(cm), confusion=cm, n_test=12)
    doc = json.loads(json.dumps(row, default=document))
    assert doc["name"] == "Fold 1"
    assert doc["confusion"] == {"tp": 5, "fp": 1, "tn": 6, "fn": 0}


def same_series_timelines(n_bots=6, n_normals=12, rows=16):
    """Every character logs the same two-column series, so no column separates the classes."""
    ids = [f"b{i:02d}" for i in range(n_bots)] + [f"n{i:02d}" for i in range(n_normals)]
    series = np.column_stack([np.linspace(0.0, 1.0, rows), np.linspace(1.0, 3.0, rows) ** 2])
    return Timelines(
        character_id=ids,
        y=[1.0] * n_bots + [0.0] * n_normals,
        bounds=np.arange(len(ids) + 1) * rows,
        timestamp=np.arange(len(ids) * rows),
        values=np.tile(series, (len(ids), 1)),
    )


def shifted(timelines, characters, columns, by):
    """``timelines`` with ``columns`` raised by ``by`` on the rows of ``characters``."""
    values = timelines.values.copy()
    rows = np.repeat(np.isin(timelines.character_id, characters), np.diff(timelines.bounds))
    values[np.ix_(rows, columns)] += by
    return replace(timelines, values=values)


def first_fold_characters(timelines, folds):
    """The characters ``cross_validate`` tests in its first fold, and the bots among them."""
    samples = windows_from_timelines(timelines, TOY_SCHEMA, TOY_WINDOWS)
    tested = make_folds(samples, folds) == 0
    return set(samples.character[tested].tolist()), sorted(set(samples.character[tested & (samples.y == 1.0)]))


def test_each_fold_fits_elimination_on_its_training_characters(monkeypatch) -> None:
    folds = FoldOptions(k=3, seed=4)
    base = same_series_timelines()
    signal = shifted(base, base.character_id[base.y == 1.0], [0], by=1.0)  # column 0 separates in every fold
    tested, leakers = first_fold_characters(signal, folds)
    # column 1 separates the classes only through the bots fold 1 tests
    timelines = shifted(signal, leakers, [1], by=5.0)
    assert eliminate_noninfluential(timelines, TOY_SCHEMA)[1].dropped_names() == ()

    fits = []

    def recording(timelines, schema):
        fitted, report = eliminate_noninfluential(timelines, schema)
        fits.append((set(timelines.character_id[np.isnan(timelines.y)].tolist()), report.dropped_names()))
        return fitted, report

    monkeypatch.setattr(harness, "eliminate_noninfluential", recording)
    cfg = ModelConfig(2, 4, 0.0, 0.0)
    report, _ = cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, TrainOptions(epochs=0), folds)
    assert len(report.rows) == len(fits) == 3
    assert fits[0] == (tested, ("Total Cash",))  # fold 1 hides its test labels and drops the leak
    assert all(not (hidden & set(leakers)) and dropped == () for hidden, dropped in fits[1:])


def test_fold_whose_fit_keeps_no_feature_is_a_data_error() -> None:
    folds = FoldOptions(k=3, seed=4)
    base = same_series_timelines()
    _, leakers = first_fold_characters(base, folds)
    timelines = shifted(base, leakers, [0, 1], by=5.0)
    assert eliminate_noninfluential(timelines, TOY_SCHEMA)[0] == TOY_SCHEMA
    cfg = ModelConfig(2, 4, 0.0, 0.0)
    with pytest.raises(DataError, match="no active features remain"):
        cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, TrainOptions(epochs=0), folds)


def test_folds_in_workers_report_what_folds_in_process_report(monkeypatch, tmp_path) -> None:
    folds = FoldOptions(k=3, seed=4)
    base = same_series_timelines()
    signal = shifted(base, base.character_id[base.y == 1.0], [0], by=1.0)
    # fold 1 drops column 1, so a fold trains on a column subset too
    timelines = shifted(signal, first_fold_characters(signal, folds)[1], [1], by=5.0)
    pids = tmp_path / "pids.txt"
    real_train = harness.train

    def recording_train(x, y, cfg, opts):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_train(x, y, cfg, opts)

    def run(cpus):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        cfg, opts = ModelConfig(2, 4, 0.2, 1e-4), TrainOptions(epochs=2)
        report, _ = cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, opts, folds)
        ran_in = set(pids.read_text(encoding="utf-8").split())
        pids.unlink()
        return json.dumps(report, default=document), ran_in

    monkeypatch.setattr(harness, "train", recording_train)
    (pooled, pool_pids), (serial, serial_pids) = run(2), run(1)
    assert serial_pids == {str(os.getpid())}
    if harness._openblas_function("set_num_threads") is not None and hasattr(os, "fork"):
        assert str(os.getpid()) not in pool_pids
    assert pooled == serial


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_fold_reaches_the_caller_and_leaves_no_worker(cpus, monkeypatch) -> None:
    # folds 2 and 3 fail, so in workers too the error is fold 2's, as in one process
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    timelines = toy_timelines(toy_separable(n_chars_per_class=6, windows_per_char=2, seed=4))
    folds = FoldOptions(k=4, seed=8)
    real_train = harness.train

    def failing_train(x, y, cfg, opts):
        for fold in (1, 2):
            if cfg.seed == derive_seed(folds.seed, fold):
                raise NumericError(f"numeric overflow in gradients of fold {fold + 1}")
        return real_train(x, y, cfg, opts)

    cfg, opts = ModelConfig(2, 4, 0.0, 0.0), TrainOptions(epochs=1)
    cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, opts, folds)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "train", failing_train)
    with pytest.raises(NumericError, match=r"^numeric overflow in gradients of fold 2$"):
        cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, opts, folds)
    assert multiprocessing.active_children() == []


def test_no_fold_starts_after_a_fold_fails(monkeypatch, tmp_path) -> None:
    # fold 2 fails while fold 1 still trains, so fold 3 must not start when fold 1 ends
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    timelines = toy_timelines(toy_separable(n_chars_per_class=6, windows_per_char=2, seed=4))
    folds = FoldOptions(k=4, seed=8)
    seeds = [derive_seed(folds.seed, fold) for fold in range(folds.k)]
    started = tmp_path / "started.txt"
    real_train = harness.train

    def logging_train(x, y, cfg, opts):
        fold = seeds.index(cfg.seed) + 1
        with open(started, "a", encoding="utf-8") as fh:
            fh.write(f"{fold}\n")
        if fold == 1:
            time.sleep(1.0)
        if fold == 2:
            raise NumericError("numeric overflow in gradients of fold 2")
        return real_train(x, y, cfg, opts)

    monkeypatch.setattr(harness, "train", logging_train)
    cfg, opts = ModelConfig(2, 4, 0.0, 0.0), TrainOptions(epochs=1)
    with pytest.raises(NumericError, match=r"^numeric overflow in gradients of fold 2$"):
        cross_validate(timelines, TOY_SCHEMA, TOY_WINDOWS, cfg, opts, folds)
    assert sorted(started.read_text(encoding="utf-8").split()) == ["1", "2"]


# Runs cross_validate on the pickled arguments in argv[1] with two usable CPUs,
# where every fold's worker kills itself, and prints what the call raised and
# how many child processes are left.
_KILLED_WORKER_RUN = """
import multiprocessing, os, pickle, signal, sys
from botledger import harness

caller, real_train = os.getpid(), harness.train

def killing_train(x, y, cfg, opts):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_train(x, y, cfg, opts)

harness._usable_cpus, harness.train = lambda: 2, killing_train
with open(sys.argv[1], "rb") as fh:
    args = pickle.load(fh)
try:
    harness.cross_validate(*args)
except Exception as exc:
    print(type(exc).__name__, len(multiprocessing.active_children()))
"""


@pytest.mark.skipif(
    not hasattr(os, "fork") or harness._openblas_function("set_num_threads") is None,
    reason="the folds run in the calling process here",
)
def test_worker_killed_mid_fold_ends_the_run_instead_of_hanging(tmp_path) -> None:
    timelines = toy_timelines(toy_separable(n_chars_per_class=6, windows_per_char=2, seed=4))
    args = (timelines, TOY_SCHEMA, TOY_WINDOWS, ModelConfig(2, 4, 0.0, 0.0), TrainOptions(epochs=1), FoldOptions(k=4))
    job = tmp_path / "args.pkl"
    job.write_bytes(pickle.dumps(args))
    src = str(Path(botledger.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_WORKER_RUN, str(job)], capture_output=True, encoding="utf-8", env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "BotledgerError 0\n"
