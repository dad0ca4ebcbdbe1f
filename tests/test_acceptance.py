"""Top-level checks: one test per release gate, each printing a verdict line.

These run the public surfaces end to end (library calls plus the real CLI via
``run``), with every expected number either computed independently here or
measured and frozen beforehand.
"""

import json
import math
import time

import numpy as np
import pytest

from botledger.cli import run, _load_samples_dir
from botledger.features import (
    ScalingScope,
    WindowConfig,
    eliminate_noninfluential,
    windows_from_timelines,
)
from botledger.harness import (
    FoldOptions,
    check_folds,
    compute_metrics,
    confusion_from_predictions,
    make_folds,
)
from botledger.ingest import StatusRows, build_timelines
from botledger.model_io import ModelBundle, load_model, save_model
from botledger.network import ModelConfig, forward, init_params
from botledger.schema import Label, Timelines, canonical_schema
from botledger.synth import GenConfig, generate
from reference import gradient_check


def test_gradient_fidelity() -> None:
    """Analytic BPTT gradients match central differences on five seeds."""
    cfg = ModelConfig(input_dim=2, hidden_dim=3, dropout_p=0.0, l2_lambda=1e-3, seed=0)
    started = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        report = gradient_check(cfg, seed=seed, perturbation=1e-5, tolerance=1e-4)
        assert report.passed, f"seed {seed}: max rel err {report.max_relative_error:.3e}"
        assert report.max_relative_error < 1e-4
        worst = max(worst, report.max_relative_error)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    print(f"PASS gradient fidelity: max rel err {worst:.2e} over 5 seeds in {elapsed:.1f}s")


def _minmax_scale(x: np.ndarray) -> np.ndarray:
    """``x`` scaled by the program as one character's only window, in both scopes."""
    schema = canonical_schema()
    timeline = Timelines(["c1"], [0.0], [0, len(x)], np.arange(len(x)), np.tile(x[:, None], (1, len(schema))))
    windows = [windows_from_timelines(timeline, schema, WindowConfig(len(x), 1, scope)) for scope in ScalingScope]
    scaled = [w.x[0, :, 0] for w in windows]
    assert scaled[0].tobytes() == scaled[1].tobytes()
    return scaled[0]


def test_scaling_properties() -> None:
    """Min-max scaling in both scopes: bounds, idempotence, order, constants, exact example."""
    rng = np.random.default_rng(2)
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        x = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 100), size=n)
        scaled = _minmax_scale(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0, trial
        assert np.array_equal(_minmax_scale(scaled), scaled), trial
        order = np.argsort(x, kind="stable")
        assert np.all(np.diff(scaled[order]) >= 0.0), trial
    for value in (0.0, -3.5, 1e12):
        assert np.array_equal(_minmax_scale(np.full(7, value)), np.zeros(7))
    exact = _minmax_scale(np.array([3.0, 5.0, 7.0]))
    assert exact.tolist() == [0.0, 0.5, 1.0]
    print("PASS scaling: 1000-vector property suite in both scopes plus exact [3,5,7] -> [0,0.5,1]")


def test_window_counts() -> None:
    """Windows cut per character match floor((L-w)/s)+1 for every L <= 50, w >= 2."""
    lengths = np.arange(1, 51)
    ids = np.array([f"c{length:02d}" for length in lengths])
    values = np.ones((lengths.sum(), len(canonical_schema())))
    characters = Timelines(ids, np.zeros(len(ids)), np.cumsum([0, *lengths]), np.arange(len(values)), values)
    for w in range(2, 53):  # WindowConfig rejects w = 1
        for s in range(1, 52):
            windows = windows_from_timelines(characters, canonical_schema(), WindowConfig(window_length=w, stride=s))
            expected = np.where(lengths < w, 0, (lengths - w) // s + 1)
            assert np.array_equal(windows.character, np.repeat(ids, expected)), (w, s)
            assert (windows.start + w <= np.repeat(lengths, expected)).all(), (w, s)

    schema = canonical_schema()
    rng = np.random.default_rng(3)

    def timeline(n: int) -> Timelines:
        values = rng.uniform(1, 9, size=(n, len(schema)))
        return Timelines(["c1"], [Label.NORMAL.encode()], [0, n], 3600.0 * np.arange(n), values)

    shorter = windows_from_timelines(timeline(5), schema, WindowConfig(window_length=6, stride=1))
    assert len(shorter) == 0
    exact = windows_from_timelines(timeline(6), schema, WindowConfig(window_length=6, stride=3))
    assert len(exact) == 1
    assert exact.x[0].shape == (6, len(schema))
    print("PASS windowing: per-character window counts over every (L, w, s) to L=50, w >= 2, plus boundary cases")


def test_elimination_drops_injected_features() -> None:
    """A zeroed column and a constant column are dropped; the other seven stay."""
    data = generate(GenConfig(n_bots=6, n_normals=12, days=7.0, seed=3))
    schema = canonical_schema()
    names = [f.name for f in schema.features]
    values = data.records.values.copy()
    values[:, names.index("Cash in Vendor")] = 0.0
    values[:, names.index("Number of Items")] = 7.0
    timelines, _ = build_timelines(StatusRows(data.records.character_id, data.records.timestamp, values), data.labels)

    active, report = eliminate_noninfluential(timelines, schema)
    assert set(report.dropped_names()) == {"Cash in Vendor", "Number of Items"}
    assert len(active.active_indices()) == 7

    by_name = {e.name: e for e in report.entries}
    zeroed = by_name["Cash in Vendor"]
    assert zeroed.dropped_rule2, "all-zero column must trip the zero-sum rule"
    assert zeroed.sum_bot == 0.0 and zeroed.sum_normal == 0.0
    constant = by_name["Number of Items"]
    assert constant.dropped_rule1, "constant column must trip the no-effect rule"
    assert not constant.dropped_rule2
    for evidence in report.entries:
        assert math.isfinite(evidence.effect_size)
        assert math.isfinite(evidence.std_bot) and math.isfinite(evidence.std_normal)
    print("PASS elimination: exactly the injected zero and constant features dropped")


def test_metrics_against_brute_force() -> None:
    """compute_metrics equals a recount on 100 random vectors; average rule holds."""
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(1, 1001))
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        probs = rng.random(n)
        cm = confusion_from_predictions(probs, labels)

        preds = probs >= 0.5
        tp = int(np.sum(preds & (labels == 1.0)))
        fp = int(np.sum(preds & (labels == 0.0)))
        tn = int(np.sum(~preds & (labels == 0.0)))
        fn = int(np.sum(~preds & (labels == 1.0)))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn), trial

        m = compute_metrics(cm)
        acc = (tp + tn) / n
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert abs(m.accuracy - acc) <= 1e-12, trial
        assert abs(m.precision - prec) <= 1e-12, trial
        assert abs(m.recall - rec) <= 1e-12, trial
        assert abs(m.f1 - f1) <= 1e-12, trial

    weekly = [0.9494, 0.9401, 0.9487, 0.9509]
    assert abs(sum(weekly) / 4 - 0.9473) < 5e-5
    print("PASS metrics: 100-trial brute-force recount exact; weekly average convention")


def test_end_to_end_learnability(tmp_path, monkeypatch, capsys) -> None:
    """Pinned synthetic benchmark reaches mean F1 >= 0.95 inside five minutes."""
    monkeypatch.delenv("BOTLEDGER_SEED", raising=False)
    data = tmp_path / "data"
    feat = tmp_path / "feat"
    report_dir = tmp_path / "cv"
    started = time.perf_counter()
    assert run([
        "synth", "--separability", "1", "--bots", "50", "--normals", "200",
        "--seed", "7", "--out", str(data),
    ]) == 0
    assert run([
        "featurize", "--log", str(data / "status_log.csv"),
        "--labels", str(data / "labels.csv"), "--out", str(feat),
    ]) == 0
    assert run([
        "crossval", "--log", str(data / "status_log.csv"),
        "--labels", str(data / "labels.csv"), "--k", "10", "--out", str(report_dir),
    ]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    doc = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    mean_f1 = doc["average"]["f1"]
    assert len(doc["rows"]) == 10
    assert mean_f1 >= 0.95, f"mean F1 {mean_f1:.4f}"
    assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
    print(f"PASS learnability: mean F1 {mean_f1:.4f} over 10 folds in {elapsed:.0f}s")


def test_fold_hygiene_and_leakage_direction(tmp_path, capsys) -> None:
    """Grouped folds partition cleanly; per-window folds only inflate F1."""
    data = tmp_path / "data"
    feat = tmp_path / "feat"
    assert run([
        "synth", "--separability", "0.7", "--bots", "9", "--normals", "18",
        "--days", "7", "--seed", "13", "--out", str(data),
    ]) == 0
    assert run([
        "featurize", "--log", str(data / "status_log.csv"),
        "--labels", str(data / "labels.csv"), "--stride", "6", "--out", str(feat),
    ]) == 0

    samples, _, _, _ = _load_samples_dir(str(feat))
    folds = FoldOptions(k=3, seed=13, leaky_folds=False)
    fold_of = make_folds(samples, folds)
    check_folds(fold_of, samples, folds)
    all_indices = np.concatenate([np.flatnonzero(fold_of == f) for f in range(folds.k)])
    assert sorted(all_indices.tolist()) == list(range(len(samples)))
    for fold in range(folds.k):
        held_out = {samples.character[i] for i in np.flatnonzero(fold_of == fold)}
        rest = {
            samples.character[i]
            for f in range(folds.k)
            if f != fold
            for i in np.flatnonzero(fold_of == f)
        }
        assert not held_out & rest, f"character leaked across fold {fold}"

    common = [
        "crossval", "--log", str(data / "status_log.csv"),
        "--labels", str(data / "labels.csv"), "--stride", "6",
        "--k", "3", "--epochs", "20", "--seed", "13",
    ]
    grouped_dir = tmp_path / "grouped"
    leaky_dir = tmp_path / "leaky"
    assert run(common + ["--out", str(grouped_dir)]) == 0
    assert run(common + ["--leaky-folds", "--out", str(leaky_dir)]) == 0
    capsys.readouterr()

    grouped_f1 = json.loads((grouped_dir / "report.json").read_text(encoding="utf-8"))["average"]["f1"]
    leaky_f1 = json.loads((leaky_dir / "report.json").read_text(encoding="utf-8"))["average"]["f1"]
    assert leaky_f1 >= grouped_f1, f"leaky {leaky_f1:.4f} < grouped {grouped_f1:.4f}"
    print(
        f"PASS fold hygiene: partition and grouping invariants hold; "
        f"leaky F1 {leaky_f1:.4f} >= grouped F1 {grouped_f1:.4f}"
    )


def _manifest_outputs(path) -> list:
    return json.loads((path / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def test_commands_are_deterministic(tmp_path, monkeypatch, capsys) -> None:
    """Same seeds give byte-identical artifacts for every subcommand."""
    monkeypatch.delenv("BOTLEDGER_SEED", raising=False)
    checked = []
    pairs = {name: [tmp_path / f"{name}_{i}" for i in (1, 2)] for name in
             ("data", "feat", "model", "cv", "scores", "report")}

    for out in pairs["data"]:
        assert run([
            "synth", "--bots", "4", "--normals", "8", "--days", "3",
            "--seed", "11", "--out", str(out),
        ]) == 0
    checked.append("synth")

    for src, out in zip(pairs["data"], pairs["feat"]):
        assert run([
            "featurize", "--log", str(src / "status_log.csv"),
            "--labels", str(src / "labels.csv"), "--out", str(out),
        ]) == 0
    checked.append("featurize")

    for src, out in zip(pairs["feat"], pairs["model"]):
        assert run([
            "train", "--samples", str(src), "--epochs", "2", "--seed", "11",
            "--out", str(out),
        ]) == 0
    checked.append("train")

    for src, out in zip(pairs["data"], pairs["cv"]):
        assert run([
            "crossval", "--log", str(src / "status_log.csv"),
            "--labels", str(src / "labels.csv"), "--k", "2", "--epochs", "1",
            "--seed", "11", "--out", str(out),
        ]) == 0
    checked.append("crossval")

    model_path = pairs["model"][0] / "model.bin"
    for src, out in zip(pairs["data"], pairs["scores"]):
        assert run([
            "score", "--log", str(src / "status_log.csv"),
            "--model", str(model_path), "--labels", str(src / "labels.csv"),
            "--out", str(out),
        ]) == 0
    checked.append("score")

    for src, out in zip(pairs["data"], pairs["report"]):
        assert run([
            "report", "--log", str(src / "status_log.csv"),
            "--labels", str(src / "labels.csv"), "--out", str(out),
        ]) == 0
    checked.append("report")
    capsys.readouterr()

    for name, (first, second) in pairs.items():
        assert _manifest_outputs(first) == _manifest_outputs(second), name
    assert (pairs["model"][0] / "model.bin").read_bytes() == (
        pairs["model"][1] / "model.bin"
    ).read_bytes()
    assert (pairs["scores"][0] / "scores.csv").read_bytes() == (
        pairs["scores"][1] / "scores.csv"
    ).read_bytes()
    print(f"PASS determinism: byte-identical reruns for {', '.join(checked)}")


def test_weekly_report_shape(tmp_path, capsys) -> None:
    """28 days split by week yields four period rows plus the average row."""
    data = tmp_path / "data"
    out = tmp_path / "cv"
    assert run([
        "synth", "--bots", "3", "--normals", "6", "--days", "28",
        "--seed", "21", "--out", str(data),
    ]) == 0
    assert run([
        "crossval", "--log", str(data / "status_log.csv"),
        "--labels", str(data / "labels.csv"), "--by-period",
        "--k", "2", "--epochs", "1", "--seed", "21", "--out", str(out),
    ]) == 0
    shown = capsys.readouterr().out

    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    names = [row["name"] for row in doc["rows"]]
    assert names == ["Week 1", "Week 2", "Week 3", "Week 4"]
    assert "average" in doc
    assert shown.count("Week ") == 4
    assert "Average" in shown
    print("PASS weekly shape: four Week rows plus Average on a 28-day set")


def test_model_round_trip_and_corruption(tmp_path, capsys) -> None:
    """Serialized models predict bit-identically; corrupt headers exit 2."""
    cfg = ModelConfig(input_dim=9, hidden_dim=8, dropout_p=0.2, l2_lambda=1e-4, seed=5)
    params = init_params(cfg)
    rng = np.random.default_rng(6)
    params.bn_running_mean = rng.normal(size=9)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=9)
    bundle = ModelBundle(
        params=params,
        config=cfg,
        schema=canonical_schema(),
        window_config=WindowConfig(window_length=24, stride=12),
        training_summary={},
    )
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    loaded = load_model(path)
    batch = rng.random((6, 24, 9))
    p_before, _ = forward(bundle.params, batch, cfg, training=False)
    p_after, _ = forward(loaded.params, batch, loaded.config, training=False)
    assert np.array_equal(p_before, p_after)

    data = tmp_path / "data"
    assert run([
        "synth", "--bots", "2", "--normals", "2", "--days", "2",
        "--seed", "9", "--out", str(data),
    ]) == 0
    raw = path.read_bytes()
    for name, mutated in (
        ("magic", b"XXXX" + raw[4:]),
        ("version", raw[:4] + (99).to_bytes(4, "little") + raw[8:]),
    ):
        bad = tmp_path / f"bad_{name}.bin"
        bad.write_bytes(mutated)
        rc = run([
            "score", "--log", str(data / "status_log.csv"),
            "--model", str(bad), "--out", str(tmp_path / f"s_{name}"),
        ])
        assert rc == 2, name
    capsys.readouterr()
    print("PASS model io: bit-identical round trip; corrupt magic/version exit 2")
