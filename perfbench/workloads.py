"""Workload definitions: sizes, command lines, output checks, work counts.

This module imports numpy but not botledger, so the orchestrating process can
check outputs without loading the program it measures.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# A synthetic month of hourly snapshots: 100 characters x 672 steps. The
# pinned 250-character month makes crossval take ~30 s, too long for a run.
MONTH = {"bots": 20, "normals": 80, "days": 28.0}
# The score-queue model is trained during set-up on two weeks of other characters.
TRAIN_MONTH = {"bots": 10, "normals": 40, "days": 14.0}
MODEL_EPOCHS = 2
# Share of the clean rows added as each kind of dirty row in score-queue.
DIRTY_SHARE = 0.01
# crossval settings; window length and stride are the CLI defaults.
K, CV_EPOCHS, WINDOW, STRIDE = 10, 1, 24, 12
# Quality floors, set below every value seen in steady runs.
CV_F1_FLOOR = 0.50
QUEUE_AP_FLOOR = 0.80

# Seed kept out of tuning; speed-up claims are verified on it.
HELD_OUT_SEED = 9973

OUTPUTS = {
    "cv-month": ["report.json"],
    "score-queue": ["scores.csv"],
}


def child_seed(seed: int, stream: int) -> int:
    """Independent derived seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def argv(workload: str, seed: int, inputs: Path, out: Path) -> list[str]:
    log, labels = str(inputs / "status_log.csv"), str(inputs / "labels.csv")
    if workload == "cv-month":
        return ["crossval", "--log", log, "--labels", labels, "--k", str(K),
                "--epochs", str(CV_EPOCHS), "--seed", str(child_seed(seed, 4)), "--out", str(out)]
    if workload == "score-queue":
        return ["score", "--log", log, "--model", str(inputs / "model" / "model.bin"),
                "--labels", labels, "--out", str(out)]
    raise ValueError(f"unknown workload {workload!r}")


def windows_processed(workload: str, meta: dict) -> int:
    """Windows one invocation works through: trained on (x epochs) or scored."""
    n = meta["windows"]
    return (K - 1) * n * CV_EPOCHS if workload == "cv-month" else n


def average_precision(labels: list[bool]) -> float:
    """AP of a ranked list: mean precision at the rank of each positive."""
    hits, total = 0, 0.0
    for rank, positive in enumerate(labels, start=1):
        if positive:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def check_counts(layers: dict[str, float], meta: dict) -> list[str]:
    """Work counts of one traced invocation against the generated input."""
    expected = {
        "ingest.rows_read": meta["rows"],
        "ingest.rows_kept": meta["clean_rows"],
        "features.windows_made": meta["windows"],
    }
    return [f"{name} {layers[name]:g} != {want} in the input"
            for name, want in expected.items() if layers[name] != want]


def check(workload: str, out: Path, meta: dict) -> tuple[list[str], dict[str, float]]:
    """Content checks on one invocation's outputs: (problems, quality figures)."""
    n_windows = meta["windows"]
    problems: list[str] = []
    quality: dict[str, float] = {}
    if workload == "cv-month":
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = doc["rows"]
        if [r["name"] for r in rows] != [f"Fold {i + 1}" for i in range(K)]:
            problems.append(f"expected {K} fold rows, got {len(rows)}")
        if sum(r["n_test"] for r in rows) != n_windows:
            problems.append("fold test sizes do not add up to the window count")
        quality["cv_mean_f1"] = float(doc["average"]["f1"])
        if not quality["cv_mean_f1"] >= CV_F1_FLOOR:
            problems.append(f"cv_mean_f1 {quality['cv_mean_f1']:.4f} below floor {CV_F1_FLOOR}")
    elif workload == "score-queue":
        with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        probs = [float(r["probability"]) for r in rows]
        if len(rows) != meta["characters"] or len({r["character_id"] for r in rows}) != len(rows):
            problems.append(f"expected one row per character ({meta['characters']}), got {len(rows)}")
        if any(a < b for a, b in zip(probs, probs[1:])) or not all(0.0 <= p <= 1.0 for p in probs):
            problems.append("scores are not probabilities sorted in descending order")
        if any(r["label"] not in ("bot", "normal") for r in rows):
            problems.append("scores lack the labels passed with --labels")
        quality["queue_ap"] = average_precision([r["label"] == "bot" for r in rows])
        if not quality["queue_ap"] >= QUEUE_AP_FLOOR:
            problems.append(f"queue_ap {quality['queue_ap']:.4f} below floor {QUEUE_AP_FLOOR}")
    return problems, quality
