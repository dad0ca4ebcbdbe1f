"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the workload seed. The program receives
only the generated files and explicit ``--seed`` flags; ``BOTLEDGER_SEED`` is
removed from the environment before anything runs.

* ``status_log.csv`` / ``labels.csv``: a synthetic month of hourly snapshots
  written with botledger's own writers.
* ``score-queue`` adds dirty rows to its log, each kind at ``DIRTY_SHARE`` of
  the clean rows: malformed rows, rows with a non-finite value, and
  duplicate-timestamp rows placed just before the row they duplicate. Ingest
  drops all three, so the kept timelines equal the clean ones.
* ``score-queue`` also trains its model here, on a separate, smaller month
  from another seed, so the review queue is scored out of sample.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from botledger import cli, ingest, schema, synth
from workloads import DIRTY_SHARE, MODEL_EPOCHS, MONTH, STRIDE, TRAIN_MONTH, WINDOW, child_seed


def write_month(out: Path, seed: int, bots: int, normals: int, days: float) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    cfg = synth.GenConfig(n_bots=bots, n_normals=normals, days=days, seed=seed)
    data = synth.generate(cfg)
    ingest.write_status_log(out / "status_log.csv", data.records, schema.canonical_schema())
    ingest.write_label_file(out / "labels.csv", data.labels)
    per_character: dict[str, int] = {}
    for rec in data.records:
        per_character[rec.character_id] = per_character.get(rec.character_id, 0) + 1
    return {
        "rows": len(data.records),
        "clean_rows": len(data.records),
        "characters": len(per_character),
        "windows": sum((n - WINDOW) // STRIDE + 1 for n in per_character.values() if n >= WINDOW),
    }


def inject_dirty(path: Path, seed: int) -> dict:
    """Rewrite a clean status log with dirty rows mixed in; returns counts."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    n = max(1, int(round(DIRTY_SHARE * len(rows))))
    rng = np.random.default_rng(seed)
    before: dict[int, list[str]] = {}

    for k, i in enumerate(rng.integers(0, len(rows), n)):
        fields = rows[i].split(",")
        bad = fields[:-1] if k % 2 else fields[:2] + ["t" + fields[2]] + fields[3:]
        before.setdefault(int(i), []).append(",".join(bad))
    for k, (i, col) in enumerate(zip(rng.integers(0, len(rows), n), rng.integers(3, 12, n))):
        fields = rows[i].split(",")
        fields[col] = ("nan", "inf", "-inf")[k % 3]
        before.setdefault(int(i), []).append(",".join(fields))
    for i in rng.choice(len(rows), n, replace=False):
        fields = rows[i].split(",")
        fields[3:] = [f"{float(v) * 1.5 + 1.0:.2f}" for v in fields[3:]]
        before.setdefault(int(i), []).append(",".join(fields))

    out = [header]
    for i, row in enumerate(rows):
        out.extend(before.get(i, ()))
        out.append(row)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return {"rows": len(out) - 1, "malformed": n, "non_finite": n, "duplicate": n}


def _run(argv: list[str]) -> None:
    code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}")


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into ``out``; returns their description."""
    meta = write_month(out, child_seed(seed, 0), **MONTH)
    if workload == "score-queue":
        meta.update(inject_dirty(out / "status_log.csv", child_seed(seed, 2)))
        train_dir = out / "train"
        write_month(train_dir, child_seed(seed, 1), **TRAIN_MONTH)
        _run(["featurize", "--log", str(train_dir / "status_log.csv"),
              "--labels", str(train_dir / "labels.csv"), "--out", str(train_dir / "features")])
        _run(["train", "--samples", str(train_dir / "features"), "--epochs", str(MODEL_EPOCHS),
              "--seed", str(child_seed(seed, 3)), "--out", str(out / "model")])
    return meta
