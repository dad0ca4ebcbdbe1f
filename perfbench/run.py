"""botledger benchmark: time the CLI's user-facing jobs end to end and per layer.

    python3 perfbench/run.py --workload cv-month --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Workloads (see perfbench/README.md):

* ``cv-month``     ``crossval --k 10 --epochs 1`` on a synthetic month;
* ``score-queue``  ``score --labels`` of a month log with dirty rows.

Inputs are generated from ``--seed`` in child processes, ``SETUPS`` times,
which gives ``setup_s``. A second child then calls ``botledger.cli.run``
repeatedly for ``--seconds``. Timings are scaled to nominal host speed with a
reference unit timed around each invocation (see calibrate.py); the wall
times are reported too. Every invocation's outputs are checked: exit
code 0, byte-identical to the first invocation's, and the first one's
content. Traced invocations' work counts are checked against the input.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` half the invocations are traced and the result carries the
per-layer metrics. The last line of standard output is the JSON result;
details, spans and the environment are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "cmd_s": "s", "rows_per_s": "1/s", "windows_per_s": "1/s",
         "peak_rss_mb": "MB", "train_samples_per_s": "1/s", "cv_mean_f1": "ratio",
         "queue_ap": "ratio", "failed_frac": "ratio", "cmd_wall_s": "s",
         "setup_wall_s": "s"}


class ChildFailed(Exception):
    pass


def _child(mode: str, args: argparse.Namespace, work: Path, started: float, *extra: str) -> dict:
    result = work / f"{mode}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("BOTLEDGER_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work), "--result", str(result), *extra]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (monotonic() - started)))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child ran out of time") from exc
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{mode} child exited {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(args: argparse.Namespace, work: Path, started: float, spans_path: Path) -> dict:
    setups = [_child("setup", args, work, started) for _ in range(1 if args.trace else SETUPS)]
    meta = setups[-1]["meta"]
    measured = _child("measure", args, work, started, "--seconds", str(args.seconds),
                      *(["--spans", str(spans_path)] if args.trace else []))
    calls = measured["invocations"]

    first = calls[0]
    if first["exit_code"] != 0 or None in first["sha256"].values():
        problems, quality = [f"first invocation exited {first['exit_code']} or wrote no outputs"], {}
    else:
        try:
            problems, quality = workloads.check(args.workload, work / "out" / "0", meta)
        except (OSError, KeyError, ValueError) as exc:
            problems, quality = [f"unreadable outputs: {exc!r}"], {}
    for layers in measured["layers"]:
        problems.extend(p for p in workloads.check_counts(layers, meta) if p not in problems)
    failed = sum(
        1 for c in calls if problems or c["exit_code"] != 0 or c["sha256"] != first["sha256"]
    )
    if any(c["sha256"] != first["sha256"] for c in calls):
        problems.append("outputs differ between invocations of one run")

    untraced = [c for c in calls if not c["traced"]]
    cmd_s = _median([calibrate.scaled(c["seconds"], c["reference_s"]) for c in untraced])
    report = {
        "setup_s": (_median([calibrate.scaled(s["seconds"], s["reference_s"]) for s in setups]),
                    len(setups)),
        "setup_wall_s": (_median([s["seconds"] for s in setups]), len(setups)),
        "cmd_s": (cmd_s, len(untraced)),
        "cmd_wall_s": (_median([c["seconds"] for c in untraced]), len(untraced)),
        "rows_per_s": (meta["rows"] / cmd_s, len(untraced)),
        "windows_per_s": (workloads.windows_processed(args.workload, meta) / cmd_s, len(untraced)),
        "peak_rss_mb": (measured["peak_rss_mb"], 1),
    }
    if args.workload == "cv-month":
        report["train_samples_per_s"] = report["windows_per_s"]
    report.update({name: (value, 1) for name, value in quality.items()})
    report["failed_frac"] = (failed / len(calls), len(calls))
    gated = ["setup_s", "cmd_s", "peak_rss_mb"]

    if args.trace:
        traced = [calibrate.scaled(c["seconds"], c["reference_s"]) for c in calls if c["traced"]]
        layer_names = measured["layers"][0].keys()
        layers = {name: _median([inv[name] for inv in measured["layers"]]) for name in layer_names}
        layers.update(setups[0]["layers"])
        layers.update(measured["micro"])
        layers["trace.overhead_frac"] = _median(traced) / cmd_s - 1.0
        metrics = layers
    else:
        metrics = {name: report[name][0] for name in gated}
    return {
        "problems": problems,
        "report": report,
        "metrics": metrics,
        "attempted": len(calls),
        "failed": failed,
        "env": measured["env"],
        "meta": meta,
        "invocations": calls,
        "setups": [{k: s[k] for k in ("seconds", "reference_s")} for s in setups],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="botledger benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OUTPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = monotonic()
    if not (ROOT / "src" / "botledger" / "cli.py").is_file():
        print(f"error: no botledger sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        doc = run(args, work, started, out_dir / f"{stem}-spans.json")
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        doc = {"problems": [str(exc)], "report": {}, "metrics": {}, "attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    held = " (held-out seed)" if args.seed == workloads.HELD_OUT_SEED else ""
    print(f"workload {args.workload}  seed {args.seed}{held}  trace {args.trace}")
    for name, (value, n) in doc["report"].items():
        print(f"  {name:<20} {value:>14.6g} {UNITS[name]:<6} n={n}")
    if args.trace:
        for name, value in doc["metrics"].items():
            print(f"  {name:<32} {value:>14.6g}")
    for problem in doc["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if "env" in doc:
        print(f"  env {json.dumps(doc['env'], sort_keys=True)}")
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
    print(json.dumps({
        "correct": not doc["problems"] and doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in doc["metrics"].items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_frac")) else "count"


if __name__ == "__main__":
    sys.exit(main())
