"""Child process of the benchmark: input set-up, or timed command invocations.

    python3 perfbench/child.py setup   --workload W --seed N --dir D --result R [--trace]
    python3 perfbench/child.py measure --workload W --seed N --dir D --result R
                                       --seconds S [--trace --spans P]

``setup`` writes the workload's inputs into ``D/inputs`` and reports how long
that took. ``measure`` calls ``botledger.cli.run`` in this process, again and
again until ``S`` seconds have passed, and reports each invocation's wall time,
exit code and output hashes, plus the process's peak resident memory. Both
time the reference unit of ``calibrate`` before and after each timed step. With
``--trace`` it alternates untraced and traced invocations, derives per-layer
figures from the traced ones and runs the network microbenchmark.
Run by ``run.py`` with ``src`` on ``PYTHONPATH``; results go to ``R`` as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import botledger
import calibrate
import micro
import tracing
import workloads
from botledger import cli

ROOT = Path(__file__).resolve().parent.parent
MIN_INVOCATIONS = 3


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when there is one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "botledger"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")),
    }


def setup(args: argparse.Namespace) -> dict:
    import inputs

    tracer = tracing.Tracer()
    target = args.dir / "inputs"
    shutil.rmtree(target, ignore_errors=True)
    before = calibrate.reference_seconds()
    if args.trace:
        tracer.install()
    t0 = perf_counter()
    meta = inputs.make_inputs(args.workload, args.seed, target)
    seconds = perf_counter() - t0
    tracer.uninstall()
    return {
        "seconds": seconds,
        "reference_s": (before + calibrate.reference_seconds()) / 2,
        "meta": meta,
        "layers": tracing.setup_metrics(tracer.take()) if args.trace else {},
    }


def measure(args: argparse.Namespace) -> dict:
    result: dict = {"invocations": [], "layers": [], "env": environment()}
    tracer = tracing.Tracer()
    if args.trace:
        result["micro"] = micro.run(args.seed)
    spans: list[list[list]] = []
    reference = calibrate.reference_seconds()
    start = perf_counter()
    i = 0
    # Start another invocation only if one of average length still fits.
    while i < MIN_INVOCATIONS or (perf_counter() - start) * (i + 1) / i <= args.seconds:
        traced = bool(args.trace and i % 2)
        out = args.dir / "out" / str(i)
        argv = workloads.argv(args.workload, args.seed, args.dir / "inputs", out)
        if traced:
            tracer.install()
        t0 = perf_counter()
        code = cli.run(argv)
        seconds = perf_counter() - t0
        if traced:
            tracer.uninstall()
            taken = tracer.take()
            spans.append(taken)
            result["layers"].append(tracing.command_metrics(taken))
        previous, reference = reference, calibrate.reference_seconds()
        hashes = {
            name: _sha256(out / name) if (out / name).is_file() else None
            for name in workloads.OUTPUTS[args.workload]
        }
        result["invocations"].append({
            "exit_code": code,
            "seconds": seconds,
            "reference_s": (previous + reference) / 2,
            "traced": traced,
            "sha256": hashes,
        })
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)
        i += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans is not None:
        args.spans.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "tag", "counts"],
                                          "invocations": spans}), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    loaded = Path(botledger.__file__).resolve()
    if ROOT / "src" not in loaded.parents:
        print(f"botledger was imported from {loaded}, not from this checkout", file=sys.stderr)
        return 2
    doc = setup(args) if args.mode == "setup" else measure(args)
    args.result.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
