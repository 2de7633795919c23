"""One pass of a benchmark workload, run in a fresh interpreter by run.py.

The pass imports flatscape from the checkout's ``src``, generates its
inputs, calls ``flatscape.cli.main(argv)`` in-process for each task and
times every call from outside with the monotonic clock.  Output checks run
after the last task, outside the timed region and outside the trace.  The
pass writes one JSON result file; run.py aggregates the passes of a run.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads
from spans import Tracer, layer_metrics, layer_split

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIB_ITERATIONS = 1_000_000


def calibrate() -> float:
    """A fixed CPU-bound interpreter loop; its time tracks host speed."""
    start = time.monotonic()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return time.monotonic() - start


def environment() -> dict:
    """Interpreter, library and BLAS record of this pass."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("openblas", "scipy_openblas"):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and "threads" not in entry:
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                if cfg is not None and "config" not in entry:
                    cfg.restype = ctypes.c_char_p
                    entry["config"] = cfg().decode()
        blas.append(entry)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def output_bytes(task) -> int:
    total = 0
    for path in (task.out, task.out + ".manifest.json"):
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from flatscape import cli, spectral

    os.makedirs(args.work, exist_ok=True)
    tasks = workloads.setup(args.workload, args.seed, args.work, cli.main)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        return _write(args.result, result)

    result["env"] = environment()
    result["calib_s"] = calibrate()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        result["unwrapped"] = tracer.unwrapped()
        result["missing"] = tracer.missing
    rows = []
    for task in tasks:
        idx = tracer.begin("task") if tracer else None
        start = time.monotonic()
        try:
            status = cli.main(task.argv)
        except Exception:
            status = "exception"
            sys.stderr.write(traceback.format_exc())
        finally:
            elapsed = time.monotonic() - start
            if tracer:
                tracer.end(idx)
        rows.append({"key": task.key, "pipeline": task.pipeline,
                     "seconds": elapsed, "status": status})
    if tracer:
        tracer.uninstall()

    refs = workloads.load_refs()
    for task, row in zip(tasks, rows):
        problems = [] if row["status"] == 0 else [f"exit {row['status']}"]
        if not problems:
            try:
                problems = workloads.check(task, refs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"output check raised {exc!r}"]
        row["problems"] = problems
        row["bytes"] = output_bytes(task)
    result["tasks"] = rows
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = layer_metrics(tracer.spans,
                                         spectral.DENSE_EIG_LIMIT)
        result["split"] = layer_split(tracer.spans)
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
