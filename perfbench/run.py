"""flatscape benchmark runner.

    python3 perfbench/run.py --workload star-family|ud-spectral|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (passrun.py); this process starts them one at a time, waits for
each, and aggregates.  A run first starts SETUP_PROBES interpreters that
only set up (imports and instance generation), then passes until the next
one would end after ``--seconds``; it makes at least one.  With
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics instead of the end-to-end ones.  The last line of
standard output is the JSON result; README.md describes every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import UD_DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170           # a run must end within 180 s
PIPELINES = ("gap_s", "resolvent_s", "qmc_bound_s", "sa_s", "pt_s", "qmc_s",
             "tts_s")
PER_LAYER_UNITS = {"calls": "count", "dim": "count", "states": "count",
                   "nnz": "count", "evals": "count", "failed": "count",
                   "proposals": "count", "trials": "count",
                   "site_attempts": "count", "acceptance": "ratio",
                   "us_per_proposal": "us", "us_per_site_attempt": "us",
                   "bytes_written": "bytes"}


class PassFailed(RuntimeError):
    pass


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def run_pass(workload: str, seed: int, work: str, k: int, deadline: float,
             trace: int = 0, setup_only: bool = False) -> dict:
    """Start one pass interpreter, wait for it, and return its result with
    the setup time measured from this side."""
    pass_dir = os.path.join(work, f"pass-{k}")
    result_path = os.path.join(work, f"pass-{k}.result.json")
    log_path = os.path.join(work, f"pass-{k}.log")
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("FLATSCAPE_OUT", None)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
           "--workload", workload, "--seed", str(seed), "--work", pass_dir,
           "--result", result_path, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            status = "timeout"
        ended = time.monotonic()
    if status != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise PassFailed(f"{workload} pass exited with {status}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    result["process_s"] = ended - spawned
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def task_sums(result: dict) -> dict:
    sums = {"wall_s": 0.0}
    for row in result["tasks"]:
        sums["wall_s"] += row["seconds"]
        sums[row["pipeline"]] = sums.get(row["pipeline"], 0.0) + row["seconds"]
    return sums


def failures(passes) -> tuple[int, int, list]:
    attempted = failed = 0
    notes = []
    for result in passes:
        for row in result["tasks"]:
            attempted += 1
            if row["problems"]:
                failed += 1
                notes.append(f"{row['key']}: {'; '.join(row['problems'])}")
    return attempted, failed, notes


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 work: str) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [run_pass(workload, seed, work, k, deadline,
                       setup_only=True)["setup_s"]
              for k in range(SETUP_PROBES)]
    passes = []
    k = SETUP_PROBES
    if trace:
        plain = run_pass(workload, seed, work, k, deadline)
        traced = run_pass(workload, seed, work, k + 1, deadline, trace=1)
        passes = [plain, traced]
    else:
        while True:
            passes.append(run_pass(workload, seed, work, k, deadline))
            k += 1
            typical = statistics.median(p["process_s"] for p in passes)
            if time.monotonic() - start + typical > seconds:
                break
    setups += [p["setup_s"] for p in passes]
    sums = [task_sums(p) for p in passes]
    attempted, failed, notes = failures(passes)
    info = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "failed_frac": failed / attempted,
        "host.calib_s": statistics.median(p["calib_s"] for p in passes),
        "env": passes[0]["env"],
        "notes": notes,
    }
    for name in ("wall_s",) + PIPELINES:
        values = [s[name] for s in sums if name in s]
        if values:
            info[name] = statistics.median(values)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (info["wall_s"], "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MiB"),
    }
    correct = failed == 0
    if trace:
        metrics, guard_notes = layer_report(workload, plain, traced, sums)
        notes += guard_notes
        correct = correct and not guard_notes
        info["split"] = traced["split"]
        info["missing"] = traced["missing"]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def layer_report(workload: str, plain: dict, traced: dict, sums) -> tuple:
    """Per-layer metrics of a traced run, and the completeness-guard
    failures (empty when the guard passes)."""
    layers = dict(traced["layers"])
    layers["cli.bytes_written"] = sum(r["bytes"] for r in traced["tasks"])
    layers["trace.overhead_s"] = sums[1]["wall_s"] - sums[0]["wall_s"]
    layers["host.calib_s"] = statistics.median(
        [plain["calib_s"], traced["calib_s"]])
    for name in PIPELINES:
        layers[f"pipe.{name}"] = sums[0].get(name, 0.0)
    notes = [f"unwrapped: {name}" for name in traced["unwrapped"]]
    if workload == "star-family":
        assembly = layers["star.assembly.calls"]
        eig = layers["spectral.eig.calls"]
        # every evaluation assembles at most once; fewer eigensolves than
        # assemblies means the trace missed a call path
        if not 0 < assembly <= eig:
            notes.append(f"cross-check: star.assembly.calls={assembly}, "
                         f"spectral.eig.calls={eig}")
    metrics = {name: (value, layer_unit(name))
               for name, value in layers.items()}
    return metrics, notes


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    if last.endswith("_calls"):
        return "count"
    return "ratio"


def print_report(workload: str, report: dict) -> None:
    info = report["info"]
    print(f"== {workload}: {info['passes']} pass(es), "
          f"{info['setup_samples']} set-ups, "
          f"attempted {report['attempted']}, failed {report['failed']} "
          f"(failed_frac {info['failed_frac']:.3f})")
    env = info["env"]
    blas = ", ".join(f"{b['library']} threads={b.get('threads')}"
                     for b in env["blas"])
    print(f"   env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas=[{blas}]")
    if "host.calib_s" not in report["metrics"]:
        print(f"   host.calib_s {info['host.calib_s']:.6f} s")
    for name, (value, unit) in report["metrics"].items():
        print(f"   {name} {value:.6g} {unit}")
    if "split" not in info:
        for name in PIPELINES:
            if name in info:
                print(f"   {name} {info[name]:.6g} s")
    else:
        tasks_s = sum(info["split"].values())
        print("   layer split (self time, share of task time):")
        for name, own in sorted(info["split"].items(), key=lambda kv: -kv[1]):
            print(f"     {name:24s} {own:9.3f} s  {100 * own / tasks_s:5.1f}%")
        if info["missing"]:
            print(f"   not traced (absent): {', '.join(info['missing'])}")
    for note in info["notes"]:
        print(f"   FAILED {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=UD_DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flatscape", "cli.py")):
        print("perfbench: no flatscape sources under src/; run from the root "
              "of a flatscape checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        reports = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace, work)
                   for name in names}
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, report in reports.items():
        print_report(name, report)
    if len(reports) == 1:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in reports[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}.{k}": {"value": v, "unit": u}
                   for w, r in reports.items()
                   for k, (v, u) in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
