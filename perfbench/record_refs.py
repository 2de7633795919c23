"""Record the exact-path reference values that the output checks compare
against.  Run once, from the root of a checkout of the commit whose
results are the reference:

    python3 perfbench/record_refs.py

It runs every exact (non-sampler) task of every workload, with each pool
instance of ud-spectral, in-process and rewrites perfbench/refs.json.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    from flatscape import cli

    refs = {}
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        tasks = workloads.setup("star-family", 0, work, cli.main)
        for seed in workloads.UD_POOL:
            tasks += workloads.setup("ud-spectral", seed, work, cli.main)
        for task in tasks:
            if task.pipeline in workloads.SAMPLER_PIPELINES:
                continue
            status = cli.main(task.argv)
            if status != 0:
                print(f"{task.key}: exit {status}", file=sys.stderr)
                return 1
            with open(task.out, encoding="utf-8") as fh:
                refs[task.key] = workloads.observed(task, json.load(fh))
            print(task.key, refs[task.key], flush=True)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
