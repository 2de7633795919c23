"""Command-line orchestrator: instance generation, landscape analysis,
samplers, gap pipelines, and comparison tables.

Pipelines compose via files (or stdin/stdout with ``-``); every run that
writes a real file also drops a ``<name>.manifest.json`` recording the
argument vector, seeds, code version, input digests, wall clock and exit
status, so a run can be replayed byte-for-byte.  The manifest is written
on error exits too, beside the intended ``--out`` path when the failure
came before any output.  Exit codes: 0 success, 2 usage or bad
input, 3 capacity, 4 numerical non-convergence, 5 censored or degenerate
result.  Errors print to stderr as ``flatscape: error[<class>]: ...``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pickle
import resource
import signal
import sys
import time

import numpy as np

from . import __version__
from .classical_mc import SAConfig, PTConfig, estimate_tts, pt_run, sa_run
from .errors import (CapacityError, ConfigError, ConsistencyError,
                     ConvergenceError, ParseError)
from .graphs import (Graph, deserialize, generate_star, generate_unit_disk,
                     serialize, to_document)
from .landscape import (BOUND_KINDS, check_float_range, classical_bound,
                        independence_polynomial, unimodality_scan)
from .qmc import QMCConfig, qmc_bound_inputs, qmc_run, trotter_error_proxy
from .spectral import (build_operator, embed_state, hamming_gap_estimate,
                       lowest_eigenpairs, min_gap_scan, perturbative_states,
                       resolvent_gap)
from .star_models import star_gap_scan, star_level_crossing
from .tight_binding import (build_chain, bulk_diagnostics, chain_gap_profile,
                            synthesize_schedule)

COMPARE_SCHEMA = "flatscape.compare.v1"


class CensoredResult(RuntimeError):
    pass


class DegenerateResult(RuntimeError):
    pass


def _fail(kind: str, message: str) -> None:
    print(f"flatscape: error[{kind}]: {message}", file=sys.stderr)


def _warn(kind: str, message: str) -> None:
    print(f"flatscape: warning[{kind}]: {message}", file=sys.stderr)


def _warn_boundary(scan) -> None:
    if scan.boundary_minimum:
        _warn("boundary", "no interior minimum over the scan range; "
              "reporting the boundary value")


def _resolve_out(path: str) -> str:
    if path == "-":
        return path
    base = os.environ.get("FLATSCAPE_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _canonical_json(doc) -> str:  # a NaN or infinity raises ValueError
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Run:
    """Tracks inputs/outputs for the manifest of one CLI invocation."""

    def __init__(self, argv, seeds=None):
        self.argv = list(argv)
        self.seeds = seeds or []
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.workers = 1
        self.started = time.time()

    def note_input(self, path: str, text: str) -> None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.inputs[path] = digest

    def write(self, path: str, text: str) -> None:
        path = _resolve_out(path)
        if path == "-":
            sys.stdout.write(text)
            return
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.outputs.append(path)

    def finish(self, status: int, out: str) -> None:
        """Write the manifest beside the first output, or beside the
        intended ``out`` path when a failure came before any output."""
        path = self.outputs[0] if self.outputs else _resolve_out(out)
        if path == "-":
            return
        manifest = {
            "version": 1,
            "kind": "manifest",
            "command": self.argv[0] if self.argv else "",
            "argv": self.argv,
            "seeds": self.seeds,
            "code_version": __version__,
            "input_digests": self.inputs,
            "outputs": self.outputs,
            "wall_clock_s": time.time() - self.started,
            # the process's peak resident set so far; Linux counts KiB
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "status": status,
            "workers": self.workers,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_canonical_json(manifest))


def _load_graph(run: _Run, path: str) -> Graph:
    text = _read_text(path)
    run.note_input(path, text)
    doc = json.loads(text)
    if isinstance(doc, dict) and doc.get("kind") == "star_prediction":
        for key in ("n_b", "ell"):
            if type(doc.get(key)) is not int:
                raise ParseError(key, f"must be an integer, got {doc.get(key)!r}")
        return generate_star(doc["n_b"], doc["ell"])
    if (graph := deserialize(text)).n == 0:
        raise ValueError(f"instance {path} has no vertices")
    return graph


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _parse_int_list(text: str) -> list[int]:
    lo, colon, hi = text.partition(":")
    values = list(range(int(lo), int(hi) + 1)) if colon else \
        [int(x) for x in text.split(",") if x]
    if not values:
        raise ValueError(f"empty integer list {text!r}")
    return values


# ---------------------------------------------------------------- commands

def _cmd_gen(args, run: _Run) -> int:
    if args.nb is not None:
        graph = generate_star(args.nb, args.ell)
        run.write(args.out, serialize(graph))
        return 0
    if args.count == 1:
        graph = generate_unit_disk(args.width, args.height, args.filling,
                                   args.seed, args.radius_sq)
        run.write(args.out, serialize(graph))
        return 0
    if args.out == "-":
        _fail("usage", "batch generation requires --out DIR")
        return 2
    seeds = list(range(args.seed, args.seed + args.count))
    run.seeds = seeds
    for seed in seeds:
        graph = generate_unit_disk(args.width, args.height, args.filling,
                                   seed, args.radius_sq)
        run.write(os.path.join(args.out, f"instance-{seed}.json"),
                  serialize(graph))
    return 0


def _max_suffix_ratio(profile) -> float:  # float() would raise OverflowError
    r = profile.max_suffix_ratio
    check_float_range(math.log(r.numerator) - math.log(r.denominator), "max suffix ratio")
    return float(r)


def _cmd_profile(args, run: _Run) -> int:
    graph = _load_graph(run, args.inp)
    profile = independence_polynomial(graph)
    doc = profile.to_document()
    doc["bounds"] = {
        kind: classical_bound(profile, kind, k=args.k, eps=args.eps)
        for kind in BOUND_KINDS
    }
    doc["max_suffix_ratio"] = _max_suffix_ratio(profile)
    run.write(args.out, _canonical_json(doc))
    return 0


def _cmd_unimodal(args, run: _Run) -> int:
    seeds = list(range(args.seed, args.seed + args.count))
    run.seeds = seeds
    graphs = (generate_unit_disk(args.width, args.height, args.filling, s)
              for s in seeds)
    report = unimodality_scan(graphs, limit=args.limit)
    doc = {
        "version": 1,
        "kind": "unimodality_scan",
        "checked": report.checked,
        "violations": report.violations,
        "capacity_skips": report.capacity_skips,
    }
    run.write(args.out, _canonical_json(doc))
    if report.violations:
        _warn("unimodality", f"{len(report.violations)} violating instance(s)")
    return 0


def _cmd_sa(args, run: _Run) -> int:
    graph = _load_graph(run, args.inp)
    betas = tuple(float(b) for b in args.beta.split(",")) if args.beta else \
        SAConfig().betas
    config = SAConfig(betas=betas, sweeps_per_beta=args.sweeps, seed=args.seed)
    if args.tts:
        grid = [2 ** k for k in range(2, args.tts_max_exp + 1)]
        est = estimate_tts(graph, config, p_target=args.p_target,
                           sweep_grid=grid, trials=args.trials)
        doc = {
            "version": 1, "kind": "tts",
            "tts": est.tts, "sweeps_at_min": est.sweeps_at_min,
            "p_target": est.p_target, "censored": est.censored,
            "ci": [est.ci_low, est.ci_high], "trials": est.trials,
            "success_curve": est.success_curve,
        }
        run.write(args.out, _canonical_json(doc))
        if args.csv:
            rows = [{"T": T, "p": p} for T, p in est.success_curve]
            _write_csv(run, args.csv, ["T", "p"], rows)
        if est.censored:
            raise CensoredResult("no successful trial within budget")
        return 0
    return _run_trials(args, run, "sa_runs",
                       lambda t: sa_run(graph, config, trial=t))


def _cmd_pt(args, run: _Run) -> int:
    graph = _load_graph(run, args.inp)
    betas = tuple(float(b) for b in args.beta.split(",")) if args.beta else \
        PTConfig().betas
    config = PTConfig(betas=betas, sweeps=args.sweeps,
                      isoenergetic=args.isoenergetic, seed=args.seed)
    return _run_trials(args, run, "pt_runs",
                       lambda t: pt_run(graph, config, trial=t))


def _usable_cpus() -> int:  # taskset lowers it; 1 without fork
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


def _parallel_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items] on k = min(jobs, len(items)) processes.  Forked
    child j pickles the results of items j, j + k, ..., or its exception,
    into a pipe while this process runs items 0, k, ...; every child is
    then reaped, a child's exception is raised again here, and a child that
    exits without a result raises RuntimeError."""
    k, n, children = max(1, min(jobs, len(items))), len(items), []
    try:
        for j in range(1, k):
            read, write = os.pipe()
            if not (pid := os.fork()):
                status = 1  # the child never returns into the caller
                try:
                    try:
                        out = [(i, fn(items[i])) for i in range(j, n, k)]
                    except BaseException as exc:
                        out = exc
                    with os.fdopen(write, "wb") as fh:
                        pickle.dump(out, fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, read, j))
        results = {i: fn(items[i]) for i in range(0, n, k)}
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        reaped = []
        for pid, read, j in children:
            with os.fdopen(read, "rb") as fh:
                reaped.append((pid, fh.read(), os.waitpid(pid, 0)[1], j))
    for pid, data, status, j in reaped:
        if (code := os.waitstatus_to_exitcode(status)) or not data:
            how = f"signal {-code}" if code < 0 else f"status {code}"
            raise RuntimeError(f"worker {pid} exited with {how} without a "
                               f"result for items {list(range(j, n, k))}")
        if isinstance(out := pickle.loads(data), BaseException):
            raise out
        results.update(out)
    return [results[i] for i in range(n)]


def _run_trials(args, run: _Run, kind: str, run_trial) -> int:
    """Run trials 0 .. args.trials - 1 on min(trials, usable CPUs) processes
    and write the summary document and the per-trial CSV.  Trial t samples
    the Philox stream (seed, t) and results come back in trial order, so
    the bytes do not depend on the worker count."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    run.workers = min(args.trials, _usable_cpus())
    results = _parallel_map(run_trial, range(args.trials), run.workers)
    doc = {
        "version": 1, "kind": kind, "trials": args.trials,
        "best_size": max(r.best_size for r in results),
        "hit_fraction": float(np.mean([r.first_hit_sweep is not None
                                       for r in results])),
        "acceptance": results[0].acceptance,
    }
    run.write(args.out, _canonical_json(doc))
    if args.csv:
        rows = [{"trial": t, "sweeps": r.sweeps,
                 "success": int(r.first_hit_sweep is not None),
                 "first_hit": r.first_hit_sweep}
                for t, r in enumerate(results)]
        _write_csv(run, args.csv, ["trial", "sweeps", "success", "first_hit"],
                   rows)
    return 0


def _cmd_qmc(args, run: _Run) -> int:
    graph = _load_graph(run, args.inp)
    if args.bound_inputs:
        report = qmc_bound_inputs(graph, omega=args.omega, delta=args.delta,
                                  lam=args.lam, beta=args.beta, k=args.k,
                                  eps=args.eps)
        run.write(args.out, _canonical_json(report.to_document()))
        return 0
    config = QMCConfig(beta=args.beta, slices=args.slices, omega=args.omega,
                       delta=args.delta, lam=args.lam, sweeps=args.sweeps,
                       seed=args.seed, burn_in=args.burn_in)
    result = qmc_run(graph, config)
    doc = {
        "version": 1, "kind": "qmc_run",
        "beta": args.beta, "slices": args.slices, "omega": args.omega,
        "delta": args.delta, "lambda": args.lam, "seed": args.seed,
        "acceptance": result.acceptance,
        "trotter_proxy": trotter_error_proxy(graph, config),
        "marginal": {str(z): c for z, c in sorted(result.marginal.items())},
    }
    run.write(args.out, _canonical_json(doc))
    if args.csv:
        rows = [{"beta": args.beta, "slices": args.slices, "omega": args.omega,
                 "delta": args.delta, "lambda": args.lam, "seed": args.seed,
                 "mask": z, "count": c}
                for z, c in sorted(result.marginal.items())]
        _write_csv(run, args.csv, ["beta", "slices", "omega", "delta",
                                   "lambda", "seed", "mask", "count"], rows)
    return 0


def _cmd_gap(args, run: _Run) -> int:
    if args.nb is not None:
        report = star_gap_scan(args.nb, args.ell, args.omega, args.lam,
                               args.points)
        graph = generate_star(args.nb, args.ell)
    else:
        graph = _load_graph(run, args.inp)
        if graph.kind == "star" and args.symmetric:
            report = star_gap_scan(graph.meta["n_b"], graph.meta["ell"],
                                   args.omega, args.lam, args.points)
        else:
            report = min_gap_scan(graph, omega=args.omega, lam=args.lam,
                                  delta_range=_parse_range(args.delta_range),
                                  points=args.points)
    _warn_boundary(report)
    doc = report.to_document()
    doc["instance"] = to_document(graph)
    run.write(args.out, _canonical_json(doc))
    if args.dump_states:
        op, pair = report.operator, report.pair
        if op is None:  # a star scan, solved in the symmetric sector
            op = build_operator(graph, args.omega, report.delta_star, args.lam)
            pair = lowest_eigenpairs(op, 2)
        rows = [{"mask": z, "ground": pair[1][i, 0], "excited": pair[1][i, 1]}
                for i, z in enumerate(op.basis)]
        _write_csv(run, args.dump_states, ["mask", "ground", "excited"], rows)
    return 0


def _cmd_resolvent(args, run: _Run) -> int:
    graph = _load_graph(run, args.inp)
    states = perturbative_states(graph)
    if states.degenerate:
        raise DegenerateResult(
            "manifold ground state is near-degenerate; higher-order "
            "treatment needed")
    scan = min_gap_scan(graph, omega=args.omega, lam=0.0,
                        delta_range=_parse_range(args.delta_range),
                        points=args.points)
    _warn_boundary(scan)
    op, (_, v) = scan.operator, scan.pair
    G = embed_state(op.basis, states.ground_basis, states.ground)
    E = embed_state(op.basis, states.excited_basis, states.excited)
    report = resolvent_gap(op.matrix, G, E, z0=scan.e_star,
                           exact_pairs=(v[:, 0], v[:, 1]))
    estimate, histogram = hamming_gap_estimate(
        states.ground_basis, states.ground, states.excited_basis,
        states.excited, states.crossing)
    report.gap, report.boundary_minimum = scan.gap, scan.boundary_minimum
    doc = report.to_document()
    doc.update({
        "instance": to_document(graph),
        "exact_gap": scan.gap,
        "exact_crossing": scan.crossing,
        "predicted_crossing": states.crossing,
        "predicted_e_star": states.e_star,
        "b_excited": states.b_excited,
        "condition_ratio": states.condition_ratio,
        "hamming_estimate": estimate,
        "hamming_histogram": {str(d): m for d, m in histogram.items()},
    })
    run.write(args.out, _canonical_json(doc))
    return 0


def _cmd_chain(args, run: _Run) -> int:
    graph = _load_graph(run, args.inp)
    profile = independence_polynomial(graph)
    chain = build_chain(profile, omega=args.omega)
    lo, hi = _parse_range(args.delta_range)
    diag = chain_gap_profile(chain, (lo, hi), points=args.points)
    bulk = bulk_diagnostics(chain) if chain.alpha >= 4 else None
    doc = diag.to_document()
    doc["hops"] = list(chain.hops)
    doc["instance"] = to_document(graph)
    if bulk is not None:
        doc["u1"] = bulk.u1
        doc["fundamental_bound"] = bulk.fundamental_bound
        doc["fit_amplitude"] = bulk.fit_amplitude
        doc["fit_exponent"] = bulk.fit_exponent
        doc["bulk_gaps"] = bulk.bulk_gaps
    if args.schedule:
        schedule = synthesize_schedule(diag, (lo, hi))
        doc["schedule"] = schedule.to_document()
    run.write(args.out, _canonical_json(doc))
    if args.csv:
        rows = [{"delta": d, "gap": g} for d, g in diag.curve]
        _write_csv(run, args.csv, ["delta", "gap"], rows)
    return 0


def _cmd_star(args, run: _Run) -> int:
    pred = star_level_crossing(args.nb, args.ell, omega=args.omega)
    run.write(args.out, _canonical_json(pred.to_document()))
    return 0


def _star_family_row(n_b: int, ell: int, lam: float) -> dict:
    graph = generate_star(n_b, ell)
    profile = independence_polynomial(graph)
    bound = classical_bound(profile, "sa", k=1, eps=0.25)
    report = star_gap_scan(n_b, ell, lam=lam)
    row = {
        "schema": COMPARE_SCHEMA,
        "family": "star", "ell": ell, "n_b": n_b, "n": graph.n,
        "sa_bound": bound,
        "max_suffix_ratio": _max_suffix_ratio(profile),
        "gap": report.gap,
        "inv_gap": 1.0 / report.gap if report.gap else None,
        "crossing": report.crossing,
        "lambda": lam,
    }
    try:
        pred = star_level_crossing(n_b, ell)
        row["predicted_crossing"] = pred.crossing
        row["tilde_gap"] = pred.tilde_gap
    except ValueError:
        row["predicted_crossing"] = None
        row["tilde_gap"] = None
    return row


_COMPARE_COLUMNS = ["schema", "family", "ell", "n_b", "n", "sa_bound",
                    "max_suffix_ratio", "gap", "inv_gap", "crossing",
                    "predicted_crossing", "tilde_gap", "lambda"]


def _cmd_compare(args, run: _Run) -> int:
    if args.join:
        rows = []
        keys = ["schema"]
        for path in args.join:
            text = _read_text(path)
            run.note_input(path, text)
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ValueError(f"report {path} is not a JSON object")
            flat = {"schema": COMPARE_SCHEMA, "source": os.path.basename(path)}
            for key, value in doc.items():
                if isinstance(value, (int, float, str, bool)) or value is None:
                    flat[key] = value
            rows.append(flat)
            for key in flat:
                if key not in keys:
                    keys.append(key)
        _write_csv(run, args.out, keys, rows)
        return 0
    rows = [_star_family_row(n_b, ell, args.lam)
            for ell in _parse_int_list(args.ell_list)
            for n_b in _parse_int_list(args.nb_list)]
    _write_csv(run, args.out, _COMPARE_COLUMNS, rows)
    return 0


def _write_csv(run: _Run, path: str, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    run.write(path, buf.getvalue())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatscape",
        description="flat-landscape annealing laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--in", dest="inp", default="-",
                           help="instance document (default stdin)")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate unit-disk or star instances")
    add_common(p, needs_input=False)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--filling", type=float, default=0.8)
    p.add_argument("--radius-sq", type=int, default=2)
    p.add_argument("--count", type=int, default=1,
                   help="batch size; seeds run seed..seed+count-1")
    p.add_argument("--nb", type=int, default=None, help="star branch count")
    p.add_argument("--l", dest="ell", type=int, default=2,
                   help="star branch length")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("profile",
                       help="independence polynomial, bounds, unimodality")
    add_common(p)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("unimodal", help="batch unimodality scan")
    add_common(p, needs_input=False)
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--height", type=int, default=5)
    p.add_argument("--filling", type=float, default=0.8)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--limit", type=int, default=30)
    p.set_defaults(func=_cmd_unimodal)

    p = sub.add_parser("sa", help="simulated annealing runs / TTS")
    add_common(p)
    p.add_argument("--beta", default=None, help="comma-separated ladder")
    p.add_argument("--sweeps", type=int, default=500)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--tts", action="store_true")
    p.add_argument("--p-target", type=float, default=0.75)
    p.add_argument("--tts-max-exp", type=int, default=11,
                   help="TTS budgets are 4, 8, ..., 2^k sweeps for k >= 2")
    p.add_argument("--csv", default=None, help="per-trial CSV path")
    p.set_defaults(func=_cmd_sa)

    p = sub.add_parser("pt", help="parallel tempering runs")
    add_common(p)
    p.add_argument("--beta", default=None, help="comma-separated ladder")
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--isoenergetic", action="store_true")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_pt)

    p = sub.add_parser("qmc", help="worldline sampler / bound inputs")
    add_common(p)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--slices", type=int, default=32)
    p.add_argument("--omega", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="Laplacian weight; with --bound-inputs on 5x5 unit "
                   "disks, 0 keeps every state in the 40/beta window and "
                   "runs dense eigh (about 35 s at dim 2977)")
    p.add_argument("--sweeps", type=int, default=5000)
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--bound-inputs", action="store_true",
                   help="compute enhancement factors and the runtime bound")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_qmc)

    p = sub.add_parser("gap", help="minimum-gap scan")
    add_common(p)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--delta-range", default="0.2:6.0",
                   help="detuning scan range lo:hi; star scans (--nb, "
                   "--symmetric) choose their grid around the predicted "
                   "crossing")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--nb", type=int, default=None,
                   help="scan a star family member in the symmetric sector")
    p.add_argument("--l", dest="ell", type=int, default=2)
    p.add_argument("--symmetric", action="store_true",
                   help="use the branch-symmetric sector for star instances")
    p.add_argument("--dump-states", default=None,
                   help="CSV of (mask, amplitude) pairs at the crossing")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("resolvent", help="perturbative crossing pipeline")
    add_common(p)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--delta-range", default="0.2:6.0")
    p.add_argument("--points", type=int, default=64)
    p.set_defaults(func=_cmd_resolvent)

    p = sub.add_parser("chain", help="strong-delocalizer chain pipeline")
    add_common(p)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--delta-range", default="0.05:8.0")
    p.add_argument("--points", type=int, default=128)
    p.add_argument("--schedule", action="store_true")
    p.add_argument("--csv", default=None, help="gap-vs-delta curve CSV")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("star", help="closed-form star predictions")
    add_common(p, needs_input=False)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("compare", help="join reports / star-family tables")
    add_common(p, needs_input=False)
    p.add_argument("--join", nargs="*", default=None,
                   help="report JSON files to merge into one CSV")
    p.add_argument("--l", dest="ell_list", default="2,4",
                   help="star family branch lengths (list or lo:hi)")
    p.add_argument("--nb", dest="nb_list", default="2:6")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = _Run(argv, seeds=[getattr(args, "seed", None)])
    status = 1  # an exception not mapped below is raised again
    try:
        status = args.func(args, run)
    except (ParseError, ConsistencyError, ConfigError, ValueError) as exc:
        _fail("usage", str(exc))
        status = 2
    except CapacityError as exc:
        _fail("capacity", str(exc))
        status = 3
    except ConvergenceError as exc:
        _fail("numerical", str(exc))
        status = 4
    except (CensoredResult, DegenerateResult) as exc:
        _fail("censored", str(exc))
        status = 5
    finally:
        run.finish(status, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
