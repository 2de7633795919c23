"""Workload definitions: the task list of one pass, its inputs derived from
the seed, and the output checks.

Exact pipelines are compared with reference values recorded from the seed
commit (``refs.json``) within ``REL_TOL``, or ``ARGMIN_REL_TOL`` for fields
located by a golden-section search.  Samplers are checked against
exact references built from flatscape's public functions, never against
sampled bytes.  The reasons behind each workload are in README.md.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

REL_TOL = 1e-9
# Fields located by a golden-section search (rel_tol 1e-6) are defined only
# to the search's resolution: on Lanczos scans the last comparisons fall
# inside the eigensolver's noise, which depends on ARPACK's random start
# vectors.  star(2,8) gives delta_star values 4.4e-7 apart in two fresh
# processes running identical code.
ARGMIN_FIELDS = ("delta_star", "crossing", "e_star", "exact_crossing",
                 "min_gap_delta")
ARGMIN_REL_TOL = 5e-6
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "refs.json")

# star(n_b, ell) members scanned in the branch-symmetric sector
STAR_FAMILY = [(n_b, 2) for n_b in range(2, 13)] + [
    (2, 4), (4, 4), (5, 4), (7, 4), (2, 6), (3, 6), (2, 8)]

# The first eight 5x5, filling-0.8 unit-disk instance seeds with the shape
# of the pinned seed-7 instance: restricted dimension 2977 +- 1%, n >= 21,
# alpha = 8 and four bound sizes; each also has a boundary minimum in the
# gap scan and every task exiting 0 when this benchmark was added.  The seed
# picks one of them (see instance_seed).
UD_ARGS = ["--width", "5", "--height", "5", "--filling", "0.8"]
UD_POOL = [7, 55, 720, 840, 870, 1492, 1648, 1685]
UD_DEFAULT_SEED = 7

# sampler tasks of star-family: star(2, 2) long chains at the C5 settings,
# TTS as in C6
SA_SWEEPS, SA_TRIALS, SA_BETA = 150_000, 4, 2.0
PT_SWEEPS, PT_TRIALS, PT_BETAS = 75_000, 2, (0.5, 1.0, 1.5, 2.0)
QMC_SWEEPS, QMC_BURN_IN, QMC_SLICES = 5_000, 200, 64
QMC_BETA, QMC_OMEGA, QMC_DELTA, QMC_LAMBDA = 2.0, 0.3, 1.0, 1.0
TTS_FAMILY = range(2, 8)
TTS_BETA, TTS_TRIALS, TTS_MAX_EXP = 4.0, 256, 14

# statistical tolerances; README.md gives the observed deviations
ACCEPTANCE_ABS_TOL = 0.01
QMC_TV_TOL = 0.15

WORKLOADS = ("star-family", "ud-spectral")
SAMPLER_PIPELINES = ("sa_s", "pt_s", "qmc_s", "tts_s")


@dataclass
class Task:
    key: str            # reference key and output file stem
    pipeline: str       # metric the task time is summed into
    argv: list
    out: str
    meta: dict = field(default_factory=dict)


def instance_seed(seed: int) -> int:
    """The unit-disk instance seed of a workload seed: itself when it is in
    the pool, otherwise the pool entry at seed mod pool size."""
    return seed if seed in UD_POOL else UD_POOL[seed % len(UD_POOL)]


def setup(workload: str, seed: int, work: str, cli_main) -> list[Task]:
    """Generate the inputs of one pass in ``work`` and return its tasks."""
    if workload == "star-family":
        scans = [_task(work, f"star-{n_b}-{ell}", "gap_s",
                       ["gap", "--nb", str(n_b), "--l", str(ell)])
                 for n_b, ell in STAR_FAMILY]
        return scans + _sampler_tasks(seed, work, cli_main)
    if workload == "ud-spectral":
        inst = instance_seed(seed)
        path = _gen(cli_main, work, f"ud-{inst}",
                    UD_ARGS + ["--seed", str(inst)])
        common = ["--in", path]
        return [
            _task(work, f"ud-{inst}-gap", "gap_s", ["gap"] + common),
            _task(work, f"ud-{inst}-resolvent", "resolvent_s",
                  ["resolvent"] + common),
            _task(work, f"ud-{inst}-qmc-bound", "qmc_bound_s",
                  ["qmc", "--bound-inputs", "--lambda", "50"] + common),
            _task(work, f"ud-{inst}-profile", "profile_s",
                  ["profile"] + common),
            _task(work, f"ud-{inst}-chain", "chain_s",
                  ["chain", "--schedule"] + common),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _sampler_tasks(seed: int, work: str, cli_main) -> list[Task]:
    star = _gen(cli_main, work, "star-2-2", ["--nb", "2", "--l", "2"])
    s = ["--seed", str(seed)]
    tasks = [
        _task(work, "sa", "sa_s",
              ["sa", "--in", star, "--beta", str(SA_BETA),
               "--sweeps", str(SA_SWEEPS), "--trials", str(SA_TRIALS)] + s,
              graph=star),
        _task(work, "pt", "pt_s",
              ["pt", "--in", star, "--isoenergetic",
               "--beta", ",".join(str(b) for b in PT_BETAS),
               "--sweeps", str(PT_SWEEPS), "--trials", str(PT_TRIALS)] + s,
              graph=star),
        _task(work, "qmc", "qmc_s",
              ["qmc", "--in", star, "--slices", str(QMC_SLICES),
               "--beta", str(QMC_BETA), "--omega", str(QMC_OMEGA),
               "--delta", str(QMC_DELTA), "--lambda", str(QMC_LAMBDA),
               "--sweeps", str(QMC_SWEEPS),
               "--burn-in", str(QMC_BURN_IN)] + s,
              graph=star),
    ]
    for n_b in TTS_FAMILY:
        path = _gen(cli_main, work, f"star-{n_b}-2",
                    ["--nb", str(n_b), "--l", "2"])
        tasks.append(_task(
            work, f"tts-{n_b}", "tts_s",
            ["sa", "--in", path, "--tts", "--beta", str(TTS_BETA),
             "--trials", str(TTS_TRIALS),
             "--tts-max-exp", str(TTS_MAX_EXP)] + s, graph=path))
    return tasks


def _gen(cli_main, work: str, stem: str, args: list) -> str:
    path = os.path.join(work, f"{stem}.instance.json")
    status = cli_main(["gen", "--out", path] + args)
    if status != 0:
        raise RuntimeError(f"instance generation failed ({stem}): {status}")
    return path


def _task(work: str, key: str, pipeline: str, argv: list, **meta) -> Task:
    out = os.path.join(work, f"{key}.json")
    return Task(key=key, pipeline=pipeline, argv=argv + ["--out", out],
                out=out, meta=meta)


# ------------------------------------------------------------------ checks

def observed(task: Task, doc: dict) -> dict:
    """The exact fields of a task's output that are compared with the
    recorded reference."""
    kind = doc.get("kind")
    if kind == "gap_report" and "exact_gap" not in doc:
        return {"gap": doc["gap"], "delta_star": doc["delta_star"],
                "crossing": doc["crossing"], "e_star": doc["e_star"],
                "boundary_minimum": doc["boundary_minimum"],
                "dim": doc["method"]["dim"]}
    if kind == "gap_report":
        return {key: doc[key] for key in (
            "tilde_gap", "corrected_gap", "exact_gap", "exact_crossing",
            "predicted_crossing", "predicted_e_star", "b_excited")}
    if kind == "qmc_bound":
        out = {f"e_max.{b}": v for b, v in doc["e_max"].items()}
        out["bound"] = doc["bound"]
        return out
    if kind == "profile":
        out = {"counts": list(doc["counts"]), "alpha": doc["alpha"]}
        out.update({f"bounds.{k}": v for k, v in doc["bounds"].items()})
        return out
    if kind == "chain_diagnostics":
        return {"min_gap": doc["min_gap"],
                "min_gap_delta": doc["min_gap_delta"],
                "boundary": doc["boundary"]}
    raise ValueError(f"no exact fields for output kind {kind!r}")


def tolerance(key: str) -> float:
    return ARGMIN_REL_TOL if key in ARGMIN_FIELDS else REL_TOL


def compare(obs: dict, ref: dict) -> list[str]:
    """Mismatches between observed and reference fields: floats within
    their relative tolerance, everything else exactly."""
    problems = []
    for key in sorted(set(obs) | set(ref)):
        if key not in obs or key not in ref:
            problems.append(f"{key}: missing")
            continue
        a, b = obs[key], ref[key]
        if isinstance(b, float) and not isinstance(a, bool) and \
                isinstance(a, (int, float)):
            if not math.isclose(a, b, rel_tol=tolerance(key), abs_tol=0.0):
                problems.append(f"{key}: {a!r} vs reference {b!r}")
        elif a != b:
            problems.append(f"{key}: {a!r} vs reference {b!r}")
    return problems


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(task: Task, refs: dict) -> list[str]:
    """Problems with one finished task's output (empty when correct)."""
    with open(task.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    if task.pipeline in SAMPLER_PIPELINES:
        return _check_sampler(task, doc)
    ref = refs.get(task.key)
    if ref is None:
        return [f"no recorded reference for {task.key}"]
    return compare(observed(task, doc), ref)


def _check_sampler(task: Task, doc: dict) -> list[str]:
    from flatscape.graphs import deserialize
    from flatscape.landscape import independence_polynomial

    if task.pipeline == "tts_s":
        if doc["censored"] or not doc["tts"] or doc["tts"] <= 0:
            return [f"TTS censored or empty: {doc['tts']!r}"]
        return []
    with open(task.meta["graph"], encoding="utf-8") as fh:
        graph = deserialize(fh.read())
    problems = []
    alpha = independence_polynomial(graph).alpha
    if task.pipeline in ("sa_s", "pt_s") and doc["best_size"] != alpha:
        problems.append(f"best_size {doc['best_size']} != alpha {alpha}")
    if task.pipeline == "sa_s":
        expect = {f"{SA_BETA}": local_acceptance(graph, SA_BETA)}
        got = {f"{float(b)}": v for b, v in doc["acceptance"].items()}
        problems += _within(got, expect, ACCEPTANCE_ABS_TOL, "SA acceptance")
    elif task.pipeline == "pt_s":
        expect = {f"local_beta_{b:g}": local_acceptance(graph, b)
                  for b in PT_BETAS}
        expect["replica_exchange"] = swap_acceptance(graph, PT_BETAS)
        got = {k: v for k, v in doc["acceptance"].items() if k in expect}
        problems += _within(got, expect, ACCEPTANCE_ABS_TOL, "PT acceptance")
    elif task.pipeline == "qmc_s":
        tv = qmc_tv_distance(graph, doc["marginal"])
        if not tv <= QMC_TV_TOL:
            problems.append(f"QMC marginal TV {tv:.4f} > {QMC_TV_TOL}")
    return problems


def _within(got: dict, expect: dict, tol: float, label: str) -> list[str]:
    problems = []
    for key, value in expect.items():
        if key not in got:
            problems.append(f"{label} {key}: missing")
        elif not abs(got[key] - value) <= tol:
            problems.append(f"{label} {key}: {got[key]:.5f} vs exact "
                            f"{value:.5f} (tol {tol})")
    return problems


# exact references from public functions

def gibbs(graph, beta: float, delta: float = 1.0):
    """Classical Gibbs weights over the restricted basis."""
    import numpy as np
    from flatscape.spectral import restricted_basis

    basis = restricted_basis(graph)
    sizes = np.array([bin(z).count("1") for z in basis], dtype=float)
    w = np.exp(beta * delta * (sizes - sizes.max()))
    return basis, sizes, w / w.sum()


def local_acceptance(graph, beta: float) -> float:
    """Stationary acceptance rate of the SA kernel at fixed beta: the Gibbs
    average of one minus the exact self-loop probability."""
    import numpy as np
    from flatscape.classical_mc import SAConfig, transition_matrix

    basis, _, pi = gibbs(graph, beta)
    P, _ = transition_matrix(graph, beta, SAConfig(betas=(beta,)), basis)
    return float(pi @ (1.0 - np.diag(P)))


def swap_acceptance(graph, betas) -> float:
    """Mean over adjacent replica pairs of the exact replica-exchange
    acceptance for independent Gibbs draws at the two temperatures."""
    import numpy as np

    rates = []
    for bi, bj in zip(betas, betas[1:]):
        _, sizes, pi = gibbs(graph, bi)
        _, _, pj = gibbs(graph, bj)
        energy = -sizes
        log_acc = (bi - bj) * (energy[:, None] - energy[None, :])
        rates.append(float(pi @ np.exp(np.minimum(log_acc, 0.0)) @ pj))
    return float(np.mean(rates))


def qmc_tv_distance(graph, marginal: dict) -> float:
    """Total-variation distance between the sampled worldline marginal and
    the dense Gibbs diagonal of the quantum Hamiltonian."""
    import numpy as np
    import scipy.linalg
    from flatscape.spectral import build_operator

    op = build_operator(graph, QMC_OMEGA, QMC_DELTA, QMC_LAMBDA)
    w, V = scipy.linalg.eigh(op.matrix.toarray())
    diag = (V ** 2) @ np.exp(-QMC_BETA * (w - w[0]))
    exact = dict(zip(op.basis, diag / diag.sum()))
    total = sum(marginal.values())
    sampled = {int(z): c / total for z, c in marginal.items()}
    keys = set(exact) | set(sampled)
    return 0.5 * sum(abs(sampled.get(z, 0.0) - exact.get(z, 0.0))
                     for z in keys)
