"""Span tracing of flatscape's layers from outside the package.

``Tracer.install()`` replaces each layer-boundary function listed in
``TARGETS`` by a wrapper that records a span (name, start, end, parent,
attributes) in memory.  flatscape modules import one another's names with
``from .spectral import ...``, so a wrapper is installed under every
``flatscape.*`` module attribute that holds the original function, and
methods are wrapped on their class.  ``unwrapped()`` is the completeness
guard: it lists every module attribute that still holds an original.

Bit-level helpers called once per proposal or per basis state
(``popcount``, ``spin_exchange_targets``, ``resample_vertex_line``, ...)
are not wrapped: a span per call would swamp the run it measures.  Their
time lands in the self time of the layer that calls them.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute or Class.method, span name)
TARGETS = (
    ("graphs", "generate_unit_disk", "graphs"),
    ("graphs", "generate_star", "graphs"),
    ("graphs", "serialize", "graphs"),
    ("graphs", "deserialize", "graphs"),
    ("graphs", "to_document", "graphs"),
    ("bits", "enumerate_independent_sets", "bits.enum"),
    ("bits", "enumerate_independent_sets_of_size", "bits.enum"),
    ("landscape", "independence_polynomial", "landscape.indpoly"),
    ("landscape", "classical_bound", "landscape.bound"),
    ("spectral", "restricted_basis", "spectral.basis"),
    ("spectral", "build_operator", "spectral.assembly"),
    ("spectral", "lowest_eigenpairs", "spectral.eig"),
    ("spectral", "scan_minimum_gap", "spectral.scan"),
    ("spectral", "min_gap_scan", "spectral.min_gap_scan"),
    ("spectral", "perturbative_states", "spectral.perturb"),
    ("spectral", "resolvent_gap", "spectral.resolvent"),
    ("spectral", "hamming_gap_estimate", "spectral.hamming"),
    ("star_models", "SymmetricStarSpace.__init__", "star.space"),
    ("star_models", "SymmetricStarSpace.hamiltonian", "star.assembly"),
    ("star_models", "star_level_crossing", "star.predict"),
    ("tight_binding", "build_chain", "chain.build"),
    ("tight_binding", "chain_gap_profile", "chain.profile"),
    ("tight_binding", "bulk_diagnostics", "chain.bulk"),
    ("tight_binding", "synthesize_schedule", "chain.schedule"),
    ("classical_mc", "sa_run", "sa"),
    ("classical_mc", "pt_run", "pt"),
    ("classical_mc", "estimate_tts", "tts"),
    ("qmc", "WorldlineEngine.__init__", "qmc.engine"),
    ("qmc", "qmc_run", "qmc"),
    ("qmc", "qmc_bound_inputs", "qmc.bound"),
    ("qmc", "trotter_error_proxy", "qmc.trotter"),
)

# ARPACK calls, counted where spectral reaches them (module attribute)
EIGSH = ("scipy.sparse.linalg", "eigsh", "arpack.eigsh")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _eig_attrs(args, kwargs, result):
    op = args[0]
    matrix = getattr(op, "matrix", op)
    return {"dim": int(matrix.shape[0])}


def _basis_attrs(args, kwargs, result):
    return {"states": len(result)}


def _assembly_attrs(args, kwargs, result):
    return {"nnz": int(result.matrix.nnz)}


def _star_space_attrs(args, kwargs, result):
    return {"dim": int(args[0].dim)}


def _sa_attrs(args, kwargs, result):
    graph, config = args[0], args[1]
    n = max(graph.n, 1)
    if _arg(args, kwargs, 3, "stop_at_hit", False) and \
            result.first_hit_sweep is not None:
        proposals = round(result.first_hit_sweep * n)
    else:
        proposals = len(config.betas) * config.sweeps_per_beta * n
    acc = list(result.acceptance.values())
    return {"proposals": proposals, "accepted": sum(acc) / len(acc) * proposals
            if acc else 0.0}


def _pt_attrs(args, kwargs, result):
    graph, config = args[0], args[1]
    proposals = config.sweeps * len(config.betas) * max(graph.n, 1)
    acc = result.acceptance
    return {"proposals": proposals,
            "swap": acc.get("replica_exchange", 0.0),
            "iso": acc.get("isoenergetic", 0.0)}


def _qmc_attrs(args, kwargs, result):
    graph, config = args[0], args[1]
    return {"site_attempts": config.sweeps * config.slices * max(graph.n, 1),
            "site": result.acceptance["site"],
            "segment": result.acceptance["segment"]}


def _tts_attrs(args, kwargs, result):
    return {"trials": result.trials}


ATTRS = {
    "spectral.eig": _eig_attrs,
    "spectral.basis": _basis_attrs,
    "spectral.assembly": _assembly_attrs,
    "star.space": _star_space_attrs,
    "sa": _sa_attrs,
    "pt": _pt_attrs,
    "qmc": _qmc_attrs,
    "tts": _tts_attrs,
}


class Tracer:
    """Records spans of one pass; install() before the tasks, uninstall()
    after them.  Spans are rows [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []
        self.originals: dict[int, object] = {}
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic(), 0.0, parent, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, attrs=None) -> None:
        self.spans[idx][2] = time.monotonic()
        self.spans[idx][4] = attrs
        self.stack.pop()

    def wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, {"failed": 1})
                raise
            tracer.end(idx, attrs_of(args, kwargs, result) if attrs_of
                       else None)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = flatscape_modules()
        for modname, qualname, span in TARGETS:
            owner = modules.get(f"flatscape.{modname}")
            cls_name, _, meth = qualname.rpartition(".")
            if cls_name and owner is not None:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(meth) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapper = self.wrap(original, span)
            self.originals[id(original)] = original
            if cls_name:
                self._set(owner, meth, wrapper)
                continue
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        linalg = importlib.import_module(EIGSH[0])
        self._set(linalg, EIGSH[1], self.wrap(getattr(linalg, EIGSH[1]),
                                              EIGSH[2]))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, value = self.patched.pop()
            setattr(owner, attr, value)

    def unwrapped(self) -> list[str]:
        """Module or class attributes that still hold an original function
        (the completeness guard: empty after install())."""
        holders = []
        for modname, module in flatscape_modules().items():
            owners = [(modname, module)] + [
                (f"{modname}.{name}", value)
                for name, value in vars(module).items()
                if isinstance(value, type)
                and value.__module__ == modname]
            for label, owner in owners:
                for attr, value in vars(owner).items():
                    original = self.originals.get(id(value))
                    if original is not None and original is value:
                        holders.append(f"{label}.{attr}")
        return holders


def flatscape_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "flatscape" or name.startswith("flatscape.")}


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its children cover (children
    run nested in one thread, so they never overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# per-layer metrics read straight from the span aggregates
PLAIN_METRICS = (
    "star.space.s", "star.assembly.calls", "star.assembly.s",
    "spectral.eig.calls", "spectral.eig.s", "spectral.eig.dense_calls",
    "spectral.eig.dense_s", "spectral.eig.lanczos_calls",
    "spectral.eig.lanczos_s", "spectral.eig.failed",
    "spectral.scan.calls", "spectral.scan.s", "spectral.scan.evals",
    "spectral.scan.self_s", "spectral.resolvent.calls",
    "spectral.resolvent.s", "spectral.perturb.s", "qmc.bound.s",
    "spectral.basis.calls", "spectral.basis.states", "spectral.basis.s",
    "spectral.assembly.calls", "spectral.assembly.s", "spectral.assembly.nnz",
    "bits.enum.calls", "bits.enum.s", "landscape.indpoly.calls",
    "landscape.indpoly.s", "landscape.bound.s", "chain.profile.s",
    "chain.bulk.s", "graphs.s", "sa.proposals", "tts.trials", "tts.s",
    "pt.proposals", "qmc.engine.calls", "qmc.engine.s", "qmc.site_attempts",
)


def layer_metrics(spans, dense_limit: int) -> dict:
    """Per-layer metrics of one traced pass (README.md lists them).

    Every span adds to ``<name>.calls``, ``<name>.s``, ``<name>.self_s``
    and ``<name>.<attr>`` for each of its attributes.  Task spans (name
    "task") are the roots; their self time is the CLI's own work.
    """
    own = self_times(spans)
    agg: dict[str, float] = {}

    def add(key, value):
        agg[key] = agg.get(key, 0) + value

    for i, (_, start, end, _, attrs) in enumerate(spans):
        name = layer_name(spans, i)
        add(f"{name}.calls", 1)
        add(f"{name}.s", end - start)
        add(f"{name}.self_s", own[i])
        for key, value in (attrs or {}).items():
            add(f"{name}.{key}", value)
        if name == "spectral.eig":
            if attrs and "dim" in attrs:
                kind = "dense" if attrs["dim"] <= dense_limit else "lanczos"
                add(f"spectral.eig.{kind}_calls", 1)
                add(f"spectral.eig.{kind}_s", end - start)
            if _under(spans, i, "spectral.scan"):
                add("spectral.scan.evals", 1)

    def get(key):
        return agg.get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * get(num) / get(den) if get(den) else 0.0

    metrics = {name: get(name) for name in PLAIN_METRICS}
    metrics.update({
        "star.dim": get("star.space.dim"),
        "spectral.eig.eigsh_calls": get("arpack.eigsh.calls"),
        "sa.us_per_proposal": ratio("sa.self_s", "sa.proposals", 1e6),
        "sa.acceptance": ratio("sa.accepted", "sa.proposals"),
        "pt.us_per_proposal": ratio("pt.self_s", "pt.proposals", 1e6),
        "pt.swap_acceptance": ratio("pt.swap", "pt.calls"),
        "pt.iso_acceptance": ratio("pt.iso", "pt.calls"),
        "qmc.us_per_site_attempt": ratio("qmc.self_s", "qmc.site_attempts",
                                         1e6),
        "qmc.site_acceptance": ratio("qmc.site", "qmc.calls"),
        "qmc.segment_acceptance": ratio("qmc.segment", "qmc.calls"),
        "cli.self_s": get("task.self_s"),
    })
    return metrics


def layer_split(spans) -> dict:
    """Self time per layer, the basis of the layer split table."""
    split: dict[str, float] = {}
    for i, own in enumerate(self_times(spans)):
        name = layer_name(spans, i)
        split[name] = split.get(name, 0.0) + own
    return split


def layer_name(spans, i: int) -> str:
    """The layer a span counts under: its name, except that the short SA
    chains of a TTS estimate count as ``tts.sa``."""
    name = spans[i][0]
    return "tts.sa" if name == "sa" and _under(spans, i, "tts") else name


def _under(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
