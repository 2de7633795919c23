"""Tests of the benchmark's own output checks and tracing.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402

REFS = workloads.load_refs()


def test_refs_cover_every_exact_task(tmp_path):
    from flatscape import cli

    keys = {t.key for t in workloads.setup("star-family", 0, str(tmp_path),
                                           cli.main)
            if t.pipeline not in workloads.SAMPLER_PIPELINES}
    keys |= {f"ud-{seed}-{name}" for seed in workloads.UD_POOL
             for name in ("gap", "resolvent", "qmc-bound", "profile", "chain")}
    assert keys == set(REFS)


@pytest.mark.parametrize("key", sorted(REFS))
def test_perturbed_reference_fails(key):
    """A reference perturbed by 1e-6 relative fails its check; fields
    located by the golden-section search fail at 1e-4 (20 times their
    tolerance)."""
    ref = REFS[key]
    assert workloads.compare(dict(ref), ref) == []
    perturbed = 0
    for field, value in ref.items():
        if isinstance(value, float) and value != 0.0:
            step = 1e-4 if field in workloads.ARGMIN_FIELDS else 1e-6
            for sign in (1.0, -1.0):
                bad = dict(ref, **{field: value * (1.0 + sign * step)})
                assert workloads.compare(dict(ref), bad), field
            perturbed += field not in workloads.ARGMIN_FIELDS
    assert perturbed


def test_flags_and_counts_compare_exactly():
    ref = REFS["star-2-2"]
    assert workloads.compare(dict(ref, boundary_minimum=True), ref)
    assert workloads.compare(dict(ref, dim=ref["dim"] + 1), ref)
    assert workloads.compare({k: v for k, v in ref.items() if k != "gap"},
                             ref)


def test_instance_seed_maps_into_the_pool():
    assert workloads.instance_seed(workloads.UD_DEFAULT_SEED) == 7
    for seed in range(40):
        assert workloads.instance_seed(seed) in workloads.UD_POOL


def test_self_time_subtracts_children():
    spans = [["task", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
             ["b", 2.0, 3.0, 1, None], ["c", 5.0, 6.0, 0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_counts_a_star_scan(tmp_path):
    from flatscape import cli, qmc, spectral

    original = spectral.lowest_eigenpairs
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        assert tracer.missing == []
        assert cli.lowest_eigenpairs is spectral.lowest_eigenpairs
        assert cli.lowest_eigenpairs is not original
        assert qmc.build_operator is spectral.build_operator
        idx = tracer.begin("task")
        status = cli.main(["gap", "--nb", "3", "--l", "2",
                           "--out", str(tmp_path / "g.json")])
        tracer.end(idx)
    finally:
        tracer.uninstall()
    assert status == 0
    assert spectral.lowest_eigenpairs is original
    assert "flatscape.spectral.lowest_eigenpairs" in tracer.unwrapped()
    m = layer_metrics(tracer.spans, spectral.DENSE_EIG_LIMIT)
    assert m["star.assembly.calls"] == m["spectral.eig.calls"] > 0
    assert m["spectral.scan.calls"] == 1
    assert m["spectral.scan.evals"] == m["spectral.eig.calls"]
    assert m["spectral.eig.dense_calls"] == m["spectral.eig.calls"]
    assert m["cli.self_s"] >= 0.0
