import json
import math
import os

import pytest

from flatscape.cli import main
from flatscape.graphs import deserialize, generate_star, serialize
from flatscape.spectral import restricted_basis


def run_cli(args):
    return main(list(args))


def test_gen_star_and_profile_roundtrip(tmp_path):
    inst = tmp_path / "star.json"
    prof = tmp_path / "profile.json"
    assert run_cli(["gen", "--nb", "2", "--l", "2", "--out", str(inst)]) == 0
    graph = deserialize(inst.read_text())
    assert graph == generate_star(2, 2)
    assert run_cli(["profile", "--in", str(inst), "--out", str(prof)]) == 0
    doc = json.loads(prof.read_text())
    assert doc["counts"] == ["1", "5", "6", "1"]
    assert doc["bounds"]["sa"] == pytest.approx(math.log(2) / 10 * 6, abs=1e-9)
    assert set(doc["bounds"]) == {"sa", "pt_local", "pt_isoenergetic", "qmc"}


def test_gen_batch_writes_manifest(tmp_path):
    out = tmp_path / "batch"
    assert run_cli(["gen", "--width", "3", "--height", "3", "--count", "3",
                    "--seed", "5", "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == ["instance-5.json", "instance-5.json.manifest.json",
                     "instance-6.json", "instance-7.json"]
    manifest = json.loads((out / "instance-5.json.manifest.json").read_text())
    assert manifest["seeds"] == [5, 6, 7]
    assert manifest["code_version"]
    assert len(manifest["outputs"]) == 3
    assert manifest["peak_rss_mb"] > 0


def test_replay_reproduces_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["gen", "--width", "4", "--height", "3", "--seed", "9"]
    assert run_cli(args + ["--out", str(a / "i.json")]) == 0
    manifest = json.loads((a / "i.json.manifest.json").read_text())
    replay = [arg for arg in manifest["argv"] if arg != str(a / "i.json")]
    replay = [arg for arg in replay if arg != "--out"]
    assert run_cli(replay + ["--out", str(b / "i.json")]) == 0
    assert (a / "i.json").read_bytes() == (b / "i.json").read_bytes()


def test_gap_consumes_star_prediction(tmp_path, capsys, monkeypatch):
    # the star subcommand's output is a valid gap input (pipe composition)
    pred = tmp_path / "pred.json"
    assert run_cli(["star", "--nb", "3", "--l", "2", "--out", str(pred)]) == 0
    gap_out = tmp_path / "gap.json"
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(pred.read_text()))
    assert run_cli(["gap", "--lambda", "0", "--out", str(gap_out)]) == 0
    doc = json.loads(gap_out.read_text())
    assert doc["gap"] == pytest.approx(0.8619946975759554, rel=1e-6)


@pytest.mark.parametrize("omega, delta_range", [("2", "0.2:6.0"),
                                                ("0.1", "0.02:0.6")])
def test_star_gap_scans_follow_omega(tmp_path, omega, delta_range):
    # the symmetric-sector scans (--nb, --symmetric) and the generic scan of
    # the same star find the same minimum gap at the given drive
    inst = tmp_path / "star.json"
    assert run_cli(["gen", "--nb", "3", "--l", "2", "--out", str(inst)]) == 0
    generic = tmp_path / "generic.json"
    assert run_cli(["gap", "--in", str(inst), "--omega", omega,
                    "--delta-range", delta_range, "--out", str(generic)]) == 0
    expected = json.loads(generic.read_text())
    assert not expected["boundary_minimum"]
    for source in (["--nb", "3", "--l", "2"], ["--in", str(inst), "--symmetric"]):
        out = tmp_path / "sym.json"
        assert run_cli(["gap", *source, "--omega", omega, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"]["omega"] == float(omega)
        assert doc["gap"] == pytest.approx(expected["gap"], rel=1e-6)


def test_star_gap_dumps_generic_states(tmp_path):
    # --nb scans the symmetric sector; the dump is the generic-basis pair
    # of the same star at the scan's minimum
    out, dump = tmp_path / "g.json", tmp_path / "ds.csv"
    assert run_cli(["gap", "--nb", "3", "--l", "2", "--dump-states",
                    str(dump), "--out", str(out)]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "mask,ground,excited"
    assert len(lines) - 1 == len(restricted_basis(generate_star(3, 2)))
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(dump)]


def test_star_dump_above_the_dense_limit_is_the_generic_pair(tmp_path):
    # star(2,6) has 610 generic rows, so its dump is a Lanczos solve; each
    # column is the dense pair of the generic operator at delta*
    import numpy as np
    import scipy.linalg

    from flatscape.spectral import DENSE_EIG_LIMIT, build_operator

    out, dump = tmp_path / "g.json", tmp_path / "ds.csv"
    assert run_cli(["gap", "--nb", "2", "--l", "6", "--dump-states",
                    str(dump), "--out", str(out)]) == 0
    op = build_operator(generate_star(2, 6), 1.0,
                        json.loads(out.read_text())["delta_star"])
    assert op.dim == 610 > DENSE_EIG_LIMIT
    _, want = scipy.linalg.eigh(op.matrix.toarray(), subset_by_index=(0, 1))
    lines = dump.read_text().splitlines()
    assert lines[0] == "mask,ground,excited"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == op.basis
    got = np.array([[float(x) for x in row[1:]] for row in rows])
    for k in range(2):
        assert abs(got[:, k] @ want[:, k]) >= 1 - 1e-9, k


def test_gap_dumps_the_scan_pair(tmp_path, monkeypatch):
    # the generic path dumps the scan's operator and pair at delta*: one
    # Space and no tol-0 solve of the full operator
    from flatscape import bits, cli, spectral

    calls = {"space": 0, "tols": set()}
    space_of, eig = bits.Space.of, spectral.lowest_eigenpairs

    def counted_space(cls, *args, **kwargs):
        calls["space"] += 1
        return space_of(*args, **kwargs)

    def counted_eig(op, *args, **kwargs):
        dim = getattr(op, "matrix", op).shape[0]
        calls["tols"].add((dim, kwargs.get("tol", 0.0)))
        return eig(op, *args, **kwargs)

    inst, out = tmp_path / "ud.json", tmp_path / "g.json"
    dump = tmp_path / "ds.csv"
    assert run_cli(["gen", "--width", "5", "--height", "4", "--filling",
                    "0.8", "--seed", "7", "--out", str(inst)]) == 0
    dim = len(restricted_basis(deserialize(inst.read_text())))
    assert dim > spectral.DENSE_EIG_LIMIT
    monkeypatch.setattr(bits.Space, "of", classmethod(counted_space))
    monkeypatch.setattr(spectral, "lowest_eigenpairs", counted_eig)
    monkeypatch.setattr(cli, "lowest_eigenpairs", counted_eig)
    assert run_cli(["gap", "--in", str(inst), "--dump-states", str(dump),
                    "--out", str(out)]) == 0
    assert calls["space"] == 1
    assert {tol for d, tol in calls["tols"] if d == dim} == \
        {spectral.SCAN_ARPACK_TOL}
    lines = dump.read_text().splitlines()
    assert lines[0] == "mask,ground,excited"
    assert len(lines) - 1 == dim


def test_usage_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["profile", "--in", str(bad), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert "flatscape: error[usage]:" in err


def test_capacity_error_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(serialize(generate_star(8, 6)))  # n = 49 generic limit
    # force the generic path by relabelling the kind
    doc = json.loads(big.read_text())
    doc["kind"] = "generic"
    doc["meta"] = {}
    big.write_text(json.dumps(doc))
    assert run_cli(["profile", "--in", str(big), "--out", "-"]) == 3
    assert "error[capacity]" in capsys.readouterr().err


def test_censored_tts_exit_code(tmp_path, capsys):
    inst = tmp_path / "i.json"
    # a two-branch star, but demand more sweeps than given: tiny budget at
    # high beta starting far from the optimum rarely finishes in 2 sweeps
    run_cli(["gen", "--nb", "4", "--l", "4", "--out", str(inst)])
    code = run_cli(["sa", "--in", str(inst), "--tts", "--trials", "2",
                    "--tts-max-exp", "2", "--beta", "0.01", "--seed", "3",
                    "--out", str(tmp_path / "t.json")])
    if code == 5:
        assert "error[censored]" in capsys.readouterr().err
    else:
        assert code == 0  # lucky seed; acceptable either way


@pytest.mark.parametrize("command,sampler", [("sa", "sa_run"),
                                             ("pt", "pt_run")])
def test_trials_are_keyed_by_seed_and_trial(tmp_path, monkeypatch, command,
                                            sampler):
    # trial t of --seed s samples the Philox stream (s, t), so trial 1 of
    # --seed 0 does not replay trial 0 of --seed 7919
    from flatscape import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # record in-process
    inst = tmp_path / "i.json"
    inst.write_text(serialize(generate_star(2, 2)))
    keys = []
    real = getattr(cli, sampler)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        keys.append(tuple(result.rng["key"]))
        return result

    monkeypatch.setattr(cli, sampler, recorded)
    for seed, trials in ((0, 3), (7919, 2)):
        assert run_cli([command, "--in", str(inst), "--sweeps", "20",
                        "--trials", str(trials), "--seed", str(seed),
                        "--out", str(tmp_path / f"{seed}.json")]) == 0
    assert keys == [(0, 0), (0, 1), (0, 2), (7919, 0), (7919, 1)]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_uint64_exit_code(tmp_path, capsys, seed):
    # Philox key words are uint64: a seed outside [0, 2^64) is a usage
    # error, not a silent wrap or a traceback
    inst = tmp_path / "i.json"
    inst.write_text(serialize(generate_star(2, 2)))
    out = tmp_path / "s.json"
    assert run_cli(["sa", "--in", str(inst), "--sweeps", "5", "--trials", "1",
                    "--seed", seed, "--out", str(out)]) == 2
    assert "error[usage]" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["status"] == 2
    assert manifest["seeds"] == [int(seed)]


@pytest.mark.parametrize("argv", [
    ["profile"], ["gap"], ["resolvent"], ["chain"],
    ["star", "--nb", "2", "--l", "2"], ["compare"]], ids=lambda a: a[0])
def test_seed_only_where_a_command_draws(tmp_path, capsys, argv):
    # a command that draws nothing takes no --seed, and its manifest
    # records no seed
    assert run_cli(argv + ["--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    if argv[0] == "star":
        out = tmp_path / "star.json"
        assert run_cli(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "star.json.manifest.json").read_text())
        assert manifest["seeds"] == []


def test_qmc_bound_inputs_cli(tmp_path):
    inst = tmp_path / "i.json"
    run_cli(["gen", "--nb", "2", "--l", "2", "--out", str(inst)])
    out = tmp_path / "qb.json"
    assert run_cli(["qmc", "--in", str(inst), "--bound-inputs",
                    "--lambda", "50", "--beta", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert float(doc["e_max"]["3"]) <= 1.1


@pytest.mark.parametrize("eps", ["0", "-0.1", "nan", "0.5"])
@pytest.mark.parametrize("command", [["profile"], ["qmc", "--bound-inputs"]])
def test_bound_error_target_outside_its_range_exit_code(tmp_path, capsys,
                                                        command, eps):
    # log(1 / (2 eps)) needs 0 < eps < 1/2: anything else, NaN included, is
    # a usage error with a manifest, not a traceback or a NaN bound
    inst = tmp_path / "i.json"
    inst.write_text(serialize(generate_star(2, 2)))
    out = tmp_path / "b.json"
    assert run_cli(command + ["--in", str(inst), f"--eps={eps}",
                              "--out", str(out)]) == 2
    assert "error[usage]" in capsys.readouterr().err
    assert not out.exists()
    manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
    assert manifest["status"] == 2


@pytest.mark.parametrize("argv, limit", [
    (["gap", "--delta-range", "6.0:0.2"], "strictly increasing"),
    (["gap", "--delta-range", "3:3"], "strictly increasing"),
    (["chain", "--delta-range", "8:0.05"], "strictly increasing"),
    (["gap", "--nb", "3", "--omega", "-1"], "positive drive"),
    (["gap", "--nb", "3", "--omega", "0"], "positive drive"),
    (["sa", "--tts", "--tts-max-exp", "1"], "at least one sweep budget"),
    (["sa", "--tts", "--trials", "0"], "at least 1 trial"),
    (["sa", "--trials", "0"], "at least 1"),
    (["pt", "--trials", "0"], "at least 1"),
    (["qmc", "--sweeps", "100"], "burn-in < sweeps"),
    (["sa", "--tts", "--p-target", "0"], "probability in (0, 1)"),
    (["sa", "--tts", "--p-target", "1"], "probability in (0, 1)"),
    (["sa", "--tts", "--p-target", "1.5"], "probability in (0, 1)"),
    (["sa", "--sweeps", "0"], "sweeps must be >= 1"),
    (["pt", "--sweeps", "0"], "sweeps must be >= 1"),
    (["sa", "--beta=-1"], "inverse temperatures must be >= 0"),
    (["pt", "--beta=-1,1"], "inverse temperatures must be >= 0"),
    (["qmc", "--beta=-1"], "beta must be >= 0"),
    (["qmc", "--bound-inputs", "--beta=-1"], "beta must be >= 0"),
    (["qmc", "--delta", "nan"], "delta must be finite"),
    (["qmc", "--lambda", "inf"], "lambda must be finite"),
    (["qmc", "--beta", "inf"], "beta must be finite"),
    (["qmc", "--omega=-inf"], "omega must be finite"),
    (["qmc", "--bound-inputs", "--beta", "inf"], "beta must be finite"),
    (["qmc", "--bound-inputs", "--delta", "nan"], "delta must be finite"),
])
def test_inputs_outside_their_range_exit_code(tmp_path, capsys, argv, limit):
    # a reversed or empty scan range, a non-positive star drive, an empty
    # TTS budget grid, a TTS target outside (0, 1), zero trials, a QMC run
    # that is all burn-in, zero sampler sweeps, a negative inverse
    # temperature and a non-finite QMC coefficient are usage errors that name
    # the limit and leave a manifest, not an empty or NaN answer or a
    # traceback
    inst = tmp_path / "i.json"
    inst.write_text(serialize(generate_star(3, 2)))
    out = tmp_path / "r.json"
    source = [] if argv[0] == "compare" else ["--in", str(inst)]
    assert run_cli(argv + source + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[usage]" in err and limit in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["status"] == 2


@pytest.mark.parametrize("doc, field", [
    ({"ell": 2}, "n_b"),
    ({"n_b": 3}, "ell"),
    ({"n_b": "3", "ell": 2}, "n_b"),
], ids=["no-n_b", "no-ell", "string-n_b"])
def test_malformed_star_prediction_exit_code(tmp_path, capsys, doc, field):
    # a star_prediction input without an integer n_b or ell is a usage
    # error naming the field, with a manifest, not a traceback
    inst = tmp_path / "pred.json"
    inst.write_text(json.dumps({"version": 1, "kind": "star_prediction",
                                **doc}))
    out = tmp_path / "g.json"
    assert run_cli(["gap", "--in", str(inst), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[usage]" in err and f"field '{field}'" in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["status"] == 2


def test_compare_join_of_a_json_list_exit_code(tmp_path, capsys):
    # a joined report must be a JSON object; a list names its path
    report = tmp_path / "list.json"
    report.write_text("[1, 2]")
    out = tmp_path / "joined.csv"
    assert run_cli(["compare", "--join", str(report), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[usage]" in err and str(report) in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "joined.csv.manifest.json").read_text())
    assert manifest["status"] == 2


def _assert_capacity_exit(argv, out, capsys, limit):
    assert run_cli(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error[capacity]" in err and limit in err
    assert not out.exists()
    manifest = json.loads(out.with_name(out.name + ".manifest.json")
                          .read_text())
    assert manifest["status"] == 3


def test_star_sector_past_the_row_limit_exit_code(tmp_path, capsys,
                                                  monkeypatch):
    # the symmetric sector counts its rows before it allocates them; the
    # limit is shrunk so that star(3,4)'s 155 rows cross it
    from flatscape import star_models

    monkeypatch.setattr(star_models, "STAR_ROW_LIMIT", 100)
    _assert_capacity_exit(["gap", "--nb", "3", "--l", "4"],
                          tmp_path / "g.json", capsys, "STAR_ROW_LIMIT")


def test_star_sector_past_the_index_range_exit_code(tmp_path, capsys):
    # star(400,8) has about 5e70 sector rows: a capacity error, not an
    # overflow while sizing the arrays
    _assert_capacity_exit(["gap", "--nb", "400", "--l", "8"],
                          tmp_path / "g.json", capsys, "STAR_ROW_LIMIT")


def test_bound_past_the_float_range_exit_code(tmp_path, capsys):
    # star(500,8)'s suffix ratio overflows a double: the bound names the
    # float range instead of raising OverflowError
    inst = tmp_path / "s.json"
    assert run_cli(["gen", "--nb", "500", "--l", "8", "--out", str(inst)]) == 0
    _assert_capacity_exit(["profile", "--in", str(inst)],
                          tmp_path / "p.json", capsys, "float range")


def test_suffix_ratio_past_the_float_range_exit_code(tmp_path, capsys):
    # star(442,8)'s bounds fit a double but its max suffix ratio, 8.7e308,
    # does not: a capacity error naming the float range, not OverflowError
    inst = tmp_path / "s.json"
    assert run_cli(["gen", "--nb", "442", "--l", "8", "--out", str(inst)]) == 0
    _assert_capacity_exit(["profile", "--in", str(inst)], tmp_path / "p.json",
                          capsys, "max suffix ratio exceeds the float range")


def test_isoenergetic_bound_on_a_large_star(tmp_path):
    # star(200,8) has alpha = 801, 6.5e9 terms in the isoenergetic triple
    # sum; the log-space evaluator gives its bound in well under a second
    inst, out = tmp_path / "s.json", tmp_path / "p.json"
    assert run_cli(["gen", "--nb", "200", "--l", "8", "--out", str(inst)]) == 0
    assert run_cli(["profile", "--in", str(inst), "--out", str(out)]) == 0
    bounds = json.loads(out.read_text())["bounds"]
    assert 0 < bounds["pt_isoenergetic"] <= bounds["pt_local"]
    assert math.isfinite(bounds["pt_isoenergetic"])


def test_documents_are_strict_json():
    # NaN and Infinity are not JSON values; no document may carry them
    from flatscape.cli import _canonical_json

    assert _canonical_json({"a": 1.5, "b": "inf"}) == \
        '{\n  "a": 1.5,\n  "b": "inf"\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _canonical_json({"value": [1.0, bad]})


@pytest.mark.parametrize("command", ["profile", "sa", "pt", "qmc", "gap",
                                     "resolvent", "chain"])
def test_vertex_less_instance_exit_code(tmp_path, capsys, command):
    # an n = 0 instance is valid output of gen; every --in subcommand
    # rejects it at load as a usage error with a manifest, not a traceback
    inst = tmp_path / "i.json"
    assert run_cli(["gen", "--width", "2", "--height", "1", "--filling", "0",
                    "--out", str(inst)]) == 0
    assert deserialize(inst.read_text()).n == 0
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert run_cli([command, "--in", str(inst), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[usage]" in err and "has no vertices" in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["status"] == 2


def test_resolvent_reports_a_boundary_scan_like_gap(tmp_path, capsys):
    # the 4x3 disk's default scan has no interior dip: it ends at delta =
    # 6, crossing 1/6, and resolvent says so in its document and on stderr
    inst = tmp_path / "ud.json"
    assert run_cli(["gen", "--width", "4", "--height", "3", "--filling",
                    "0.8", "--seed", "3", "--out", str(inst)]) == 0
    docs = {}
    for command in ("gap", "resolvent"):
        capsys.readouterr()
        out = tmp_path / f"{command}.json"
        assert run_cli([command, "--in", str(inst), "--out", str(out)]) == 0
        assert "warning[boundary]" in capsys.readouterr().err, command
        docs[command] = json.loads(out.read_text())
    assert docs["gap"]["boundary_minimum"] is True
    assert docs["resolvent"]["boundary_minimum"] is True
    assert docs["resolvent"]["exact_crossing"] == docs["gap"]["crossing"]
    assert docs["gap"]["crossing"] == pytest.approx(1 / 6, rel=1e-12)


def test_resolvent_reuses_the_scan_operator_and_pair(tmp_path, monkeypatch):
    # one enumeration and one Space serve the scan and the manifolds; the
    # resolvent takes the scan's operator and repeats its solve at delta*,
    # so every solve of the full operator runs at the scan's tolerance (the
    # manifold grounds run at tol 0 on their smaller blocks)
    from flatscape import bits, spectral

    calls = {"enum": 0, "space": 0, "tols": set()}
    enum, space_of = spectral.enumerate_independent_sets, bits.Space.of
    eig = spectral.lowest_eigenpairs

    def counted_enum(*args, **kwargs):
        calls["enum"] += 1
        return enum(*args, **kwargs)

    def counted_space(cls, *args, **kwargs):
        calls["space"] += 1
        return space_of(*args, **kwargs)

    def counted_eig(op, *args, **kwargs):
        calls["tols"].add((op.shape[0], kwargs.get("tol", 0.0)))
        return eig(op, *args, **kwargs)

    inst, out = tmp_path / "ud.json", tmp_path / "res.json"
    assert run_cli(["gen", "--width", "5", "--height", "4", "--filling",
                    "0.8", "--seed", "7", "--out", str(inst)]) == 0
    monkeypatch.setattr(spectral, "enumerate_independent_sets", counted_enum)
    monkeypatch.setattr(bits.Space, "of", classmethod(counted_space))
    monkeypatch.setattr(spectral, "lowest_eigenpairs", counted_eig)
    assert run_cli(["resolvent", "--in", str(inst), "--out", str(out)]) == 0
    assert (calls["enum"], calls["space"]) == (1, 1)
    dim = len(restricted_basis(deserialize(inst.read_text())))
    assert {tol for d, tol in calls["tols"] if d == dim} == \
        {spectral.SCAN_ARPACK_TOL}
    assert json.loads(out.read_text())["validity"] > 0


def test_compare_star_family_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--l", "2", "--nb", "2:3",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("schema,family,ell,n_b,n,sa_bound")
    assert len(lines) == 3
    assert all(line.startswith("flatscape.compare.v1") for line in lines[1:])


@pytest.mark.parametrize("flag, family", [("--nb", "6:2"), ("--l", "")])
def test_compare_empty_family_exit_code(tmp_path, capsys, flag, family):
    # an empty star family is a usage error, not a header-only CSV
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", flag, family, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[usage]" in err and "empty integer list" in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
    assert manifest["status"] == 2


def test_compare_join_mode(tmp_path):
    inst = tmp_path / "i.json"
    run_cli(["gen", "--nb", "2", "--l", "2", "--out", str(inst)])
    prof = tmp_path / "p.json"
    run_cli(["profile", "--in", str(inst), "--out", str(prof)])
    out = tmp_path / "joined.csv"
    assert run_cli(["compare", "--join", str(prof), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert "alpha" in lines[0]


def test_chain_cli_emits_curve_csv(tmp_path):
    inst = tmp_path / "i.json"
    run_cli(["gen", "--nb", "3", "--l", "2", "--out", str(inst)])
    out = tmp_path / "chain.json"
    curve = tmp_path / "curve.csv"
    assert run_cli(["chain", "--in", str(inst), "--out", str(out),
                    "--csv", str(curve), "--schedule"]) == 0
    doc = json.loads(out.read_text())
    assert doc["min_gap"] > 0
    assert doc["schedule"]["total_duration"] > 0
    assert curve.read_text().startswith("delta,gap")


def test_chain_csv_to_stdout_leaves_manifest_to_json(tmp_path, capsys):
    inst = tmp_path / "i.json"
    run_cli(["gen", "--nb", "3", "--l", "2", "--out", str(inst)])
    capsys.readouterr()
    out = tmp_path / "chain.json"
    assert run_cli(["chain", "--in", str(inst), "--out", str(out),
                    "--csv", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta,gap"
    assert len(lines) == 1 + len(json.loads(out.read_text())["curve"])
    manifest = json.loads((tmp_path / "chain.json.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)]


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FLATSCAPE_OUT", str(tmp_path))
    assert run_cli(["gen", "--nb", "1", "--l", "2", "--out", "rel.json"]) == 0
    assert (tmp_path / "rel.json").exists()


def test_manifest_written_on_censored_exit(tmp_path, capsys):
    inst = tmp_path / "i.json"
    assert run_cli(["gen", "--width", "6", "--height", "5",
                    "--out", str(inst)]) == 0
    out = tmp_path / "t.json"
    # four sweeps at beta 0.1 never reach the maximum set of a 6x5 instance
    assert run_cli(["sa", "--in", str(inst), "--tts", "--trials", "2",
                    "--tts-max-exp", "2", "--beta", "0.1",
                    "--out", str(out)]) == 5
    assert "error[censored]" in capsys.readouterr().err
    assert json.loads(out.read_text())["censored"] is True
    manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
    assert manifest["status"] == 5
    assert manifest["outputs"] == [str(out)]
    ok = json.loads((tmp_path / "i.json.manifest.json").read_text())
    assert ok["status"] == 0


def test_manifest_written_when_failure_precedes_output(tmp_path, capsys):
    big = tmp_path / "big.json"
    doc = json.loads(serialize(generate_star(8, 6)))
    doc["kind"] = "generic"
    doc["meta"] = {}
    big.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    assert run_cli(["profile", "--in", str(big), "--out", str(out)]) == 3
    assert not out.exists()
    manifest = json.loads((tmp_path / "p.json.manifest.json").read_text())
    assert manifest["status"] == 3
    assert manifest["outputs"] == []
    assert manifest["peak_rss_mb"] > 0  # failure exits carry it too
    assert str(big) in manifest["input_digests"]


def test_gap_documents_repeat_across_processes(tmp_path):
    # a Lanczos-path scan (dim 661) gives the same bytes in fresh processes
    import subprocess
    import sys
    from pathlib import Path

    import flatscape

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(flatscape.__file__).parents[1]), env.get("PYTHONPATH", "")])
    inst = tmp_path / "ud.json"
    assert run_cli(["gen", "--width", "5", "--height", "4", "--filling",
                    "0.8", "--seed", "7", "--out", str(inst)]) == 0
    docs = []
    for k in range(2):
        out = tmp_path / f"gap{k}.json"
        subprocess.run([sys.executable, "-m", "flatscape.cli", "gap", "--in",
                        str(inst), "--out", str(out)], env=env, check=True)
        docs.append(out.read_bytes())
    assert json.loads(docs[0])["method"]["dim"] == 661
    assert docs[0] == docs[1]


def test_spectral_pipelines_do_not_import_scipy_optimize(tmp_path):
    # importing scipy.optimize costs about 15 MiB of resident memory, which
    # no spectral pipeline needs: the gap scan's root search is its own
    import subprocess
    import sys
    from pathlib import Path

    import flatscape

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(flatscape.__file__).parents[1]), env.get("PYTHONPATH", "")])
    inst, out = tmp_path / "ud.json", str(tmp_path / "out.json")
    script = f"""
import sys
from flatscape.cli import main
inst = {str(inst)!r}
for argv in (["gap", "--nb", "2", "--l", "8"],
             ["gen", "--width", "4", "--height", "4", "--filling", "0.8",
              "--seed", "3", "--out", inst],
             ["resolvent", "--in", inst],
             ["qmc", "--bound-inputs", "--in", inst]):
    argv = argv if "--out" in argv else argv + ["--out", {out!r}]
    assert main(argv) == 0, argv
print("scipy.optimize" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split()[-1] == "False"


@pytest.mark.parametrize("command", ["sa", "pt"])
@pytest.mark.parametrize("trials", [1, 2, 5, 7])
def test_trial_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch,
                                                   command, trials):
    # trial t samples the stream (seed, t) in whichever process runs it, and
    # results are gathered in trial order, so documents and CSVs match
    from flatscape import cli

    inst = tmp_path / "i.json"
    inst.write_text(serialize(generate_star(2, 2)))
    files = {}
    for cpus in (1, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out, table = tmp_path / f"{cpus}.json", tmp_path / f"{cpus}.csv"
        assert run_cli([command, "--in", str(inst), "--sweeps", "30",
                        "--trials", str(trials), "--seed", "5",
                        "--out", str(out), "--csv", str(table)]) == 0
        files[cpus] = out.read_bytes(), table.read_bytes()
        manifest = json.loads((tmp_path / f"{cpus}.json.manifest.json")
                              .read_text())
        assert manifest["workers"] == min(cpus, trials)
    assert files[1] == files[3]


def test_worker_exception_keeps_its_exit_code(tmp_path, capsys, monkeypatch):
    # a usage error raised in a forked trial reaches main as the same
    # exception: exit 2 with a manifest
    from flatscape import cli
    from flatscape.errors import ParseError

    parent, real = os.getpid(), cli.sa_run

    def failing(graph, config, trial):
        if trial == 1 and os.getpid() != parent:
            raise ParseError("trial", "refused in the worker")
        return real(graph, config, trial=trial)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "sa_run", failing)
    inst, out = tmp_path / "i.json", tmp_path / "sa.json"
    inst.write_text(serialize(generate_star(2, 2)))
    assert run_cli(["sa", "--in", str(inst), "--sweeps", "10", "--trials",
                    "4", "--out", str(out)]) == 2
    assert "field 'trial': refused in the worker" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "sa.json.manifest.json").read_text())
    assert manifest["status"] == 2


@pytest.mark.parametrize("how", ["status 9", "signal 9"])
def test_worker_without_a_result_is_named(tmp_path, monkeypatch, how):
    # a worker that exits or is killed before it reports names its pid, exit
    # status or signal and items; main leaves a manifest with status 1 and
    # raises again
    import signal

    from flatscape import cli

    parent, real = os.getpid(), cli.sa_run

    def dying(graph, config, trial):
        if trial == 1 and os.getpid() != parent:
            if how == "status 9":
                os._exit(9)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(graph, config, trial=trial)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "sa_run", dying)
    inst, out = tmp_path / "i.json", tmp_path / "sa.json"
    inst.write_text(serialize(generate_star(2, 2)))
    with pytest.raises(RuntimeError,
                       match=rf"worker \d+ exited with {how} without a "
                             r"result for items \[1, 3\]"):
        run_cli(["sa", "--in", str(inst), "--sweeps", "10", "--trials", "4",
                 "--out", str(out)])
    assert not out.exists()
    manifest = json.loads((tmp_path / "sa.json.manifest.json").read_text())
    assert manifest["status"] == 1
