import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conecalc import cli, cones, grids, schema, solver
from conecalc.errors import InternalConsistencyError
from conecalc.grids import GridFunction, from_function, write_grid


def run_cli(*args, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    proc = subprocess.run(
        [sys.executable, "-m", "conecalc.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def output_of(*args, **kw):
    code, out, err = run_cli(*args, **kw)
    report = json.loads(out, parse_constant=_reject_constant)
    schema.validate_report(report)
    return code, report


def test_cli_import_loads_no_scipy_solver_modules():
    # scipy's special, optimize and sparse packages load on first use only
    code = (
        "import sys, conecalc.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.special', 'scipy.optimize', 'scipy.sparse'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


_LOADED_BY_IMPORT = ["conecalc", "conecalc.cli", "conecalc.errors", "conecalc.symmat"]


@pytest.mark.parametrize("argv,loaded", [
    pytest.param(None, [], id="import"),
    pytest.param(["cone", "--spec", "sigma:2", "--dim", "4"], ["cones"], id="cone"),
    pytest.param(["check", "positivity", "--f", "pp:2", "--dim", "3", "--samples", "50"],
                 ["cones"], id="check"),
    pytest.param(["kernel", "--p", "3", "--dim", "3", "--x", "1,0,0"], ["riesz"], id="kernel"),
    pytest.param(["polar", "--points", "{tmp}/points.csv", "--p", "2"],
                 ["grids", "riesz"], id="polar"),
    pytest.param(["grid", "hessian", "--input", "{tmp}/u.grid", "--at", "4,4"],
                 ["grids"], id="grid-hessian"),
    pytest.param(["grid", "verify", "--input", "{tmp}/u.grid", "--cone", "pp:2"],
                 ["cones", "grids"], id="grid-verify"),
    pytest.param(["solve", "--problem", "{tmp}/problem.json"],
                 ["cones", "grids", "solver"], id="solve"),
    pytest.param(["experiment", "--config", "{tmp}/experiment.json", "--output-dir", "{tmp}/out"],
                 ["cones", "grids", "riesz", "solver"], id="experiment"),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    write_grid(tmp_path / "u.grid",
               from_function((9, 9), [-1, -1], 0.25, lambda x, y: x * x - y * y))
    (tmp_path / "points.csv").write_text("0,0\n1,0\n")
    _, problem = write_problem(tmp_path, grid={"shape": [9, 9], "origin": [-1, -1], "h": 0.25})
    (tmp_path / "experiment.json").write_text(
        json.dumps({"kind": "removability", "problem": problem, "puncture": [[0, 0]]}))
    argv = argv and [arg.format(tmp=tmp_path) for arg in argv]
    code = "\n".join([
        "import contextlib, io, sys",
        "from conecalc import cli",
        f"argv = {argv!r}",
        "if argv is not None:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'conecalc'))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr(sorted(_LOADED_BY_IMPORT + [f"conecalc.{m}" for m in loaded]))


# -- cone reports -----------------------------------------------------------------


def test_cone_report_sigma():
    code, rep = output_of("cone", "--spec", "sigma:2", "--dim", "4")
    assert code == 0
    assert rep["riesz_characteristic"] == pytest.approx(2.0, abs=1e-6)
    assert rep["closed_form"] == pytest.approx(2.0)
    assert rep["o_n_invariant"] is True
    assert rep["seed"] == 0


def test_cone_report_trivial_partial_sum():
    code, rep = output_of("cone", "--spec", "pp:1", "--dim", "5")
    assert code == 0
    assert rep["riesz_characteristic"] == pytest.approx(1.0, abs=1e-6)


def test_cone_report_pucci_arithmetic():
    code, rep = output_of("cone", "--spec", "pucci:1:3", "--dim", "4")
    assert code == 0
    assert rep["riesz_characteristic"] == pytest.approx(2.0, abs=1e-6)
    assert "tr(A+)" in rep["dual_description"]


def test_cone_report_nested_enlargement():
    # enlargements add: (1 + 0.3 + 0.2) * 2, not (1.3)(1.2) * 2 = 3.12
    code, rep = output_of("cone", "--spec", "enl:enl:sigma:2:0.3:0.2", "--dim", "4")
    assert code == 0
    assert rep["riesz_characteristic"] == 3.0 and rep["closed_form"] == 3.0


def test_cone_membership_report(tmp_path):
    mat = tmp_path / "A.csv"
    mat.write_text("1.0,0.0\n0.0,-1.0\n")
    code, rep = output_of(
        "cone", "--spec", "pucci:1:2", "--dim", "2", "--matrix", mat
    )
    assert code == 1 and rep["member"] is False
    assert rep["margin"] == pytest.approx(-1.0)
    assert {"cone", "dim", "member", "margin", "witness", "seed"} <= set(rep)
    code, rep = output_of(
        "cone", "--spec", "dual:p", "--dim", "2", "--matrix", mat
    )
    assert code == 0 and rep["member"] is True


@pytest.mark.parametrize("spec", ["sigma:3", "dual:sigma:3"], ids=["cone", "dual"])
def test_membership_margin_overflow_is_a_usage_error(tmp_path, spec):
    # sigma_3 of diag(1e200, 1e200, -1e200) overflows to -inf
    (tmp_path / "M.csv").write_text("1e200,0,0\n0,1e200,0\n0,0,-1e200\n")
    proc = subprocess.run(
        [sys.executable, "-m", "conecalc.cli", "cone", "--spec", spec, "--dim", "3",
         "--matrix", "M.csv"],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 2
    rep = json.loads(proc.stdout, parse_constant=_reject_constant)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "DomainError"
    assert proc.stderr == ""


def test_dual_membership_is_a_dual_descriptor_not_a_flag(tmp_path, monkeypatch, capsys):
    # the dual margin -5e-8 lies between the closed and interior tolerance bands
    (tmp_path / "A.csv").write_text("-1,0,0\n0,0,0\n0,0,-5e-8\n")
    monkeypatch.chdir(tmp_path)
    reports = []
    for argv in (["--spec", "pp:2", "--dual"], ["--spec", "dual:pp:2"]):
        code = cli.main(["cone", *argv, "--dim", "3", "--matrix", "A.csv"])
        out, err = capsys.readouterr()
        rep = json.loads(out)  # one report and nothing after it
        schema.validate_report(rep)
        assert err == ""
        reports.append((code, rep))
    (code, retired), (code_dual, rep) = reports
    assert code == 2 and retired["error"]["kind"] == "usage"
    assert "--dual" in retired["error"]["message"]
    assert (code_dual, rep["member"], rep["margin"], rep["threshold"], rep["witness"]) == (
        1, False, -5e-8, -2e-9, {"eigen_indices": [1, 2]})
    assert "dual" not in rep


def test_cone_parse_error_position_and_exit():
    code, out, _ = run_cli("cone", "--spec", "pucci:1:x", "--dim", "4")
    assert code == 2
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "parse"
    assert rep["error"]["position"] > 0


def test_cone_dimension_above_the_cap_is_a_parse_error(capsys):
    argv = ["check", "monotone", "--f", "pp:2", "--m", "pp:2", "--dim", str(cones.DIM_CAP + 1)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "parse"
    assert f"[1, {cones.DIM_CAP}]" in rep["error"]["message"]
    assert err == ""


@pytest.mark.parametrize("matrix", [[], ["--matrix", "A.csv"]], ids=["cone", "membership"])
@pytest.mark.parametrize("spec", ["enl:pp:2:nan", "enl:pp:2:inf", "pdelta:inf", "pucci:1:inf"])
def test_non_finite_cone_parameter_is_a_parse_error(tmp_path, monkeypatch, capsys, spec, matrix):
    (tmp_path / "A.csv").write_text("1,0\n0,1\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cone", "--spec", spec, "--dim", "2", *matrix]) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "parse"
    assert "must be finite" in rep["error"]["message"]
    assert err == ""


def test_schema_rejects_report_without_command():
    schema.validate_report({"error": {"kind": "usage", "message": "bad flag"}})
    with pytest.raises(InternalConsistencyError, match="no command"):
        schema.validate_report({"kind": "monotone", "passed": True, "seed": 0, "dim": 2})


def test_schema_rejects_a_key_it_does_not_declare():
    report = {"command": "grid", "action": "verify", "seed": 0, "output": None,
              "verification": {"passed": True, "violations": [], "violation_count": 0,
                               "c_tol": 0.5, "points_checked": 9, "note": "n"}}
    schema.validate_report(report)
    for extra in ({**report, "extra": 1},
                  {**report, "verification": {**report["verification"], "extra": 1}},
                  {"error": {"kind": "usage", "message": "m", "extra": 1}}):
        with pytest.raises(InternalConsistencyError, match="undeclared key 'extra'"):
            schema.validate_report(extra)
    # an object declared without properties stays open
    schema.validate_report({"command": "check", "kind": "monotone", "passed": False, "seed": 0,
                            "dim": 2, "counterexample": {"extra": 1}})


def test_schema_closes_the_experiment_report(tmp_path, monkeypatch, capsys):
    # every key that RemovabilityReport.to_dict and the convergence rows
    # write is declared, and a misspelt one inside them is rejected
    _, prob = write_problem(tmp_path, grid={"shape": [9, 9], "origin": [-1, -1], "h": 0.25})
    (tmp_path / "rem.json").write_text(
        json.dumps({"kind": "removability", "problem": prob, "puncture": [[0, 0]]}))
    (tmp_path / "conv.json").write_text(
        json.dumps({"kind": "convergence", "problem": prob, "resolutions": [5, 9]}))
    monkeypatch.chdir(tmp_path)
    props = schema.load_schema()["definitions"]["experiment_report"]["properties"]
    reports = []
    for config in ("rem.json", "conv.json"):
        assert cli.main(["experiment", "--config", config, "--output-dir", "out"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        schema.validate_report(reports[-1])
    removability, convergence = reports
    assert set(removability["removability"]) == set(props["removability"]["properties"])
    assert set(removability["removability"]) == set(props["removability"]["required"])
    assert set(convergence["errors"][0]) == set(props["errors"]["items"]["properties"])
    bad_rows = [dict(convergence["errors"][0], sup_eror=0.0), *convergence["errors"][1:]]
    for bad, where in (
            (dict(removability, removability=dict(removability["removability"], sup_gaps=0.0)),
             r"\$\.removability: undeclared key 'sup_gaps'"),
            (dict(convergence, errors=bad_rows), r"\$\.errors\[0\]: undeclared key 'sup_eror'")):
        with pytest.raises(InternalConsistencyError, match=where):
            schema.validate_report(bad)
    missing = dict(removability["removability"])
    del missing["gap_threshold"]
    with pytest.raises(InternalConsistencyError, match="missing required key 'gap_threshold'"):
        schema.validate_report(dict(removability, removability=missing))


# -- check suites ------------------------------------------------------------------


def test_check_monotone_map_branch():
    code, rep = output_of(
        "check", "monotone", "--f", "mapb:2:3", "--m", "pp:2", "--dim", "4",
        "--samples", "2000", "--seed", "7",
    )
    assert code == 0 and rep["passed"]
    assert rep["seed"] == 7


def test_check_monotone_refutes_a_larger_pp_exponent():
    # 10^5 pairs of GOE matrices miss the counterexamples; with A diagonal the
    # first pass finds one at sample 4656, so the report has no family key
    code, rep = output_of("check", "monotone", "--f", "pp:1.5", "--m", "pp:1.6", "--dim", "6",
                          "--samples", "100000", "--seed", "1")
    assert code == 1 and "family" not in rep
    A = np.array(rep["counterexample"]["A"])
    assert np.array_equal(A, np.diag(np.diag(A))) and rep["margins"]["margin_sum"] < 0


@pytest.mark.parametrize("argv, code", [
    pytest.param(["kernel", "--p", "3", "--dim", "3", "--x", "1,0,0"], 0, id="kernel"),
    pytest.param(["cone", "--spec", "bogus:1", "--dim", "2"], 2, id="cone-unknown-kind"),
])
def test_console_script_calls_give_json_reports(argv, code):
    # CI makes these two calls through the installed conecalc script
    assert output_of(*argv)[0] == code


def test_check_duality_branch():
    code, rep = output_of(
        "check", "duality", "--f", "branch:1", "--dim", "3", "--samples", "2000"
    )
    assert code == 0 and rep["passed"]


def _reflect_wrong(spec, mats):
    # branch:k dualizes to eigenvalue n - k + 1 (1-based); n - k is wrong
    return np.linalg.eigvalsh(mats)[..., spec.dim - spec.k - 1]


def test_check_duality_catches_a_wrong_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(cones, "dual_fast_margins", _reflect_wrong)
    assert cli.main(["check", "duality", "--f", "branch:1", "--dim", "3", "--samples", "200"]) == 1
    rep = json.loads(capsys.readouterr().out)
    schema.validate_report(rep)
    assert not rep["passed"]
    bad = rep["counterexample"]
    assert bad["fast_margin"] != pytest.approx(bad["definitional_margin"])


def test_check_pp_subset_failure_carries_witness():
    code, rep = output_of(
        "check", "pp-subset", "--m", "pdelta:1", "--dim", "3", "--p", "2.01"
    )
    assert code == 1 and not rep["passed"]
    assert len(rep["counterexample"]["e"]) == 3


def test_check_positivity_of_catalogue_cone():
    code, rep = output_of(
        "check", "positivity", "--f", "pucci:1:2", "--dim", "3", "--samples", "500"
    )
    assert code == 0 and rep["passed"]


def _relation(f, m):
    return lambda: cones.check_relation(cones.parse_cone(f, 3), cones.parse_cone(m, 3),
                                        cones.SampleConfig(seed=1, count=1000))


# the keys a subcommand adds to its result's to_dict: its inputs, and the
# command and seed that main adds
_CONTEXT = {
    "cone": {"cone", "dim", "dual_description", "o_n_invariant", "command", "seed"},
    "check": {"kind", "dim", "samples", "f", "m", "command", "seed"},
    "grid": {"action", "output", "command", "seed"},
}


@pytest.mark.parametrize("argv, code, result, wrong_dual", [
    pytest.param(["cone", "--spec", "pdelta:0.5", "--dim", "4"], 0,
                 lambda: cones.riesz_characteristic(cones.parse_cone("pdelta:0.5", 4)), False,
                 id="cone"),
    pytest.param(["cone", "--spec", "horiz:@frame.csv", "--dim", "4", "--samples", "40"], 0,
                 lambda: cones.riesz_characteristic(cones.parse_cone("horiz:@frame.csv", 4), 40),
                 False, id="cone-sampled"),
    pytest.param(["check", "duality", "--f", "pp:2", "--dim", "3", "--samples", "300"], 0,
                 lambda: cones.check_duality(cones.pp_cone(2, 3), cones.SampleConfig(0, 300)),
                 False, id="duality-pass"),
    pytest.param(["check", "duality", "--f", "horiz:@frame.csv", "--dim", "4", "--samples", "300"],
                 0, lambda: cones.check_duality(cones.parse_cone("horiz:@frame.csv", 4),
                                                cones.SampleConfig(0, 300)),
                 False, id="duality-self-dual"),
    pytest.param(["check", "duality", "--f", "dual:branch:2", "--dim", "4", "--samples", "300"],
                 0, lambda: cones.check_duality(cones.parse_cone("dual:branch:2", 4),
                                                cones.SampleConfig(0, 300)),
                 False, id="duality-dual-of-a-mirror"),
    pytest.param(["check", "duality", "--f", "branch:1", "--dim", "3", "--samples", "200"], 1,
                 lambda: cones.check_duality(cones.branch_cone(1, 3), cones.SampleConfig(0, 200)),
                 True, id="duality-fail"),
    pytest.param(["check", "pp-subset", "--m", "pp:2", "--dim", "3", "--p", "1.5"], 0,
                 lambda: cones.pp_subset_test(cones.pp_cone(2, 3), 1.5, 10000), False,
                 id="pp-subset-pass"),
    pytest.param(["check", "pp-subset", "--m", "pdelta:1", "--dim", "3", "--p", "2.01"], 1,
                 lambda: cones.pp_subset_test(cones.pdelta_cone(1, 3), 2.01, 10000), False,
                 id="pp-subset-fail"),
    pytest.param(["check", "monotone", "--f", "pp:2", "--m", "pp:2", "--dim", "3",
                  "--samples", "1000", "--seed", "1"], 0, _relation("pp:2", "pp:2"), False,
                 id="monotone-pass"),
    pytest.param(["check", "monotone", "--f", "branch:1", "--m", "branch:3", "--dim", "3",
                  "--samples", "1000", "--seed", "1"], 1, _relation("branch:1", "branch:3"),
                 False, id="monotone-fail"),
    pytest.param(["check", "monotone", "--f", "pp:1.5", "--m", "pp:1.6", "--dim", "6",
                  "--samples", "1000", "--seed", "1"], 1,
                 lambda: cones.check_relation(cones.pp_cone(1.5, 6), cones.pp_cone(1.6, 6),
                                              cones.SampleConfig(seed=1, count=1000)),
                 False, id="monotone-fail-commuting"),
    pytest.param(["grid", "extend", "--input", "u.grid"], 0,
                 lambda: grids.canonical_extension(grids.read_grid("u.grid")), False,
                 id="grid-extend"),
])
def test_report_is_context_plus_the_result_to_dict(tmp_path, monkeypatch, capsys, argv, code,
                                                   result, wrong_dual):
    (tmp_path / "frame.csv").write_text("1,0,0,0\n0,1,0,0\n")
    u = from_function((9, 9), [-1, -1], 0.25, lambda x, y: x * x + y * y)
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4:6] = True
    write_grid(tmp_path / "u.grid", GridFunction(u.values, u.origin, u.h, mask))
    monkeypatch.chdir(tmp_path)
    if wrong_dual:
        monkeypatch.setattr(cones, "dual_fast_margins", _reflect_wrong)
    assert cli.main(argv) == code
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    schema.validate_report(rep)
    assert {k: v for k, v in rep.items() if k not in _CONTEXT[argv[0]]} == result().to_dict()


# -- kernels and polars ----------------------------------------------------------------


def test_kernel_jet_report():
    code, rep = output_of("kernel", "--p", "3", "--dim", "3", "--x", "2,0,0")
    assert code == 0
    assert rep["value"] == pytest.approx(-0.5)
    hess = np.array(rep["jet"]["hessian"])
    assert np.allclose(np.sort(np.linalg.eigvalsh(hess)), [-0.25, 0.125, 0.125])


def test_kernel_jet_far_from_the_pole(tmp_path):
    # |x| = 1e200: the norm overflowed, with a RuntimeWarning, to value -0.0
    # and gradient 0
    (tmp_path / "atom.csv").write_text("0,0,0,1\n")
    for measure in ([], ["--measure", tmp_path / "atom.csv"]):
        code, out, err = run_cli("kernel", "--p", "2.5", "--dim", "3", "--x", "1e200,0,0", *measure)
        rep = json.loads(out, parse_constant=_reject_constant)
        assert (code, err) == (0, "")
        assert rep["value"] == pytest.approx(-1e-100, rel=1e-15)
        assert rep["jet"]["gradient"] == pytest.approx([5e-301, 0.0, 0.0], rel=1e-15)


def test_potential_at_an_atom_is_a_pole_report(tmp_path):
    # the log potential of an atom is -inf there: no jet, a null value
    (tmp_path / "atom.csv").write_text("0,0,1\n")
    code, rep = output_of("kernel", "--p", "2", "--dim", "2", "--x", "0,0",
                          "--measure", tmp_path / "atom.csv")
    assert (code, rep["pole"], rep["value"]) == (0, True, None)
    assert "jet" not in rep


def test_a_zero_weight_atom_at_x_is_no_pole_report(tmp_path):
    # it adds nothing: the report is the potential of the other atom, once
    # "pole": true with a null value
    (tmp_path / "atoms.csv").write_text("0,0,0\n0.5,0,1\n")
    code, rep = output_of("kernel", "--p", "2", "--dim", "2", "--x", "0,0",
                          "--measure", tmp_path / "atoms.csv")
    assert code == 0 and "pole" not in rep
    assert rep["value"] == pytest.approx(np.log(0.5))
    assert rep["jet"]["gradient"] == pytest.approx([-2.0, 0.0])


def test_kernel_pole_is_math_failure():
    code, out, _ = run_cli("kernel", "--p", "3", "--dim", "3", "--x", "0,0,0")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "PoleError"


def test_polar_report_with_grid_and_box_dimension(tmp_path):
    pts = tmp_path / "pts.csv"
    rows = ["%r,%r" % (float(t), 0.0) for t in np.linspace(-0.5, 0.5, 41)]
    pts.write_text("\n".join(rows) + "\n")
    out_grid = tmp_path / "psi.grid"
    code, rep = output_of(
        "polar", "--points", pts, "--p", "2",
        "--grid", "shape=17,17 origin=-1,-1 h=0.125",
        "--grid-output", out_grid,
        "--box-scales", "0.25,0.125,0.0625",
    )
    assert code == 0
    assert rep["atoms"] == 41
    assert abs(rep["box_dimension"] - 1.0) <= 0.3
    assert "advisory" in rep["box_dimension_note"]
    psi = grids.read_grid(out_grid)
    assert np.isneginf(psi.values).sum() == psi.mask.sum() > 0


def test_polar_unsupported_exponent(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.0,0.0\n")
    code, out, _ = run_cli("polar", "--points", pts, "--p", "1.5")
    assert code == 1
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "UnsupportedPolarError"


# -- grid operations -----------------------------------------------------------------


def test_grid_extend_and_verify(tmp_path):
    u = from_function((9, 9), [-1, -1], 0.25, lambda x, y: x * x + y * y)
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    path = tmp_path / "u.grid"
    write_grid(path, GridFunction(u.values, u.origin, u.h, mask))
    out = tmp_path / "ext.grid"
    code, rep = output_of("grid", "extend", "--input", path, "--grid-output", out)
    assert code == 0 and rep["changed_points"] == 1
    code, rep = output_of("grid", "verify", "--input", out, "--cone", "pp:2")
    assert code == 0 and rep["verification"]["passed"]
    assert "grid scale" in rep["verification"]["note"]


def test_grid_extend_radius_cap_defaults_to_the_extension_cap(tmp_path, capsys):
    # the centre of a 13^2 masked block lies 7 cells from the unmasked ring,
    # so caps 5 and 7 extend it differently
    u = from_function((15, 15), [-1, -1], 1 / 7, lambda x, y: x * x + y * y)
    mask = np.zeros((15, 15), dtype=bool)
    mask[1:-1, 1:-1] = True
    path, out = tmp_path / "u.grid", tmp_path / "ext.grid"
    write_grid(path, GridFunction(u.values, u.origin, u.h, mask))
    results = []
    for cap in ([], ["--radius-cap", str(grids.EXTENSION_RADIUS_CAP)],
                ["--radius-cap", str(grids.EXTENSION_RADIUS_CAP + 2)]):
        assert cli.main(["grid", "extend", "--input", str(path), "--grid-output", str(out),
                         *cap]) == 0
        results.append((capsys.readouterr().out, out.read_bytes()))
    assert results[0] == results[1] != results[2]


def test_grid_verify_failure_exit_code(tmp_path):
    u = from_function((9, 9), [-1, -1], 0.25, lambda x, y: -(x * x) - y * y)
    path = tmp_path / "u.grid"
    write_grid(path, u)
    code, rep = output_of("grid", "verify", "--input", path, "--cone", "p")
    assert code == 1
    assert rep["verification"]["violation_count"] == 49


def test_grid_hessian_report(tmp_path):
    u = from_function((9, 9), [-1, -1], 0.25, lambda x, y: x * x - y * y)
    path = tmp_path / "u.grid"
    write_grid(path, u)
    code, rep = output_of("grid", "hessian", "--input", path, "--at", "4,4")
    assert code == 0
    assert np.allclose(rep["jet"]["hessian"], [[2.0, 0.0], [0.0, -2.0]])


# -- solve and experiment ---------------------------------------------------------------


def write_problem(tmp_path, **overrides):
    cfg = {
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [33, 33], "origin": [-1, -1], "h": 2 / 32},
        "boundary": {"expr": "x*x - y*y"},
    }
    cfg.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_solve_writes_solution_and_history(tmp_path):
    path, _ = write_problem(tmp_path)
    prefix = tmp_path / "sol"
    code, rep = output_of(
        "solve", "--problem", path, "--tol", "1e-10", "--output-prefix", prefix
    )
    assert code == 0 and rep["solve"]["converged"]
    sol = grids.read_grid(str(prefix) + ".grid")
    X, Y = grids.grid_coordinates(sol.shape, sol.origin, sol.h)
    assert np.max(np.abs(sol.values - (X * X - Y * Y))) <= 1e-8
    raw = Path(str(prefix) + "_convergence.csv").read_bytes()
    lines = raw.decode().splitlines()
    assert lines[0] == "iteration,residual_sup"
    assert len(lines) >= 2
    assert raw.endswith(b"\n") and b"\r" not in raw  # "\n" line ends, as in every file


def test_solve_max_iter_caps_the_policy_steps(tmp_path, capsys):
    # the 17^2 pp:1.5 annulus needs more than one policy step
    path, _ = write_problem(
        tmp_path, p=1.5, grid={"shape": [17, 17], "origin": [-1, -1], "h": 0.125},
        boundary={"expr": "(x*x+y*y)**0.25"}, hole={"min": [-0.125] * 2, "max": [0.125] * 2},
    )
    # an omitted --max-iter is the solver's step cap
    assert cli.main(["solve", "--problem", str(path)]) == 0
    default = capsys.readouterr().out
    assert cli.main(["solve", "--problem", str(path),
                     "--max-iter", str(solver.POLICY_STEP_CAP)]) == 0
    assert capsys.readouterr().out == default
    assert cli.main(["solve", "--problem", str(path), "--max-iter", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["solve"]["iterations"] == 1
    assert rep["solve"]["converged"] is False


def test_solve_that_settles_above_tol_refines_to_it_and_exits_0(tmp_path, capsys):
    # the 257^2 trace-form annulus: its one factored solve meets the 64-eps
    # backward error at residual ~1e-9, and refines on to tol
    h = 2 / 256
    path, _ = write_problem(
        tmp_path, grid={"shape": [257, 257], "origin": [-1, -1], "h": h},
        boundary={"expr": "(x*x+y*y)**0.25"}, hole={"min": [-0.125] * 2, "max": [0.125] * 2},
    )
    assert cli.main(["solve", "--problem", str(path), "--tol", "1e-10"]) == 0
    rep = json.loads(capsys.readouterr().out)
    schema.validate_report(rep)
    assert rep["solve"]["converged"] is True
    assert rep["solve"]["residual_sup"] <= 1e-10


def test_experiment_removability_pass(tmp_path):
    _, prob = write_problem(tmp_path)
    cfg = {
        "kind": "removability",
        "problem": prob,
        "puncture": [[0.0, 0.0]],
        "tol": 1e-10,
        "pass_criteria": {"sup_gap": 1e-6},
    }
    cfile = tmp_path / "exp.json"
    cfile.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    code, rep = output_of("experiment", "--config", cfile, "--output-dir", outdir)
    assert code == 0 and rep["passed"]
    assert rep["removability"]["sup_gap"] <= 1e-6
    assert (outdir / "report.json").exists()
    assert (outdir / "solution_full.grid").exists()
    assert (outdir / "convergence_punctured.csv").exists()


def test_experiment_rejects_low_polar_exponent(tmp_path):
    _, prob = write_problem(tmp_path, p=1.5)
    cfg = {"kind": "removability", "problem": prob, "puncture": [[0.0, 0.0]]}
    cfile = tmp_path / "exp.json"
    cfile.write_text(json.dumps(cfg))
    code, out, _ = run_cli("experiment", "--config", cfile, "--output-dir", tmp_path / "o")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "UnsupportedPolarError"


def test_experiment_rejects_uncertified_polar_exponent(tmp_path):
    # pp:2.5 + pp:3 does not lie in pp:2.5: a usage error, before any solve
    prob = {"operator": "pp", "p": 2.5, "boundary": {"expr": "x*x + y*y - z*z"},
            "grid": {"shape": [9, 9, 9], "origin": [-1, -1, -1], "h": 0.25}}
    cfile = tmp_path / "exp.json"
    cfile.write_text(json.dumps({"kind": "removability", "problem": prob,
                                 "puncture": [[0.0, 0.0, 0.0]], "polar_p": 3}))
    outdir = tmp_path / "o"
    code, out, err = run_cli("experiment", "--config", cfile, "--output-dir", outdir)
    assert code == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["kind"] == "DomainError"
    assert error["message"].startswith("pp:2.5 + pp:3 is not in pp:2.5; ")
    assert not (outdir / "solution_full.grid").exists()


@pytest.mark.parametrize("overrides, polar_p, code, message", [
    ({"operator": "branch", "k": 1}, None, 2, "branch operators need an explicit polar exponent"),
    ({}, 1.5, 1, "polar functions need p >= 2"),
    ({}, math.nan, 2, "p=nan out of range [1, 2]"),
    ({}, math.inf, 2, "p=inf out of range [1, 2]"),
    ({"operator": "pp", "p": 2, "grid": {"shape": [9, 9, 9], "origin": [-1, -1, -1], "h": 0.25}},
     3.5, 2, "p=3.5 out of range [1, 3]"),
    ({"operator": "branch", "k": 2}, 2, 2, "branch:2 + pp:2 is not in branch:2; "),
], ids=["branch-no-polar", "below-2", "nan", "inf", "above-dim", "branch-rule"])
def test_experiment_polar_exponent_exit_codes(tmp_path, monkeypatch, capsys, overrides, polar_p,
                                              code, message):
    # every refusal comes before any solve
    _, prob = write_problem(tmp_path, grid={"shape": [9, 9], "origin": [-1, -1], "h": 0.25})
    prob.update(overrides)
    if prob["operator"] == "branch":
        del prob["p"]
    cfg = {"kind": "removability", "problem": prob, "puncture": [[0] * len(prob["grid"]["shape"])]}
    if polar_p is not None:
        cfg["polar_p"] = polar_p
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["experiment", "--config", "exp.json", "--output-dir", "o"]) == code
    assert json.loads(capsys.readouterr().out)["error"]["message"].startswith(message)
    assert not (tmp_path / "o" / "solution_full.grid").exists()


def test_experiment_output_does_not_depend_on_the_seed(tmp_path):
    # the experiment draws nothing: only the seed echo moves
    _, prob = write_problem(tmp_path, grid={"shape": [17, 17], "origin": [-1, -1], "h": 0.125})
    (tmp_path / "exp.json").write_text(
        json.dumps({"kind": "removability", "problem": prob, "puncture": [[0.25, 0]]}))
    outdir = tmp_path / "out"
    runs = []
    for seed in (0, 99):
        code, out, err = run_cli("experiment", "--config", tmp_path / "exp.json",
                                 "--output-dir", outdir, "--seed", seed)
        assert code == 0 and err == ""
        files = {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}
        assert out.encode() == files["report.json"]
        seed_line = f',\n  "seed": {seed}\n}}\n'.encode()
        assert files["report.json"].endswith(seed_line)
        files["report.json"] = files["report.json"][:-len(seed_line)]
        runs.append(files)
    assert len(runs[0]) == 5 and runs[1] == runs[0]


def test_experiment_convergence_curves(tmp_path):
    cfg = {
        "kind": "convergence",
        "problem": {
            "operator": "pp",
            "p": 1.5,
            "grid": {"shape": [17, 17], "origin": [-1, -1], "h": 2 / 16},
            "boundary": {"expr": "(x*x+y*y)**0.25"},
            "hole": {"min": [-0.25, -0.25], "max": [0.25, 0.25]},
        },
        "resolutions": [17, 33, 65],
        "tol": 1e-10,
        "pass_criteria": {"monotone_decreasing": True, "max_rel_error": 0.15},
    }
    cfile = tmp_path / "conv.json"
    cfile.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    code, rep = output_of("experiment", "--config", cfile, "--output-dir", outdir)
    assert code == 0 and rep["passed"]
    raw = (outdir / "errors.csv").read_bytes()
    lines = raw.decode().splitlines()
    assert lines[0] == "h,sup_error,rel_error"
    assert len(lines) == 4
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_stencil_reach_is_read_from_the_problem_by_solve_and_experiment(tmp_path, monkeypatch, capsys):
    # 3-D pp:2 on (x^2 + y^2 + z^2)^(1/4): reach 1 takes 5 linear solves,
    # reach 2 takes 7 and the default reach 3 takes 8 (2-D pp:2 solves
    # alike at every reach)
    path, prob = write_problem(
        tmp_path, grid={"shape": [9, 9, 9], "origin": [-1, -1, -1], "h": 0.25},
        boundary={"expr": "(x*x+y*y+z*z)**0.25"}, stencil_reach=1,
    )
    (tmp_path / "exp.json").write_text(json.dumps(
        {"kind": "removability", "problem": prob, "puncture": [[0.25, 0.25, 0.25]]}))
    monkeypatch.chdir(tmp_path)
    # the experiment solves at its default tol, 1e-9
    assert cli.main(["solve", "--problem", str(path), "--tol", "1e-9",
                     "--output-prefix", "sol"]) == 0
    solved = json.loads(capsys.readouterr().out)["solve"]
    assert cli.main(["experiment", "--config", "exp.json", "--output-dir", "out"]) == 0
    assert json.loads(capsys.readouterr().out)["removability"]["full"] == solved
    assert solved["iterations"] == 5
    assert Path("sol.grid").read_bytes() == Path("out/solution_full.grid").read_bytes()


def test_malformed_config_is_usage_error(tmp_path):
    cfile = tmp_path / "bad.json"
    cfile.write_text("{not json")
    code, out, _ = run_cli("experiment", "--config", cfile, "--output-dir", tmp_path)
    assert code == 2


# -- contract-level behavior ---------------------------------------------------------


_GOOD_PROBLEM = {
    "operator": "pp",
    "p": 2,
    "grid": {"shape": [9, 9], "origin": [-1, -1], "h": 0.25},
    "boundary": {"expr": "x*x"},
}

# boundary.grid_file values that are not paths: open() took an integer as a
# file descriptor, so 0 read stdin and 1 closed stdout
_GRID_FILES = {"0": 0, "1": 1, "null": None, "1.5": 1.5}

_BAD_INPUT_FILES = {
    "pts2.csv": "0.1,0.2\n0.3,0.4\n",
    "atoms2.csv": "0.1,0.2,1\n0.3,0.4,1\n",
    "badcell.csv": "0,0,1\n0,abc,1\n",
    "list.json": "[1, 2]",
    "pabc.json": json.dumps(dict(_GOOD_PROBLEM, p="abc")),
    "origin.json": json.dumps(dict(_GOOD_PROBLEM, grid={"shape": [9, 9], "origin": [-1], "h": 0.25})),
    "hole.json": json.dumps(dict(_GOOD_PROBLEM, hole={"min": [0, 0]})),
    "puncture.json": json.dumps(dict(_GOOD_PROBLEM, puncture=5)),
    "noproblem.json": json.dumps({"kind": "removability", "puncture": [[0, 0]]}),
    "nopuncture.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM}),
    "noresolutions.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM}),
    "notobject.json": "[1]",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "reachabc.json": json.dumps(dict(_GOOD_PROBLEM, stencil_reach="abc")),
    "reach25.json": json.dumps(dict(_GOOD_PROBLEM, stencil_reach=2.5)),
    "reach2000.json": json.dumps(dict(_GOOD_PROBLEM, stencil_reach=2000)),
    "expreach.json": json.dumps({"kind": "removability", "puncture": [[0, 0]],
                                 "problem": dict(_GOOD_PROBLEM, stencil_reach=2.5)}),
    "expreachtop.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM,
                                    "resolutions": [9], "stencil_reach": 1}),
    "expotherfield.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM,
                                      "resolutions": [9], "puncture": [[0, 0]]}),
    "expothercrit.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                                     "puncture": [[0, 0]],
                                     "pass_criteria": {"max_rel_error": -1, "sup_gap": -1}}),
    "expmisspelt.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM,
                                    "resolutions": [9], "pass_criteria": {"max_rel_err": -1}}),
    "expeps.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                               "puncture": [[0, 0]], "eps": [0.01]}),
    "expgap.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                               "puncture": [[0, 0]], "gap_constant": 5}),
    "expsolve.json": json.dumps({"kind": "solve", "problem": _GOOD_PROBLEM}),
    # h and tol are finite, 5 * (h + tol) is not
    "expgapinf.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                                  "puncture": [[0, 0]], "tol": 1e308}),
    "monotoneno.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM,
                                   "resolutions": [9],
                                   "pass_criteria": {"monotone_decreasing": "no"}}),
    "punctnan.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                                 "puncture": [[float("nan"), 0]]}),
    "punctinf.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                                 "puncture": [[0, float("-inf")]]}),
    "punctfar.json": json.dumps(dict(_GOOD_PROBLEM, puncture=[[1e308, 0]])),
    "exppunctfar.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                                    "puncture": [[0, 0], [1e308, 0]]}),
    "misspelled.json": json.dumps(dict(_GOOD_PROBLEM, stencil_rech=1)),
    "convnogrid.json": json.dumps(
        {"kind": "convergence", "problem": {"operator": "pp"}, "resolutions": [9]}
    ),
    "resolutions.json": json.dumps(
        {"kind": "convergence", "problem": _GOOD_PROBLEM, "resolutions": ["a", 9]}
    ),
    "tol.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM, "resolutions": [9],
                            "tol": "x"}),
    "polarp.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                               "puncture": [[0, 0]], "polar_p": "x"}),
    "bound.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                              "puncture": [[0, 0]], "pass_criteria": {"sup_gap": "x"}}),
    "punctpoint.json": json.dumps(
        {"kind": "removability", "problem": _GOOD_PROBLEM, "puncture": [["a", 0]]}
    ),
    "branchfrac.json": json.dumps(dict(_GOOD_PROBLEM, operator="branch", k=1.7)),
    "hinf.grid": "grid n=2 shape=2,2 origin=0,0 h=1e400\n0,0\n0,0\n",
    "originnan.grid": "grid n=2 shape=2,2 origin=nan,0 h=0.5\n0,0\n0,0\n",
    "mask2.grid": "grid n=2 shape=2,2 origin=0,0 h=0.5\nmask\n0,2\n0,0\n0,0\n0,0\n",
    "extra.grid": "grid n=2 shape=2,2 origin=0,0 h=0.5\n0,0\n0,0\n1,1\n",
    "bogus.grid": "grid n=2 shape=2,2 origin=0,0 h=0.5 bogus=1\n0,0\n0,0\n",
    # the origin and the spacing are finite, the far corner 1.7e308 + 1e308 is not
    "farcorner.grid": "grid n=2 shape=2,2 origin=1.7e308,0 h=1e308\n0,0\n0,0\n",
    # third differences and second differences of +-5e307 overflow
    "overflow.grid": "grid n=2 shape=6,6 origin=0,0 h=0.5\n"
    + "5e307,-5e307,5e307,-5e307,5e307,-5e307\n-5e307,5e307,-5e307,5e307,-5e307,5e307\n" * 3,
    # -1e308 + 1 * -1e308 overflows to -inf, which a grid would take as its bottom
    "overflowdown.grid": "grid n=2 shape=2,2 origin=0,0 h=0.5\n-1e308,-1e308\n-1e308,-1e308\n",
    "good.json": json.dumps(_GOOD_PROBLEM),
    # 1/h^2 overflows to inf, and 1/h^2 underflows to 0
    "tinyh.json": json.dumps(dict(_GOOD_PROBLEM, p=1.5,
                                  grid={"shape": [9, 9], "origin": [-1, -1], "h": 1e-160})),
    "hugeh.json": json.dumps(dict(_GOOD_PROBLEM, p=1.5, boundary={"expr": "sin(x/1e150)"},
                                  grid={"shape": [9, 9], "origin": [0, 0], "h": 1e200})),
    "exptinyh.json": json.dumps({"kind": "convergence", "resolutions": [9], "problem": dict(
        _GOOD_PROBLEM, grid={"shape": [9, 9], "origin": [-1, -1], "h": 1e-160})}),
    "removetinyh.json": json.dumps({"kind": "removability", "puncture": [[0, 0]], "problem": dict(
        _GOOD_PROBLEM, grid={"shape": [9, 9], "origin": [-1, -1], "h": 1e-160})}),
    "convhugeh.json": json.dumps({"kind": "convergence", "resolutions": [9], "problem": dict(
        _GOOD_PROBLEM, boundary={"expr": "sin(x/1e150)"},
        grid={"shape": [9, 9], "origin": [0, 0], "h": 1e200})}),
    "tinyh.grid": "grid n=2 shape=5,5 origin=0,0 h=1e-200\n" + "0,1,4,9,16\n" * 5,
    "hugedata.json": json.dumps({"operator": "pp", "p": 1.5, "boundary": {"expr": "1e308*sin(9*x)"},
                                 "grid": {"shape": [9, 9], "origin": [-1, -1], "h": 0.25}}),
    "tinyh9.grid": "grid n=2 shape=9,9 origin=0,0 h=1e-200\n" + "0,1,4,9,16,25,36,49,64\n" * 9,
    # h^2 is subnormal, not 0, and 1/h^2 overflows
    "subnormalh.grid": "grid n=2 shape=9,9 origin=0,0 h=1e-158\n" + "0,1,4,9,16,25,36,49,64\n" * 9,
    "tolneg.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM, "resolutions": [9],
                               "tol": -1}),
    "empty.csv": "",
    "comment.csv": "# no atoms\n",
    "convzero.json": json.dumps(
        {"kind": "convergence", "problem": dict(_GOOD_PROBLEM, boundary={"expr": "0*x"}),
         "resolutions": [9]}
    ),
    # lattices of more points than grids.POINT_CAP, one of them just above it
    "hugeshape.json": json.dumps(dict(_GOOD_PROBLEM, grid={"shape": [5, 10**12],
                                                           "origin": [-1, -1], "h": 0.25})),
    "capshape.json": json.dumps(dict(_GOOD_PROBLEM, grid={"shape": [5, grids.POINT_CAP // 5 + 1],
                                                          "origin": [-1, -1], "h": 0.25})),
    "capheader.grid": f"grid n=2 shape={grids.POINT_CAP + 1},1 origin=0,0 h=0.5\n",
    "capconvergence.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM,
                                       "resolutions": [9, math.isqrt(grids.POINT_CAP) + 1]}),
    # [-1, 1] x [-1, 3]: refined as a square of the first axis's span, it
    # would solve [-1, 1]^2 and pass
    "convnoncubic.json": json.dumps({"kind": "convergence", "resolutions": [9, 17], "problem": dict(
        _GOOD_PROBLEM, grid={"shape": [9, 17], "origin": [-1, -1], "h": 0.25})}),
    # a NaN passed the orthonormality test; an inf also warned from the Gram matrix
    "framenan.csv": "1,0,0,0\n0,nan,0,0\n",
    "frameinf.csv": "1,0,0,0\n0,inf,0,0\n",
    "exppunctbool.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                                     "puncture": [[True, 0]]}),
    **{f"gridfile{name}.json": json.dumps(dict(_GOOD_PROBLEM, boundary={"grid_file": value}))
       for name, value in _GRID_FILES.items()},
}

# the keys an experiment config may hold, problem among them
_REMOVABILITY = " (its keys: kind, problem, puncture, pass_criteria, tol, polar_p)"
_CONVERGENCE = " (its keys: kind, problem, resolutions, pass_criteria, tol)"
_FAR_PUNCTURE = ("puncture point [1e+308, 0.0] is finite, but its lattice index (x - origin) / h "
                 "overflows")
# input file or argument -> the message its error report carries
_INPUT_MESSAGES = {
    "noproblem.json": "removability experiment config is missing key 'problem'",
    "expreach.json": "stencil reach must be an integer in [1, 5], got 2.5",
    "expreachtop.json": "convergence experiment config has no key 'stencil_reach'" + _CONVERGENCE,
    "expotherfield.json": "convergence experiment config has no key 'puncture'" + _CONVERGENCE,
    "expothercrit.json": "removability experiment pass_criteria has no key 'max_rel_error' "
                         "(its keys: sup_gap, masked_gap)",
    "expmisspelt.json": "convergence experiment pass_criteria has no key 'max_rel_err' "
                        "(its keys: monotone_decreasing, max_rel_error)",
    "expeps.json": "removability experiment config has no key 'eps'" + _REMOVABILITY,
    "expgap.json": "removability experiment config has no key 'gap_constant'" + _REMOVABILITY,
    "expsolve.json": "experiment kind must be removability/convergence, got 'solve'",
    "expgapinf.json": "gap threshold 5 * (h + tol) must be finite, got inf",
    "tol.json": "experiment field 'tol' must be a number, got 'x'",
    "bound.json": "experiment field 'sup_gap' must be a number, got 'x'",
    "tolneg.json": "solve tolerance must be finite and >= 0, got -1",
    "exptinyh.json": "grid spacing 1e-160 is out of range: 1/(h |v|)^2 overflows or is 0",
    "punctfar.json": _FAR_PUNCTURE,
    "exppunctfar.json": _FAR_PUNCTURE,
    "exppunctbool.json": "experiment field 'puncture' must be a list of points, each a list of "
                         "numbers, got [[True, 0]]",
    **{f"gridfile{name}.json": f"a file path must be a string, got {value!r}"
       for name, value in _GRID_FILES.items()},
    "horiz:@framenan.csv": "frame vectors [[1.0, 0.0, 0.0, 0.0], [0.0, nan, 0.0, 0.0]] must be finite",
    "horiz:@frameinf.csv": "frame vectors [[1.0, 0.0, 0.0, 0.0], [0.0, inf, 0.0, 0.0]] must be finite",
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["grid", "extend", "--input", "missing.grid"], id="grid-missing"),
        pytest.param(["cone", "--spec", "pp:2", "--dim", "3", "--matrix", "missing.csv"],
                     id="matrix-missing"),
        pytest.param(["polar", "--points", "missing.csv", "--p", "2"], id="points-missing"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x", "1,0",
                      "--measure", "missing.csv"], id="measure-missing"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x", "1,0",
                      "--measure", "badcell.csv"], id="measure-non-numeric"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x", "1,0,0",
                      "--measure", "atoms2.csv"], id="measure-point-dimension"),
        pytest.param(["grid", "hessian", "--input", "u.grid", "--at", "a,b"], id="hessian-at"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--box-scales", "x"],
                     id="box-scales"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=5,5,5 origin=0,0,0 h=0.1", "--grid-output", "x.grid"],
                     id="polar-grid-dimension"),
        pytest.param(["solve", "--problem", "list.json"], id="problem-list"),
        pytest.param(["solve", "--problem", "pabc.json"], id="problem-p-text"),
        pytest.param(["solve", "--problem", "deep.json"], id="problem-nested-too-deep"),
        pytest.param(["solve", "--problem", "origin.json"], id="problem-origin-dimension"),
        pytest.param(["solve", "--problem", "hole.json"], id="problem-hole-no-max"),
        pytest.param(["solve", "--problem", "puncture.json"], id="problem-puncture-not-list"),
        pytest.param(["experiment", "--config", "noproblem.json", "--output-dir", "out"],
                     id="experiment-no-problem"),
        pytest.param(["experiment", "--config", "nopuncture.json", "--output-dir", "out"],
                     id="experiment-no-puncture"),
        pytest.param(["experiment", "--config", "noresolutions.json", "--output-dir", "out"],
                     id="experiment-no-resolutions"),
        pytest.param(["experiment", "--config", "notobject.json", "--output-dir", "out"],
                     id="experiment-not-object"),
        pytest.param(["solve", "--problem", "reachabc.json"], id="stencil-reach-text"),
        pytest.param(["solve", "--problem", "reach25.json"], id="stencil-reach-float"),
        # refused before any direction is enumerated: reach 2000 took 27 s
        # and ended in a MemoryError traceback
        pytest.param(["solve", "--problem", "reach2000.json"], id="stencil-reach-above-cap"),
        pytest.param(["experiment", "--config", "expreach.json", "--output-dir", "out"],
                     id="experiment-stencil-reach"),
        pytest.param(["experiment", "--config", "expreachtop.json", "--output-dir", "out"],
                     id="experiment-top-level-stencil-reach"),
        pytest.param(["experiment", "--config", "expotherfield.json", "--output-dir", "out"],
                     id="experiment-field-of-another-kind"),
        pytest.param(["experiment", "--config", "expothercrit.json", "--output-dir", "out"],
                     id="experiment-criterion-of-another-kind"),
        pytest.param(["experiment", "--config", "expmisspelt.json", "--output-dir", "out"],
                     id="experiment-misspelt-criterion"),
        pytest.param(["experiment", "--config", "expeps.json", "--output-dir", "out"],
                     id="experiment-retired-eps"),
        pytest.param(["experiment", "--config", "expgap.json", "--output-dir", "out"],
                     id="experiment-retired-gap-constant"),
        pytest.param(["experiment", "--config", "expsolve.json", "--output-dir", "out"],
                     id="experiment-retired-solve-kind"),
        pytest.param(["experiment", "--config", "expgapinf.json", "--output-dir", "out"],
                     id="experiment-gap-threshold-overflows"),
        pytest.param(["experiment", "--config", "monotoneno.json", "--output-dir", "out"],
                     id="experiment-monotone-not-bool"),
        pytest.param(["experiment", "--config", "punctnan.json", "--output-dir", "out"],
                     id="experiment-puncture-nan"),
        pytest.param(["experiment", "--config", "punctinf.json", "--output-dir", "out"],
                     id="experiment-puncture-inf"),
        pytest.param(["solve", "--problem", "punctfar.json"], id="problem-puncture-index-overflows"),
        pytest.param(["experiment", "--config", "exppunctfar.json", "--output-dir", "out"],
                     id="experiment-puncture-index-overflows"),
        pytest.param(["experiment", "--config", "convnogrid.json", "--output-dir", "out"],
                     id="convergence-no-grid"),
        pytest.param(["experiment", "--config", "resolutions.json", "--output-dir", "out"],
                     id="resolutions-not-integers"),
        pytest.param(["experiment", "--config", "tol.json", "--output-dir", "out"],
                     id="experiment-tol-text"),
        pytest.param(["experiment", "--config", "polarp.json", "--output-dir", "out"],
                     id="experiment-polar-p-text"),
        pytest.param(["experiment", "--config", "bound.json", "--output-dir", "out"],
                     id="experiment-pass-bound-text"),
        pytest.param(["experiment", "--config", "punctpoint.json", "--output-dir", "out"],
                     id="experiment-puncture-text"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=-1 h=0.25", "--grid-output", "x.grid"],
                     id="polar-grid-origin-dimension"),
        pytest.param(["experiment", "--config", "convzero.json", "--output-dir", "out"],
                     id="convergence-zero-data"),
        pytest.param(["experiment", "--config", "convnoncubic.json", "--output-dir", "out"],
                     id="convergence-non-cubic-grid"),
        pytest.param(["solve", "--problem", "branchfrac.json"], id="problem-branch-fraction"),
        pytest.param(["cone", "--spec", "pp:1.5", "--dim", "3", "--samples", "0"],
                     id="cone-samples-zero"),
        pytest.param(["cone", "--spec", "pp:1.5", "--dim", "3", "--samples", "100000001"],
                     id="cone-samples-above-cap"),
        pytest.param(["solve", "--problem", "good.json", "--tol", "-1"], id="solve-tol-negative"),
        pytest.param(["solve", "--problem", "good.json", "--max-iter", "0"], id="solve-max-iter-0"),
        pytest.param(["solve", "--problem", "good.json", "--max-iter=-3"],
                     id="solve-max-iter-negative"),
        pytest.param(["experiment", "--config", "tolneg.json", "--output-dir", "out"],
                     id="experiment-tol-negative"),
        # cone parameters of a magnitude whose margins overflow
        pytest.param(["check", "monotone", "--f", "pdelta:1e308", "--m", "pp:2", "--dim", "3",
                      "--samples", "200", "--seed", "1"],
                     id="magnitude-overflows"),
        pytest.param(["check", "monotone", "--f", "enl:pp:2:1e308", "--m", "branch:1", "--dim", "3",
                      "--samples", "200", "--seed", "1"],
                     id="magnitude-inf"),
        pytest.param(["check", "duality", "--f", "dual:pdelta:1e308", "--dim", "3",
                      "--samples", "200", "--seed", "1"],
                     id="duality-margins-overflow"),
        pytest.param(["check", "duality", "--f", "pdelta:0.5", "--dim", "3", "--samples", "200"],
                     id="duality-without-closed-form"),
        pytest.param(["check", "monotone", "--f", "mapb:3:1", "--m", "pp:3", "--dim", "6",
                      "--samples", str(cones.SAMPLE_CAP + 1)], id="samples-above-cap"),
        pytest.param(["check", "duality", "--f", "pp:2", "--dim", "3", "--samples", str(10**12)],
                     id="duality-samples-above-cap"),
        pytest.param(["solve", "--problem", "hugeshape.json"], id="problem-shape-huge"),
        pytest.param(["solve", "--problem", "capshape.json"], id="problem-shape-above-cap"),
        pytest.param(["grid", "extend", "--input", "capheader.grid", "--grid-output", "x.grid"],
                     id="grid-header-above-cap"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      f"shape={grids.POINT_CAP + 1},1 origin=0,0 h=0.25", "--grid-output",
                      "x.grid"], id="polar-grid-above-cap"),
        pytest.param(["experiment", "--config", "capconvergence.json", "--output-dir", "out"],
                     id="convergence-resolution-above-cap"),
        pytest.param(["grid", "extend", "--input", "hinf.grid", "--grid-output", "x.grid"],
                     id="grid-h-inf"),
        pytest.param(["grid", "extend", "--input", "originnan.grid", "--grid-output", "x.grid"],
                     id="grid-origin-nan"),
        pytest.param(["grid", "extend", "--input", "mask2.grid", "--grid-output", "x.grid"],
                     id="grid-mask-token"),
        pytest.param(["grid", "extend", "--input", "extra.grid", "--grid-output", "x.grid"],
                     id="grid-rows-past-shape"),
        pytest.param(["grid", "extend", "--input", "bogus.grid", "--grid-output", "x.grid"],
                     id="grid-header-unknown-token"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=5,5 origin=0,0 h=0.1 h=0.2", "--grid-output", "x.grid"],
                     id="polar-grid-repeated-h"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=-1,-1 h=1e400", "--grid-output", "x.grid"],
                     id="polar-grid-h-inf"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=nan,0 h=0.25", "--grid-output", "x.grid"],
                     id="polar-grid-origin-nan"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=1e308,1e308 h=1e307", "--grid-output", "x.grid"],
                     id="polar-grid-far-corner-overflows"),
        pytest.param(["grid", "extend", "--input", "farcorner.grid", "--grid-output", "x.grid"],
                     id="grid-far-corner-overflows"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=1.5e308,1.5e308 h=1e300", "--grid-output", "x.grid"],
                     id="polar-grid-distance-overflows"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x=1.5e308,1.5e308"],
                     id="kernel-log-distance-overflows"),
        pytest.param(["kernel", "--p", "3", "--dim", "3", "--x=1.5e308,1.5e308,0"],
                     id="kernel-distance-overflows"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x=0.5,0.5",
                      "--measure", "empty.csv"], id="measure-empty"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x=0.5,0.5",
                      "--measure", "comment.csv"], id="measure-comment-only"),
        pytest.param(["grid", "verify", "--input", "overflow.grid", "--cone", "pp:2"],
                     id="grid-verify-overflow"),
        pytest.param(["grid", "extend", "--input", "u.grid", "--radius-cap", "0",
                      "--grid-output", "x.grid"], id="grid-radius-cap-0"),
        pytest.param(["grid", "extend", "--input", "u.grid", "--radius-cap=-2",
                      "--grid-output", "x.grid"], id="grid-radius-cap-negative"),
        pytest.param(["grid", "perturb", "--input", "u.grid", "--psi", "u.grid", "--eps", "nan",
                      "--grid-output", "x.grid"], id="grid-perturb-eps-nan"),
        pytest.param(["grid", "perturb", "--input", "overflow.grid", "--psi", "overflow.grid",
                      "--eps", "3", "--grid-output", "x.grid"], id="grid-perturb-overflow"),
        pytest.param(["grid", "perturb", "--input", "overflowdown.grid", "--psi",
                      "overflowdown.grid", "--eps", "1", "--grid-output", "x.grid"],
                     id="grid-perturb-overflow-down"),
        pytest.param(["cone", "--spec", "dual:enl:branch:3:0.2", "--dim", "3"],
                     id="cone-without-positivity"),
        pytest.param(["solve", "--problem", "tinyh.json"], id="solve-coefficients-overflow"),
        pytest.param(["solve", "--problem", "hugeh.json"], id="solve-coefficients-underflow"),
        pytest.param(["experiment", "--config", "exptinyh.json", "--output-dir", "out"],
                     id="experiment-solve-coefficients-overflow"),
        pytest.param(["experiment", "--config", "removetinyh.json", "--output-dir", "out"],
                     id="experiment-removability-coefficients-overflow"),
        pytest.param(["experiment", "--config", "convhugeh.json", "--output-dir", "out"],
                     id="experiment-convergence-coefficients-underflow"),
        pytest.param(["grid", "hessian", "--input", "tinyh.grid", "--at", "2,2"],
                     id="grid-hessian-spacing-underflows"),
        pytest.param(["solve", "--problem", "hugedata.json"], id="solve-data-overflow"),
        pytest.param(["grid", "hessian", "--input", "tinyh9.grid", "--at", "4,4"],
                     id="grid-hessian-spacing-underflows-9"),
        pytest.param(["grid", "verify", "--input", "tinyh9.grid", "--cone", "pp:1.5"],
                     id="grid-verify-spacing-underflows-9"),
        pytest.param(["grid", "hessian", "--input", "subnormalh.grid", "--at", "4,4"],
                     id="grid-hessian-inverse-square-spacing-overflows"),
        pytest.param(["grid", "verify", "--input", "subnormalh.grid", "--cone", "pp:1.5"],
                     id="grid-verify-inverse-square-spacing-overflows"),
        pytest.param(["kernel", "--p", "3", "--dim", "3", "--x", "inf,0,0"], id="kernel-x-inf"),
        pytest.param(["kernel", "--p", "3", "--dim", "3", "--x", "nan,0,0"], id="kernel-x-nan"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x=inf,0", "--measure", "atoms2.csv"],
                     id="kernel-measure-x-inf"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--box-scales", "0.1,0.1"],
                     id="box-scales-repeated"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--box-scales", "0.1,1e-300"],
                     id="box-scales-index-overflow"),
        pytest.param(["cone", "--spec", "horiz:@framenan.csv", "--dim", "4"], id="cone-frame-nan"),
        pytest.param(["cone", "--spec", "horiz:@frameinf.csv", "--dim", "4"], id="cone-frame-inf"),
        pytest.param(["experiment", "--config", "exppunctbool.json", "--output-dir", "out"],
                     id="experiment-puncture-bool"),
    ],
)
def test_bad_input_is_typed_usage_error(tmp_path, monkeypatch, capsys, argv):
    # in-process: no subprocess start-up per case
    write_grid(tmp_path / "u.grid", from_function((7, 7), [0, 0], 0.1, lambda x, y: x * x))
    for name, text in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["command"] == argv[0]
    # a frame file is read as part of its cone descriptor
    frames = any(arg.startswith("horiz:@") for arg in argv)
    assert rep["error"]["kind"] in (("parse",) if frames else ("DomainError", "DimensionMismatchError"))
    for name, h in (("tinyh.grid", "1e-200"), ("tinyh9.grid", "1e-200"), ("subnormalh.grid", "1e-158")):
        if name in argv:
            # the second and third differences divide by 0 or overflow: the spacing is at fault
            assert rep["error"]["message"].startswith(f"grid spacing {h} is out of range")
    for x, point in (("inf,0,0", "[inf, 0.0, 0.0]"), ("nan,0,0", "[nan, 0.0, 0.0]"),
                     ("--x=inf,0", "[inf, 0.0]")):
        if x in argv:
            # the point the user gave is at fault, not a matrix built from it
            assert rep["error"]["message"] == f"point x = {point} must be finite"
    for where, message in (
            ("farcorner.grid", "a lattice of shape [2, 2], origin [1.7e+308, 0.0] and spacing "
                               "1e+308 overflows float64: its far corner is [inf, 1e+308]"),
            ("shape=9,9 origin=1e308,1e308 h=1e307", "a lattice of shape [9, 9], origin "
             "[1e+308, 1e+308] and spacing 1e+307 overflows float64: its far corner is [inf, inf]"),
            ("shape=9,9 origin=1.5e308,1.5e308 h=1e300", "the distance from point x = "
             "[1.5e+308, 1.5e+308] to the atom at [0.1, 0.2] overflows float64"),
            ("--x=1.5e308,1.5e308", "the distance from point x = [1.5e+308, 1.5e+308] to the "
                                    "atom at [0.0, 0.0] overflows float64"),
            ("--x=1.5e308,1.5e308,0", "the distance from point x = [1.5e+308, 1.5e+308, 0.0] "
                                      "to the atom at [0.0, 0.0, 0.0] overflows float64")):
        if where in argv:
            # the lattice or the point is at fault, not the values computed from it
            assert rep["error"]["message"] == message
    if "convnoncubic.json" in argv:
        assert rep["error"]["message"].endswith("got shape [9, 17]")
    for name, message in _INPUT_MESSAGES.items():
        if name in argv:
            assert rep["error"]["message"] == message
    assert err == ""
    assert not (tmp_path / "x.grid").exists()


def test_an_overflowing_cone_parameter_is_named_in_short(capsys):
    # 1e308 prints as 1e+308, not as its 309 integer digits
    assert cli.main(["check", "monotone", "--f", "pdelta:1e308", "--m", "pp:2", "--dim", "3"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "DomainError", "message": "margins of pdelta:1e+308 overflow"}
    assert len(error["message"]) < 200


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["kernel", "--p", "3", "--dim", "3", "--x=1,0,0", "--output", "missing/r.json"],
                     id="output"),
        pytest.param(["grid", "extend", "--input", "u.grid", "--grid-output", "missing/x.grid"],
                     id="grid-output"),
        pytest.param(["solve", "--problem", "good.json", "--output-prefix", "missing/a"],
                     id="output-prefix"),
        pytest.param(["experiment", "--config", "exp.json", "--output-dir", "good.json/out"],
                     id="output-dir"),
        pytest.param(["experiment", "--config", "exp.json", "--output-dir", "taken"],
                     id="output-dir-report"),
    ],
)
def test_unwritable_output_is_typed_usage_error(tmp_path, monkeypatch, capsys, argv):
    # each output path lies in a directory that does not exist or is a
    # file, or is itself a directory (taken/report.json)
    (tmp_path / "taken" / "report.json").mkdir(parents=True)
    write_grid(tmp_path / "u.grid", from_function((7, 7), [0, 0], 0.1, lambda x, y: x * x))
    (tmp_path / "good.json").write_text(json.dumps(_GOOD_PROBLEM))
    (tmp_path / "exp.json").write_text(
        json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM, "resolutions": [9]}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["command"] == argv[0]
    assert rep["error"]["kind"] == "DomainError"
    assert "could not" in rep["error"]["message"]
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["check", "monotone", "--f", "pdelta:1e308", "--m", "pp:2", "--dim", "3",
     "--samples", "200", "--seed", "1"],
    ["check", "positivity", "--f", "pp:2", "--dim", "3", "--samples", str(10**12)],
    ["kernel", "--p", "2", "--dim", "2", "--x=0.5,0.5", "--measure", "empty.csv"],
    ["grid", "verify", "--input", "overflow.grid", "--cone", "pp:2"],
    ["grid", "hessian", "--input", "overflow.grid", "--at", "2,2"],
    ["grid", "perturb", "--input", "overflow.grid", "--psi", "overflow.grid", "--eps", "3",
     "--grid-output", "x.grid"],
    ["grid", "perturb", "--input", "overflowdown.grid", "--psi", "overflowdown.grid",
     "--eps", "1", "--grid-output", "x.grid"],
    ["experiment", "--config", "punctnan.json", "--output-dir", "out"],
    ["experiment", "--config", "punctinf.json", "--output-dir", "out"],
    ["solve", "--problem", "tinyh.json"],
    ["solve", "--problem", "hugeh.json"],
    ["experiment", "--config", "exptinyh.json", "--output-dir", "out"],
    ["experiment", "--config", "removetinyh.json", "--output-dir", "out"],
    ["experiment", "--config", "convhugeh.json", "--output-dir", "out"],
    ["grid", "hessian", "--input", "tinyh.grid", "--at", "2,2"],
    ["polar", "--points", "pts2.csv", "--p", "2", "--box-scales", "0.1,0.1"],
    ["polar", "--points", "pts2.csv", "--p", "2", "--box-scales", "0.1,1e-300"],
    ["cone", "--spec", "dual:enl:branch:3:0.2", "--dim", "3"],
    ["solve", "--problem", "misspelled.json"],
    ["experiment", "--config", "exppunctfar.json", "--output-dir", "out"],
    ["solve", "--problem", "hugedata.json"],
    ["grid", "hessian", "--input", "tinyh9.grid", "--at", "4,4"],
    ["kernel", "--p", "3", "--dim", "3", "--x", "1,0,0", "--output", "missing/r.json"],
    *[["solve", "--problem", f"gridfile{name}.json"] for name in _GRID_FILES],
    ["cone", "--spec", "horiz:@framenan.csv", "--dim", "4"],
    ["cone", "--spec", "horiz:@frameinf.csv", "--dim", "4"],
], ids=["magnitude-overflows", "samples-above-cap", "measure-empty", "grid-verify-overflow",
        "grid-hessian-overflow", "grid-perturb-overflow",
        "grid-perturb-overflow-down", "experiment-puncture-nan", "experiment-puncture-inf",
        "solve-coefficients-overflow", "solve-coefficients-underflow",
        "experiment-solve-coefficients-overflow",
        "experiment-removability-coefficients-overflow",
        "experiment-convergence-coefficients-underflow", "grid-hessian-spacing-underflows",
        "box-scales-repeated", "box-scales-index-overflow", "cone-without-positivity",
        "solve-misspelled-key", "experiment-puncture-index-overflows",
        "solve-data-overflow", "grid-hessian-spacing-underflows-9", "output-unwritable",
        *[f"grid-file-{name}" for name in _GRID_FILES], "frame-nan", "frame-inf"])
def test_usage_errors_leave_stderr_empty(tmp_path, argv):
    for name, text in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    # the child's stdin is empty, so a read of file descriptor 0 would not block
    proc = subprocess.run([sys.executable, "-m", "conecalc.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2
    rep = json.loads(proc.stdout, parse_constant=_reject_constant)
    frames = any(arg.startswith("horiz:@") for arg in argv)
    assert rep["error"]["kind"] == ("parse" if frames else "DomainError")
    for name, message in _INPUT_MESSAGES.items():
        if name in argv:
            assert rep["error"]["message"] == message
    assert proc.stderr == ""


_ABSENT = object()  # a change that drops the key


@pytest.mark.parametrize("change, message", [
    pytest.param({"stencil_rech": 1}, "problem config has no key 'stencil_rech'", id="top"),
    pytest.param({"hol": {"min": [0, 0], "max": [0.25, 0.25]}}, "problem config has no key 'hol'",
                 id="top-hole"),
    pytest.param({"k": 1}, "problem config has no key 'k'", id="pp-with-k"),
    pytest.param({"operator": "branch", "k": 1}, "problem config has no key 'p'",
                 id="branch-with-p"),
    pytest.param({"grid": dict(_GOOD_PROBLEM["grid"], spacing=0.5)},
                 "problem grid has no key 'spacing'", id="grid"),
    pytest.param({"hole": {"min": [0, 0], "max": [0.25, 0.25], "mx": [1, 1]}},
                 "problem hole has no key 'mx'", id="hole"),
    pytest.param({"boundary": {"exprr": "x*x"}}, "problem boundary has no key 'exprr'",
                 id="boundary"),
    pytest.param({"boundary": {"expr": "x*x", "grid_file": "u.grid"}},
                 "boundary needs exactly one of 'expr' and 'grid_file'", id="both-sources"),
    pytest.param({"boundary": {}}, "boundary needs exactly one of 'expr' and 'grid_file'",
                 id="no-source"),
    # numbers are JSON numbers: true ran pp:1 and branch:1, "0.25" was read as
    # 0.25, a 9.7 in the shape as 9 and a puncture at [true, 0] as x = 1
    pytest.param({"p": True}, "problem p must be a number, got True", id="p-bool"),
    pytest.param({"operator": "branch", "k": True, "p": _ABSENT},
                 "problem k must be a number, got True", id="k-bool"),
    pytest.param({"grid": dict(_GOOD_PROBLEM["grid"], shape=[9.7, 9])},
                 "problem grid shape must be a list of whole numbers, got [9.7, 9]",
                 id="shape-fraction"),
    pytest.param({"grid": dict(_GOOD_PROBLEM["grid"], h="0.25")},
                 "problem grid spacing h must be a number, got '0.25'", id="h-text"),
    pytest.param({"grid": dict(_GOOD_PROBLEM["grid"], h=10**400)},
                 "problem grid spacing h overflows float64", id="h-integer-overflows"),
    pytest.param({"grid": dict(_GOOD_PROBLEM["grid"], origin=[True, "-1"])},
                 "problem grid origin must be a list of 2 numbers, got [True, '-1']",
                 id="origin-bool-and-text"),
    pytest.param({"hole": {"min": [0, "0"], "max": [0.25, 0.25]}},
                 "problem hole min must be a list of 2 numbers, got [0, '0']", id="hole-text"),
    pytest.param({"puncture": [[True, 0]]},
                 "problem puncture point must be a list of 2 numbers, got [True, 0]",
                 id="puncture-bool"),
    pytest.param({"operator": "foo"}, "problem operator must be 'pp' or 'branch', got 'foo'",
                 id="operator-unknown"),
    # these named Python's error, not the input
    pytest.param({"boundary": {"expr": 5}}, "boundary expr must be a string, got 5",
                 id="expr-number"),
    pytest.param({"boundary": {"expr": "10**400"}},
                 "boundary expression '10**400' overflows float64", id="expr-overflows"),
    pytest.param({"p": 1.5, "grid": {"shape": [9], "origin": [-1], "h": 0.25}},
                 "solver supports 2-D and 3-D grids, got 1-D", id="grid-1d"),
])
@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_problem_key_nothing_reads_is_a_usage_error(tmp_path, monkeypatch, capsys, change,
                                                    message, command):
    write_grid(tmp_path / "u.grid", from_function((9, 9), [-1, -1], 0.25, lambda x, y: x * x))
    problem = {key: val for key, val in dict(_GOOD_PROBLEM, **change).items() if val is not _ABSENT}
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    (tmp_path / "exp.json").write_text(
        json.dumps({"kind": "removability", "problem": problem, "puncture": [[0, 0]]}))
    monkeypatch.chdir(tmp_path)
    argv = (["solve", "--problem", "problem.json"] if command == "solve"
            else ["experiment", "--config", "exp.json", "--output-dir", "out"])
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "DomainError"
    assert rep["error"]["message"].startswith(message)
    assert err == ""


# every JSON value but an object, and every one but a list: null is refused,
# not read as absent.  Falsy ones, {} for a puncture and a list of pairs for
# a boundary were once read as no hole, no puncture, no criteria or an object
_NON_OBJECTS = {"null": None, "false": False, "0": 0, "empty-text": "", "text": "x*x",
                "empty-list": [], "pairs": [["expr", "x*x - y*y"]]}
_NON_LISTS = {"null": None, "false": False, "0": 0, "empty-text": "", "empty-object": {}}
_REQUIRED = {"empty-object": {}}  # for an object with required keys
_EXPERIMENT = {"kind": "removability", "problem": _GOOD_PROBLEM, "puncture": [[0, 0]]}


def _with(cfg, path, value):
    """A copy of ``cfg`` whose key at ``path`` holds ``value``."""
    if not path:
        return value
    return dict(cfg, **{path[0]: _with(cfg.get(path[0], {}), path[1:], value)})


@pytest.mark.parametrize("command, path, value, named", [
    pytest.param(command, root + key, value, named, id=f"{command}-{(key or ['problem'])[0]}-{name}")
    for command, root in (("solve", ()), ("experiment", ("problem",)))
    for key, values, named in (
        ((), {**_NON_OBJECTS, **_REQUIRED}, "problem config"),
        (("grid",), {**_NON_OBJECTS, **_REQUIRED}, "grid"),
        (("boundary",), _NON_OBJECTS, "boundary"),
        (("hole",), {**_NON_OBJECTS, **_REQUIRED}, "hole"),
        (("puncture",), _NON_LISTS, "puncture"),
    )
    for name, value in values.items()
    if root + key != ("problem", "puncture")  # an experiment's puncture is its own, below
] + [
    pytest.param("experiment", path, value, named, id=f"experiment-{label}-{name}")
    for path, label, values, named in (
        ((), "config", _NON_OBJECTS, "experiment config"),
        ((), "config", _REQUIRED, "experiment kind"),
        (("pass_criteria",), "pass_criteria", _NON_OBJECTS, "pass_criteria"),
        (("puncture",), "puncture", _NON_LISTS, "puncture"),
    )
    for name, value in values.items()
] + [
    # a kind that cannot be a dict key once ended in a TypeError traceback
    pytest.param("experiment", ("kind",), ["removability"], "experiment kind",
                 id="experiment-kind-list"),
])
def test_a_malformed_object_or_point_list_is_refused(tmp_path, monkeypatch, capsys, command, path,
                                                     value, named):
    if command == "solve":
        cfg = _with(_GOOD_PROBLEM, path, value)
        argv = ["solve", "--problem", "cfg.json"]
    else:
        cfg = _with(_EXPERIMENT, path, value)
        argv = ["experiment", "--config", "cfg.json", "--output-dir", "out"]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)  # one report
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "DomainError"
    assert named in rep["error"]["message"]
    assert err == ""


def test_unknown_flags_rejected():
    code, out, _ = run_cli("cone", "--spec", "pp:2", "--dim", "3", "--bogus", "1")
    assert code == 2
    # the characteristic is read off zero crossings: cone has no --tol
    code, out, _ = run_cli("cone", "--spec", "pp:2", "--dim", "3", "--tol", "1e-8")
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "usage",
                                        "message": "unrecognized arguments: --tol 1e-8"}


_CHECK = {kind: ["check", kind, *flags, "--dim", "3", "--samples", "50"] for kind, flags in (
    ("positivity", ["--f", "pp:2"]), ("duality", ["--f", "pp:2"]),
    ("monotone", ["--f", "pp:2", "--m", "pp:2"]), ("pp-subset", ["--m", "pp:2", "--p", "1.5"]))}
_GRID = {
    "extend": ["grid", "extend", "--input", "u.grid", "--grid-output", "x.grid"],
    "verify": ["grid", "verify", "--input", "u.grid", "--cone", "pp:2"],
    "perturb": ["grid", "perturb", "--input", "u.grid", "--psi", "u.grid",
                "--grid-output", "x.grid"],
    "hessian": ["grid", "hessian", "--input", "u.grid", "--at", "3,3"],
}
_GRID_FLAGS = {"--cone": "pp:2", "--c-tol": "0.1", "--psi": "u.grid", "--eps": "0.1",
               "--at": "1,1", "--radius-cap": "3", "--grid-output": "x.grid"}
_CONE = ["cone", "--spec", "pp:2", "--dim", "2"]


@pytest.fixture
def leaf_inputs(tmp_path, monkeypatch):
    write_grid(tmp_path / "u.grid", from_function((7, 7), [0, 0], 0.1, lambda x, y: x * x))
    (tmp_path / "A.csv").write_text("1,0\n0,1\n")
    (tmp_path / "pts.csv").write_text("0.1,0.2\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


# each call adds to a valid one a flag that its command does not read
@pytest.mark.parametrize("argv", [
    *[pytest.param(_CHECK[kind] + [flag, value], id=f"check-{kind}{flag}")
      for kind, flag, value in (
          ("positivity", "--m", "pp:2"), ("positivity", "--p", "2"),
          ("duality", "--m", "pp:2"), ("duality", "--p", "2"), ("monotone", "--p", "2"),
          ("pp-subset", "--f", "pp:2"), ("pp-subset", "--magnitude", "2"),
          ("positivity", "--magnitude", "2"), ("duality", "--magnitude", "2"),
          ("monotone", "--magnitude", "2"))],
    *[pytest.param(_GRID[action] + [flag, _GRID_FLAGS[flag]], id=f"grid-{action}{flag}")
      for action, flags in (
          ("extend", ["--cone", "--c-tol", "--psi", "--eps", "--at"]),
          ("verify", ["--c-tol", "--psi", "--eps", "--at", "--radius-cap", "--grid-output"]),
          ("perturb", ["--cone", "--c-tol", "--at", "--radius-cap"]),
          ("hessian", ["--cone", "--c-tol", "--psi", "--eps", "--radius-cap", "--grid-output"]))
      for flag in flags],
    pytest.param(_CONE + ["--mode", "interior"], id="cone-mode-without-matrix"),
    pytest.param(_CONE + ["--dual"], id="cone-dual-without-matrix"),
    pytest.param(_CONE + ["--matrix", "A.csv", "--samples", "40"], id="cone-samples-with-matrix"),
    pytest.param(_CONE + ["--matrix", "A.csv", "--mode", "closed", "--dual"],
                 id="cone-mode-with-dual"),
    pytest.param(["polar", "--points", "pts.csv", "--p", "2", "--grid", "shape=nonsense"],
                 id="polar-grid-without-grid-output"),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(leaf_inputs, capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)  # one report and nothing after it
    schema.validate_report(rep)
    # argparse refuses the flag, and the retired --dual, except --mode
    # without --matrix and --grid without --grid-output, which are DomainErrors
    domain = argv[0] in ("cone", "polar") and "--matrix" not in argv and "--dual" not in argv
    assert rep["error"]["kind"] == ("DomainError" if domain else "usage")
    assert err == ""
    assert not (leaf_inputs / "x.grid").exists()


@pytest.mark.parametrize("argv", [*_CHECK.values(), *_GRID.values(), _CONE,
                                  _CONE + ["--matrix", "A.csv"],
                                  ["polar", "--points", "pts.csv", "--p", "2"]],
                         ids=lambda argv: "-".join(argv[:2]))
def test_the_calls_those_flags_are_added_to_pass(leaf_inputs, capsys, argv):
    assert cli.main(argv) == 0


def _readme_tour():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI quick tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("conecalc ")]


@pytest.mark.parametrize("argv", _readme_tour(), ids=lambda argv: "-".join(argv[1:3]))
def test_every_readme_tour_command_parses(argv):
    assert cli.build_parser().parse_args(argv[1:]).subcommand == argv[1]


def test_readme_tour_runs_every_leaf_command():
    leaves = {" ".join(argv[1:3]) if argv[1] in ("check", "grid") else argv[1]
              for argv in _readme_tour()}
    assert leaves == (set(cli._COMMANDS) - {"check", "grid"} | {f"check {k}" for k in _CHECK}
                      | {f"grid {a}" for a in _GRID})


def _leaf_flags(parser, path=()):
    """Leaf command -> the flags its parser reads, but --help and the shared ones."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {flag for a in parser._actions for flag in a.option_strings}
                - {"-h", "--help", "--seed", "--output"}}
    return {leaf: flags for name, sub in subs[0].choices.items()
            for leaf, flags in _leaf_flags(sub, (*path, name)).items()}


def _readme_flag_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("Each leaf command reads these flags", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:  # past the header and its rule
        # `cone`'s row holds an escaped \| inside a cell
        _, commands, flags, _ = re.split(r"(?<!\\)\|", line)
        for command in re.findall(r"`([^`]+)`", commands):
            rows[command] = set(re.findall(r"--[a-z][a-z-]*", flags))
    return rows


def test_readme_flag_table_is_every_leaf_with_its_flags():
    assert _readme_flag_table() == _leaf_flags(cli.build_parser())


def test_missing_subcommand_flags_are_usage_errors(tmp_path):
    code, _, _ = run_cli("check", "monotone", "--f", "pp:2", "--dim", "3")
    assert code == 2
    u = from_function((5, 5), [0, 0], 0.5, lambda x, y: x + y)
    path = tmp_path / "u.grid"
    write_grid(path, u)
    assert run_cli("grid", "verify", "--input", path)[0] == 2
    assert run_cli("grid", "hessian", "--input", path)[0] == 2
    assert run_cli("grid", "perturb", "--input", path)[0] == 2


def test_byte_identical_reruns(tmp_path):
    args = ("check", "monotone", "--f", "pp:2", "--m", "pp:2", "--dim", "4",
            "--samples", "500", "--seed", "11")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_env_seed_override():
    # CONECALC_SEED is not read: --seed, default 0, is the only way to set a seed
    argv = ("cone", "--spec", "pp:2", "--dim", "3")
    assert run_cli(*argv, env_extra={"CONECALC_SEED": "42"}) == run_cli(*argv)


@pytest.mark.parametrize("argv", [
    ["cone", "--spec", "sigma:2", "--dim", "3"],
    ["cone", "--spec", "pp:2", "--dim", "2", "--matrix", "A.csv"],
    ["check", "duality", "--f", "branch:1", "--dim", "3", "--samples", "50"],
    ["kernel", "--p", "3", "--dim", "3", "--x", "2,0,0"],
    ["polar", "--points", "pts.csv", "--p", "2"],
    ["grid", "hessian", "--input", "u.grid", "--at", "3,3"],
    ["solve", "--problem", "good.json"],
    ["experiment", "--config", "exp.json", "--output-dir", "out"],
], ids=lambda argv: "-".join(argv[:2]))
def test_every_success_report_carries_command_and_seed(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "A.csv").write_text("1,0\n0,1\n")
    (tmp_path / "pts.csv").write_text("0.1,0.2\n")
    write_grid(tmp_path / "u.grid", from_function((7, 7), [0, 0], 0.1, lambda x, y: x * x))
    (tmp_path / "good.json").write_text(json.dumps(_GOOD_PROBLEM))
    (tmp_path / "exp.json").write_text(
        json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM, "puncture": [[0, 0]]}))
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--seed", "17"]) == 0
    rep = json.loads(capsys.readouterr().out)
    schema.validate_report(rep)
    assert (rep["command"], rep["seed"]) == (argv[0], 17)


def test_output_file_matches_stdout(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli("cone", "--spec", "sigma:1", "--dim", "3",
                           "--output", out_path)
    assert code == 0
    assert out_path.read_text() == out
