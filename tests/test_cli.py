import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conecalc import cli, grids, schema, solver
from conecalc.errors import InternalConsistencyError
from conecalc.grids import GridFunction, from_function, write_grid


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CONECALC_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "conecalc.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def output_of(*args, **kw):
    code, out, err = run_cli(*args, **kw)
    report = json.loads(out)
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
        "cone", "--spec", "p", "--dim", "2", "--matrix", mat, "--dual"
    )
    assert code == 0 and rep["member"] is True


def test_dual_flag_and_dual_descriptor_agree(tmp_path, monkeypatch, capsys):
    # the dual margin -5e-8 lies between the closed and interior tolerance bands
    (tmp_path / "A.csv").write_text("-1,0,0\n0,0,0\n0,0,-5e-8\n")
    monkeypatch.chdir(tmp_path)
    reports = []
    for argv in (["--spec", "pp:2", "--dual"], ["--spec", "dual:pp:2"]):
        code = cli.main(["cone", *argv, "--dim", "3", "--matrix", "A.csv"])
        rep = json.loads(capsys.readouterr().out)
        schema.validate_report(rep)
        reports.append((code, rep["member"], rep["margin"], rep["threshold"], rep["witness"]))
    assert reports[0] == reports[1] == (1, False, -5e-8, -2e-9, {"eigen_indices": [1, 2]})


def test_cone_parse_error_position_and_exit():
    code, out, _ = run_cli("cone", "--spec", "pucci:1:x", "--dim", "4")
    assert code == 2
    rep = json.loads(out)
    schema.validate_report(rep)
    assert rep["error"]["kind"] == "parse"
    assert rep["error"]["position"] > 0


def test_schema_rejects_report_without_command():
    schema.validate_report({"error": {"kind": "usage", "message": "bad flag"}})
    with pytest.raises(InternalConsistencyError, match="no command"):
        schema.validate_report({"kind": "monotone", "passed": True, "seed": 0, "dim": 2})


# -- check suites ------------------------------------------------------------------


def test_check_monotone_map_branch():
    code, rep = output_of(
        "check", "monotone", "--f", "mapb:2:3", "--m", "pp:2", "--dim", "4",
        "--samples", "2000", "--seed", "7",
    )
    assert code == 0 and rep["passed"]
    assert rep["seed"] == 7


def test_check_duality_branch():
    code, rep = output_of(
        "check", "duality", "--f", "branch:1", "--dim", "3", "--samples", "2000"
    )
    assert code == 0 and rep["passed"]


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


# -- kernels and polars ----------------------------------------------------------------


def test_kernel_jet_report():
    code, rep = output_of("kernel", "--p", "3", "--dim", "3", "--x", "2,0,0")
    assert code == 0
    assert rep["value"] == pytest.approx(-0.5)
    hess = np.array(rep["jet"]["hessian"])
    assert np.allclose(np.sort(np.linalg.eigvalsh(hess)), [-0.25, 0.125, 0.125])


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
    lines = Path(str(prefix) + "_convergence.csv").read_text().splitlines()
    assert lines[0] == "iteration,residual_sup"
    assert len(lines) >= 2


def test_solve_max_iter_caps_the_policy_steps(tmp_path, capsys):
    # the 17^2 pp:1.5 annulus needs more than one policy step
    path, _ = write_problem(
        tmp_path, p=1.5, grid={"shape": [17, 17], "origin": [-1, -1], "h": 0.125},
        boundary={"expr": "(x*x+y*y)**0.25"}, hole={"min": [-0.125] * 2, "max": [0.125] * 2},
    )
    args = cli.build_parser().parse_args(["solve", "--problem", str(path)])
    assert args.max_iter == inspect.signature(solver.solve).parameters["max_iter"].default
    assert cli.main(["solve", "--problem", str(path), "--max-iter", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["solve"]["iterations"] == 1
    assert rep["solve"]["converged"] is False


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
    lines = (outdir / "errors.csv").read_text().splitlines()
    assert lines[0] == "h,sup_error,rel_error"
    assert len(lines) == 4


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

_BAD_INPUT_FILES = {
    "pts2.csv": "0.1,0.2\n0.3,0.4\n",
    "atoms2.csv": "0.1,0.2,1\n0.3,0.4,1\n",
    "badcell.csv": "0,0,1\n0,abc,1\n",
    "list.json": "[1, 2]",
    "pabc.json": json.dumps(dict(_GOOD_PROBLEM, p="abc")),
    "origin.json": json.dumps(dict(_GOOD_PROBLEM, grid={"shape": [9, 9], "origin": [-1], "h": 0.25})),
    "hole.json": json.dumps(dict(_GOOD_PROBLEM, hole={"min": [0, 0]})),
    "puncture.json": json.dumps(dict(_GOOD_PROBLEM, puncture=5)),
    "noproblem.json": json.dumps({"kind": "solve"}),
    "nopuncture.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM}),
    "noresolutions.json": json.dumps({"kind": "convergence", "problem": _GOOD_PROBLEM}),
    "notobject.json": "[1]",
    "reachabc.json": json.dumps(dict(_GOOD_PROBLEM, stencil_reach="abc")),
    "reach25.json": json.dumps(dict(_GOOD_PROBLEM, stencil_reach=2.5)),
    "expreach.json": json.dumps({"kind": "solve", "problem": _GOOD_PROBLEM, "stencil_reach": 2.5}),
    "convnogrid.json": json.dumps(
        {"kind": "convergence", "problem": {"operator": "pp"}, "resolutions": [9]}
    ),
    "resolutions.json": json.dumps(
        {"kind": "convergence", "problem": _GOOD_PROBLEM, "resolutions": ["a", 9]}
    ),
    "tol.json": json.dumps({"kind": "solve", "problem": _GOOD_PROBLEM, "tol": "x"}),
    "eps.json": json.dumps(
        {"kind": "removability", "problem": _GOOD_PROBLEM, "puncture": [[0, 0]], "eps": "ab"}
    ),
    "gap.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                            "puncture": [[0, 0]], "gap_constant": "x"}),
    "polarp.json": json.dumps({"kind": "removability", "problem": _GOOD_PROBLEM,
                               "puncture": [[0, 0]], "polar_p": "x"}),
    "bound.json": json.dumps({"kind": "solve", "problem": _GOOD_PROBLEM,
                              "pass_criteria": {"residual_sup": "x"}}),
    "punctpoint.json": json.dumps(
        {"kind": "removability", "problem": _GOOD_PROBLEM, "puncture": [["a", 0]]}
    ),
    "branchfrac.json": json.dumps(dict(_GOOD_PROBLEM, operator="branch", k=1.7)),
    "hinf.grid": "grid n=2 shape=2,2 origin=0,0 h=1e400\n0,0\n0,0\n",
    "originnan.grid": "grid n=2 shape=2,2 origin=nan,0 h=0.5\n0,0\n0,0\n",
    "mask2.grid": "grid n=2 shape=2,2 origin=0,0 h=0.5\nmask\n0,2\n0,0\n0,0\n0,0\n",
    "extra.grid": "grid n=2 shape=2,2 origin=0,0 h=0.5\n0,0\n0,0\n1,1\n",
    "empty.csv": "",
    "comment.csv": "# no atoms\n",
    "convzero.json": json.dumps(
        {"kind": "convergence", "problem": dict(_GOOD_PROBLEM, boundary={"expr": "0*x"}),
         "resolutions": [9]}
    ),
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
        pytest.param(["experiment", "--config", "expreach.json", "--output-dir", "out"],
                     id="experiment-stencil-reach"),
        pytest.param(["experiment", "--config", "convnogrid.json", "--output-dir", "out"],
                     id="convergence-no-grid"),
        pytest.param(["experiment", "--config", "resolutions.json", "--output-dir", "out"],
                     id="resolutions-not-integers"),
        pytest.param(["experiment", "--config", "tol.json", "--output-dir", "out"],
                     id="experiment-tol-text"),
        pytest.param(["experiment", "--config", "eps.json", "--output-dir", "out"],
                     id="experiment-eps-text"),
        pytest.param(["experiment", "--config", "gap.json", "--output-dir", "out"],
                     id="experiment-gap-constant-text"),
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
        pytest.param(["solve", "--problem", "branchfrac.json"], id="problem-branch-fraction"),
        pytest.param(["check", "monotone", "--f", "pp:2", "--m", "branch:1", "--dim", "3",
                      "--samples", "200", "--seed", "1", "--magnitude", "3e307"],
                     id="magnitude-overflows"),
        pytest.param(["check", "monotone", "--f", "pp:2", "--m", "branch:1", "--dim", "3",
                      "--samples", "200", "--seed", "1", "--magnitude", "inf"],
                     id="magnitude-inf"),
        pytest.param(["check", "duality", "--f", "sigma:2", "--dim", "3",
                      "--samples", "200", "--seed", "1", "--magnitude", "1e300"],
                     id="duality-margins-overflow"),
        pytest.param(["grid", "extend", "--input", "hinf.grid", "--grid-output", "x.grid"],
                     id="grid-h-inf"),
        pytest.param(["grid", "extend", "--input", "originnan.grid", "--grid-output", "x.grid"],
                     id="grid-origin-nan"),
        pytest.param(["grid", "extend", "--input", "mask2.grid", "--grid-output", "x.grid"],
                     id="grid-mask-token"),
        pytest.param(["grid", "extend", "--input", "extra.grid", "--grid-output", "x.grid"],
                     id="grid-rows-past-shape"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=-1,-1 h=1e400", "--grid-output", "x.grid"],
                     id="polar-grid-h-inf"),
        pytest.param(["polar", "--points", "pts2.csv", "--p", "2", "--grid",
                      "shape=9,9 origin=nan,0 h=0.25", "--grid-output", "x.grid"],
                     id="polar-grid-origin-nan"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x=0.5,0.5",
                      "--measure", "empty.csv"], id="measure-empty"),
        pytest.param(["kernel", "--p", "2", "--dim", "2", "--x=0.5,0.5",
                      "--measure", "comment.csv"], id="measure-comment-only"),
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
    assert rep["error"]["kind"] in ("DomainError", "DimensionMismatchError", "SamplingError")
    assert err == ""
    assert not (tmp_path / "x.grid").exists()


@pytest.mark.parametrize("argv", [
    ["check", "monotone", "--f", "pp:2", "--m", "branch:1", "--dim", "3",
     "--samples", "200", "--seed", "1", "--magnitude", "3e307"],
    ["kernel", "--p", "2", "--dim", "2", "--x=0.5,0.5", "--measure", "empty.csv"],
], ids=["magnitude-overflows", "measure-empty"])
def test_usage_errors_leave_stderr_empty(tmp_path, argv):
    (tmp_path / "empty.csv").write_text("")
    proc = subprocess.run([sys.executable, "-m", "conecalc.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] in ("DomainError", "SamplingError")
    assert proc.stderr == ""


def test_unknown_flags_rejected():
    code, out, _ = run_cli("cone", "--spec", "pp:2", "--dim", "3", "--bogus", "1")
    assert code == 2


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
    _, rep = output_of("cone", "--spec", "pp:2", "--dim", "3",
                       env_extra={"CONECALC_SEED": "42"})
    assert rep["seed"] == 42


def test_output_file_matches_stdout(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli("cone", "--spec", "sigma:1", "--dim", "3",
                           "--output", out_path)
    assert code == 0
    assert out_path.read_text() == out
