"""CLI contracts that take a child process each and minutes in all: peak
memory and time bounds, reports and files that are byte-identical on
one CPU and on all of them and at any OpenBLAS thread count, bad input
that ends in one JSON report and nothing on stderr, and a table of named
source mutants that their Tier-1 tests must kill.

Run from the repository root with ``python -m pytest -q tests/ci_contracts.py``.
The file name does not match ``test_*.py``, so the Tier-1 run does not
collect it; CI runs it by path.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                                     *sys.path]))


def _c6(n):
    # acceptance C6: the pp:1.5 annulus, whose exact solution is (x^2 + y^2)^(1/4)
    return json.dumps({"operator": "pp", "p": 1.5, "boundary": {"expr": "(x*x+y*y)**0.25"},
                       "grid": {"shape": [n, n], "origin": [-1, -1], "h": 2 / (n - 1)},
                       "hole": {"min": [-0.125, -0.125], "max": [0.125, 0.125]}})


_FILES = {
    "frame.csv": "1,0,0,0\n0,1,0,0\n",
    "masked.grid": "grid n=2 shape=9,9 origin=0,0 h=0.25\nmask\n" + "0,0,0,0,0,0,0,0,0\n" * 3
    + "0,0,0,1,1,1,0,0,0\n" * 3 + "0,0,0,0,0,0,0,0,0\n" * 3 + "0,1,4,9,16,25,36,49,64\n" * 9,
    "c6-257.json": _c6(257),
    "c6.json": _c6(129),
    # the 3-D branch:2 min-max form, whose outer loop nests the policy loop (53 solves)
    "minmax.json": json.dumps({"operator": "branch", "k": 2,
                               "boundary": {"expr": "sin(3*x)*cos(2*y) + x*z"},
                               "grid": {"shape": [13, 13, 13], "origin": [-1, -1, -1],
                                        "h": 1 / 6}}),
    # acceptance C7's quadratic case: pp:2, x^2 - y^2, punctured at the origin
    "c7.json": json.dumps({"kind": "removability", "puncture": [[0, 0]], "tol": 1e-10,
                           "problem": {"operator": "pp", "p": 2, "boundary": {"expr": "x*x - y*y"},
                                       "grid": {"shape": [65, 65], "origin": [-1, -1],
                                                "h": 0.03125}}}),
    "ragged.grid": "grid n=2 shape=3,3 origin=0,0 h=1\n0,0,0\n0,0\n0,0,0\n",
    "pts.csv": "0.1,0.2\n",
    "noncubic.json": json.dumps({"kind": "convergence", "resolutions": [9, 17],
                                 "problem": {"operator": "pp", "p": 2, "boundary": {"expr": "x*x"},
                                             "grid": {"shape": [9, 17], "origin": [-1, -1],
                                                      "h": 0.25}}}),
}


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(cwd, argv, env=_ENV, one_cpu=False):
    """Run ``python -m conecalc.cli`` in ``cwd``; return its exit code, stdout,
    stderr, peak RSS in MB and wall seconds."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conecalc.cli", *argv], cwd=cwd, env=env,
                                stdout=out, stderr=err, preexec_fn=_one_cpu if one_cpu else None)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024, seconds


@pytest.fixture
def inputs(tmp_path):
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


# A relation's samples and the pp-subset direction family stream in blocks:
# 10^5 samples in dim 6 peak near 40 MB, where drawing them at once took
# ~185 MB, and 6*10^5 + 4 directions in dim 4 near 35 MB, where the whole
# family took ~217 MB.  A cold solve of C6 at 257^2 peaks while SuperLU
# factors: 157.4 MB with 4-column panels against 169.7 MB at SuperLU's
# default panel width (medians of 3, 2 vCPUs).
@pytest.mark.parametrize("argv, rss_mb", [
    pytest.param(["check", "monotone", "--f", "mapb:3:1", "--m", "pp:3", "--dim", "6",
                  "--samples", "100000"], 100, id="check-monotone"),
    pytest.param(["check", "pp-subset", "--m", "horiz:@frame.csv", "--dim", "4", "--p", "1.5",
                  "--samples", "300000"], 100, id="check-pp-subset"),
    pytest.param(["grid", "extend", "--input", "masked.grid", "--radius-cap", "1000000",
                  "--grid-output", "extended.grid"], 100, id="grid-extend"),
    pytest.param(["solve", "--problem", "c6-257.json", "--tol", "1e-10"], 164, id="solve-c6-257"),
])
def test_peak_rss_is_bounded(inputs, argv, rss_mb):
    code, _, _, peak_mb, _ = _run(inputs, argv)
    assert code == 0
    assert peak_mb < rss_mb


def test_one_corner_extends_across_a_1025_grid_in_bounded_time_and_memory(tmp_path):
    # each radius is one max dilation of the grid, and the radii stop at its
    # longest side whatever the cap: one unmasked corner reaches all 1025^2 - 1
    # masked cells in ~9 s at ~112 MB peak RSS
    n = 1025
    with open(tmp_path / "corner.grid", "w") as f:
        f.write(f"grid n=2 shape={n},{n} origin=0,0 h=1\nmask\n0" + ",1" * (n - 1) + "\n")
        f.write(("1" + ",1" * (n - 1) + "\n") * (n - 1))
        f.write("1" + ",0" * (n - 1) + "\n" + ("0" + ",0" * (n - 1) + "\n") * (n - 1))
    code, out, _, peak_mb, seconds = _run(tmp_path, [
        "grid", "extend", "--input", "corner.grid", "--radius-cap", "1000000",
        "--grid-output", "corner-extended.grid"])
    assert (code, json.loads(out)["changed_points"]) == (0, n * n - 1)
    assert peak_mb < 170
    assert seconds < 14


# a randomized check splits its sample blocks over the CPUs it may run on
@pytest.mark.parametrize("argv, code", [
    pytest.param("monotone --f mapb:3:1 --m pp:3 --dim 6", 0, id="monotone-pass"),
    pytest.param("monotone --f branch:1 --m pp:2 --dim 4", 1, id="monotone-counterexample"),
    # 10^5 GOE pairs pass it; a diagonal A with a GOE B fails it at sample 4484
    pytest.param("monotone --f pp:1.5 --m pp:1.6 --dim 6", 1, id="monotone-diagonal-counterexample"),
    # the diagonal draw passes it; a commuting pair, drawn from a generator
    # spawned from the seed, fails it
    pytest.param("monotone --f pp:2.5 --m pp:2.51 --dim 6", 1, id="monotone-commuting-counterexample"),
    pytest.param("duality --f pp:1.5 --dim 6", 0, id="duality"),
    pytest.param("duality --f dual:branch:2 --dim 4", 0, id="duality-dual-of-a-mirror"),
])
def test_check_report_is_the_same_on_one_cpu(tmp_path, argv, code):
    argv = ["check", *argv.split(), "--samples", "100000"]
    one, every = (_run(tmp_path, argv, one_cpu=one_cpu)[:3] for one_cpu in (True, False))
    assert one == every == (code, one[1], b"")


# a warning or traceback that an in-process test cannot see still reaches a
# real process's stderr: bad input ends in its exit code and one report
@pytest.mark.parametrize("argv, code", [
    pytest.param("kernel --p 3 --dim 3 --x inf,0,0", 2, id="kernel-x-inf"),
    pytest.param("kernel --p 3 --dim 3 --x nan,0,0", 2, id="kernel-x-nan"),
    pytest.param("kernel --p 3 --dim 3 --x 0,0,0", 1, id="kernel-pole"),
    pytest.param("experiment --config noncubic.json --output-dir out", 2,
                 id="convergence-non-cubic-grid"),
    pytest.param("grid verify --input ragged.grid --cone pp:2", 2, id="ragged-grid"),
    pytest.param("cone --spec nosuch:1 --dim 3", 2, id="unknown-cone"),
    pytest.param("grid verify --input masked.grid --cone pp:2 --c-tol 0.1", 2,
                 id="retired-c-tol"),
    # finite input whose lattice coordinates or distances to an atom overflow float64
    pytest.param("polar --points pts.csv --p 2 --grid 'shape=9,9 origin=1e308,1e308 h=1e307' "
                 "--grid-output o.grid", 2, id="polar-grid-far-corner-overflows"),
    pytest.param("polar --points pts.csv --p 2 --grid 'shape=9,9 origin=1.5e308,1.5e308 h=1e300' "
                 "--grid-output o.grid", 2, id="polar-grid-distance-overflows"),
    pytest.param("kernel --p 2 --dim 2 --x=1.5e308,1.5e308", 2, id="kernel-log-distance-overflows"),
    pytest.param("kernel --p 3 --dim 3 --x=1.5e308,1.5e308,0", 2, id="kernel-distance-overflows"),
])
def test_bad_input_prints_one_report_and_no_stderr(inputs, argv, code):
    returned, out, err, _, _ = _run(inputs, shlex.split(argv))
    assert (returned, err) == (code, b"")
    assert "error" in json.loads(out)


_WAYS = {  # environment and CPU restriction of each run
    "one-thread": (dict(_ENV, OPENBLAS_NUM_THREADS="1"), False),
    "unset": ({k: v for k, v in _ENV.items() if k != "OPENBLAS_NUM_THREADS"}, False),
    "one-cpu": (_ENV, True),
}


# the factorization, refinement, policy loop and the perturbation check's
# dilation of the puncture must not depend on the BLAS threads or the CPUs
@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--problem", "../c6.json", "--tol", "1e-10", "--output-prefix", "c6"],
                 id="c6-129"),
    # 63,936 unknowns: np.dot's last bits change with the BLAS thread
    # count from about 16,000 entries
    pytest.param(["solve", "--problem", "../c6-257.json", "--tol", "1e-10", "--output-prefix", "c6"],
                 id="c6-257"),
    pytest.param(["solve", "--problem", "../minmax.json", "--tol", "1e-10",
                  "--output-prefix", "minmax"], id="minmax-13"),
    pytest.param(["experiment", "--config", "../c7.json", "--output-dir", "out"], id="c7"),
])
def test_outputs_do_not_depend_on_blas_threads_or_cpus(inputs, argv):
    outputs = []
    for way, (env, one_cpu) in _WAYS.items():
        (inputs / way).mkdir()
        code, report, err, _, _ = _run(inputs / way, argv, env, one_cpu)
        assert (code, err) == (0, b"")
        files = {str(p.relative_to(inputs / way)): p.read_bytes()
                 for p in sorted((inputs / way).rglob("*")) if p.is_file()}
        outputs.append((report, files))
    assert outputs[0][1]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# Named source mutants: (file under src/conecalc, text that occurs there
# once, its replacement, the test ids that must all fail on the mutated
# copy).  Each list holds the quickest of the Tier-1 tests that kill its
# mutant; a mutant that survives them fails its case
_SOLVER = "tests/test_solver.py::"
_CONES = "tests/test_cones.py::"
_MUTANTS = [
    # the per-cell tolerance c(x) replaced by its largest value, as when one
    # c_tol served every cell: the superharmonic controls pass.  The 65^2
    # quadratic case and the 3-D control are caught by that global
    # tolerance too, so they are not listed
    pytest.param("grids.py", "        return kappa * u.h\n",
                 "        return np.full_like(kappa, kappa.max()) * u.h\n",
                 [f"{_SOLVER}test_perturbation_check_rejects_a_superharmonic_control[129]",
                  f"{_SOLVER}test_perturbation_check_rejects_a_superharmonic_control_on_the_kernel"
                  "_annulus[65]",
                  f"{_SOLVER}test_perturbation_check_rejects_a_superharmonic_control_on_the_kernel"
                  "_annulus[129]",
                  "tests/test_acceptance.py::test_criterion_7_removability",
                  "tests/test_grids.py::test_tolerance_is_local_to_a_steep_feature"],
                 id="global-tolerance"),
    # a policy step keeps its previous frame within 1e-6 of the best, not
    # 1e-12: ties absorb real improvements.  The min-max comparison
    # principle kills it too, but Hypothesis takes ~100 s shrinking there
    pytest.param("solver.py", "_TIE = 1e-12\n", "_TIE = 1e-6\n",
                 [f"{_SOLVER}test_evaluate_keeps_a_tied_frame_and_reports_the_best_value",
                  f"{_SOLVER}test_comparison_principle_for_ordered_data",
                  f"{_SOLVER}test_branch_one_on_generic_data_stops_at_the_reach_floor"],
                 id="tie-1e-6"),
    # refinement stops at a backward error of 1e-7, not 64 eps
    pytest.param("solver.py", "_BACKWARD_ERROR = 64 * np.finfo(float).eps\n",
                 "_BACKWARD_ERROR = 1e-7\n",
                 [f"{_SOLVER}test_permuted_factor_solve_meets_the_backward_error[annulus-65-pp1.5]",
                  f"{_SOLVER}test_permuted_factor_solve_meets_the_backward_error[pp1.5-11^3]"],
                 id="backward-error-1e-7"),
    # a stencil arm whose minus end lands on a puncture stays valid
    pytest.param("solver.py", "            valid &= ~punct[plus] & ~punct[minus]\n",
                 "            valid &= ~punct[plus]\n",
                 [f"{_SOLVER}test_scheme_kernel_matches_loop_reference[{case}]"
                  for case in ("shape0-op0-3", "shape4-op4-3", "shape8-op8-2")],
                 id="no-puncture-test-on-minus-arm"),
    # the removability rule refuses q = p, as if pp:p + pp:p left pp:p
    pytest.param("solver.py", "polar_p > val", "polar_p >= val",
                 ["tests/test_acceptance.py::test_criterion_7_removability",
                  f"{_SOLVER}test_removability_rule_agrees_with_sampled_certification"],
                 id="rule-refuses-q-equal-p"),
    # the removability rule lets a branch operator through whenever k >= q
    pytest.param("solver.py", '    if kind != "pp" or polar_p > val:\n',
                 "    if polar_p > val:\n",
                 [f"{_SOLVER}test_removability_rejects_uncertified_branch",
                  f"{_SOLVER}test_removability_rejects_branch_3_for_a_pp_2_polar",
                  "tests/test_cli.py::test_experiment_polar_exponent_exit_codes[branch-rule]"],
                 id="rule-admits-branch"),
    # the stencil loses its (1, +-1[, +-1]) diagonal directions: the
    # enumeration and its counts change, and the envelopes lose accuracy
    pytest.param("solver.py",
                 "    dirs = cube[(first > 0) & (np.gcd.reduce(cube, axis=1) == 1)]  # one per line\n",
                 "    dirs = cube[(first > 0) & (np.gcd.reduce(cube, axis=1) == 1)\n"
                 "                & ~np.all(np.abs(cube) == 1, axis=1)]\n",
                 [f"{_SOLVER}test_default_2d_stencil",
                  f"{_SOLVER}test_stencil_is_the_loop_enumeration[3-3]",
                  f"{_SOLVER}test_extreme_branches_are_the_convex_and_concave_envelopes[2-33-1]",
                  f"{_SOLVER}test_extreme_branches_are_the_convex_and_concave_envelopes[3-9-3]"],
                 id="no-diagonal-directions"),
    # check_relation stops after the GOE samples, with no commuting pairs
    pytest.param("cones.py",
                 "    if report is None and diagonal:\n",
                 "    if False:\n",
                 [f"{_CONES}test_a_commuting_counterexample_is_a_diagonal_pair[{case}]"
                  for case in ("pp", "pucci-pdelta", "branch")]
                 + [f"{_CONES}test_check_relation_refutes_a_slightly_larger_pp_exponent[2.5-2.51-4]",
                    f"{_CONES}test_only_spectral_kind_pairs_get_commuting_pairs"],
                 id="no-commuting-pass"),
    # a spectral relation's diagonal A is sorted but not moved onto F's
    # boundary: it is outside F, and true relations fail
    pytest.param("cones.py",
                 "            a, A = _onto_boundary(F, A), np.zeros((len(A), n, n))\n",
                 "            a, A = np.sort(A, axis=-1), np.zeros((len(A), n, n))\n",
                 [f"{_CONES}test_a_reported_counterexample_is_genuine",
                  f"{_CONES}test_map_branches_are_partial_sum_monotone",
                  f"{_CONES}test_check_relation_reports_a_failure_in_a_later_block"],
                 id="diagonal-a-off-the-boundary"),
    # worker threads of a randomized check run outside the caller's context,
    # so under numpy's default np.errstate
    pytest.param("cones.py",
                 "    threads = [threading.Thread(target=contextvars.copy_context().run, args=(scan,))\n",
                 "    threads = [threading.Thread(target=scan)\n",
                 [f"{_CONES}test_every_block_runs_under_the_callers_errstate"],
                 id="no-context-copy"),
    # a JSON value that is not an object reaches the key tests: null, false
    # and 0 end in a TypeError, "" and [] pass as objects without keys
    pytest.param("symmat.py", "    if not isinstance(value, dict):\n", "    if False:\n",
                 [f"tests/test_cli.py::test_a_malformed_object_or_point_list_is_refused[{case}]"
                  for case in ("solve-grid-null", "solve-hole-false", "experiment-config-null",
                               "experiment-pass_criteria-0")],
                 id="non-object-admitted"),
    # an unpickled matrix keeps the writable entries numpy gives it
    pytest.param("symmat.py",
                 "    def __setstate__(self, state):\n"
                 "        # numpy unpickles an array writable: keep the entries read-only, as constructed\n"
                 "        state[\"entries\"].flags.writeable = False\n"
                 "        self.__dict__.update(state)\n",
                 "",
                 ["tests/test_symmat.py::test_a_pickled_matrix_keeps_read_only_entries"],
                 id="no-setstate"),
]


@pytest.mark.parametrize("file, old, new, killers", _MUTANTS)
def test_named_mutant_is_killed(tmp_path, file, old, new, killers):
    root = Path(__file__).parents[1]
    shutil.copytree(root / "src", tmp_path / "src")
    path = tmp_path / "src" / "conecalc" / file
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    env = dict(_ENV, PYTHONPATH=os.pathsep.join([str(tmp_path / "src"), *sys.path]))
    where = subprocess.run([sys.executable, "-c", "import conecalc; print(conecalc.__file__)"],
                           cwd=root, env=env, capture_output=True, text=True)
    assert where.stdout.startswith(str(tmp_path / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *killers], cwd=root, env=env, capture_output=True, text=True)
    assert re.fullmatch(rf"{len(killers)} failed in .*", proc.stdout.strip().splitlines()[-1]), \
        proc.stdout
