"""Command-line front end.

One binary, subcommand style.  Every command emits a single JSON report
(validating against the shipped schema), echoes its seed, and uses the
stable exit-code contract: 0 pass, 1 mathematical failure or
counterexample, 2 usage or parse error.  Identical flags and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import symmat  # each command imports the other modules it runs: start-up loads no more
from .errors import (
    ConecalcError,
    DomainError,
    PoleError,
    SpecParseError,
    UnsupportedPolarError,
)

USAGE_EXIT = 2
MATH_EXIT = 1


def _default_seed() -> int:
    try:
        return int(os.environ.get("CONECALC_SEED", "0"))
    except ValueError as exc:
        raise SpecParseError(f"CONECALC_SEED must be an integer: {exc}") from None


def _json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report: dict, output) -> None:
    text = _json_text(report)
    if output:
        symmat.write_text(output, [text])
    sys.stdout.write(text)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise DomainError(f"could not parse vector {text!r}: {exc}") from exc


def _load_json(path):
    text = symmat.read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DomainError(f"could not read JSON config {path}: {exc}") from exc


def _stencil(cfg: dict, problem):
    """The stencil a problem object asks for (reach 3 by default)."""
    from . import solver
    return solver.make_stencil(problem.ndim, reach=cfg.get("stencil_reach", 3))


def _write_solve(rep, grid_path, csv_path) -> list:
    """Write a solve's solution grid and its convergence CSV; return both paths."""
    from . import grids
    grids.write_grid(grid_path, rep.solution)
    symmat.write_text(csv_path, ["iteration,residual_sup\n", *symmat.csv_lines(rep.history)])
    return [str(grid_path), str(csv_path)]


# -- subcommands ----------------------------------------------------------------


def _cmd_cone(args) -> tuple:
    from . import cones
    if not args.matrix and args.mode:
        raise DomainError("--mode tests the membership of a --matrix")
    spec = cones.parse_cone(args.spec, args.dim)
    if args.matrix:
        A = symmat.read_matrix_csv(args.matrix)
        rep = cones.contains(spec, A, mode=args.mode or "closed")
        report = {"report": "membership", "cone": spec.describe(), "dim": spec.dim}
        report.update(rep.to_dict())
        return report, 0 if report["member"] else MATH_EXIT
    samples = cones.SPHERE_SAMPLES if args.samples is None else args.samples
    rc = cones.riesz_characteristic(spec, sphere_samples=samples)
    report = {
        "cone": spec.describe(),
        "dim": spec.dim,
        "dual_description": cones.dual_description(spec),
        "o_n_invariant": spec.o_n_invariant,
    }
    report.update(rc.to_dict())
    return report, 0


def _cmd_check(args) -> tuple:
    from . import cones
    report = {"kind": args.kind, "dim": args.dim, "samples": args.samples}
    if args.kind == "pp-subset":
        M = cones.parse_cone(args.m, args.dim)
        report["m"] = M.describe()
        result = cones.pp_subset_test(M, args.p, sphere_samples=args.samples)
    else:
        cfg = cones.SampleConfig(seed=args.seed, count=args.samples)
        F = cones.parse_cone(args.f, args.dim)
        report["f"] = F.describe()
        if args.kind == "duality":
            result = cones.check_duality(F, cfg)
        else:
            M = (cones.positivity(args.dim) if args.kind == "positivity"
                 else cones.parse_cone(args.m, args.dim))
            report["m"] = M.describe()
            result = cones.check_relation(F, M, cfg)
    report.update(result.to_dict())
    return report, 0 if result.passed else MATH_EXIT


def _cmd_kernel(args) -> tuple:
    from . import riesz
    spec = riesz.RieszKernelSpec(p=args.p, n=args.dim)
    x = _parse_vector(args.x)
    report = {"p": args.p, "dim": args.dim, "x": x.tolist()}
    if args.measure:
        mu = riesz.read_measure_csv(args.measure)
        jet = riesz.potential_jet(spec, mu, x)
        if isinstance(jet, float):
            report["value"] = None if np.isneginf(jet) else jet
            report["pole"] = True
        else:
            report["jet"] = jet.to_dict()
            report["value"] = jet.value
    else:
        jet = riesz.kernel_jet(spec, x)
        report["jet"] = jet.to_dict()
        report["value"] = jet.value
    return report, 0


def _cmd_polar(args) -> tuple:
    from . import grids, riesz
    if bool(args.grid) != bool(args.grid_output):
        raise DomainError("--grid and --grid-output need each other")
    points = symmat.read_vectors_csv(args.points)
    polar = riesz.build_polar(points, args.p)
    report = {
        "p": float(args.p),
        "dim": int(points.shape[1]),
        "atoms": int(points.shape[0]),
        "grid_output": args.grid_output,
        "box_dimension": None,
    }
    if args.box_scales:
        scales = _parse_vector(args.box_scales)
        report["box_dimension"] = riesz.box_dimension(points, scales)
        report["box_dimension_note"] = (
            "advisory sampled estimate; compare against p - 2 = "
            f"{args.p - 2:g} when judging removability size hypotheses"
        )
    if args.grid_output:
        shape, origin, h = grids.parse_geometry(args.grid)
        coords = grids.grid_coordinates(shape, origin, h)
        pts = np.stack([c.reshape(-1) for c in coords], axis=1)
        vals = polar.values(pts).reshape(shape)
        mask = np.isneginf(vals)
        grids.write_grid(args.grid_output, grids.GridFunction(vals, origin, h, mask))
    return report, 0


def _cmd_grid(args) -> tuple:
    from . import grids
    u = grids.read_grid(args.input)
    report = {"action": args.action, "output": args.grid_output}
    code = 0
    if args.action == "extend":
        cap = grids.EXTENSION_RADIUS_CAP if args.radius_cap is None else args.radius_cap
        ext = grids.canonical_extension(u, radius_cap=cap)
        report.update(ext.to_dict())
        if args.grid_output:
            grids.write_grid(args.grid_output, ext.extended)
    elif args.action == "verify":
        from . import cones
        rep = grids.subharmonic_verify(u, cones.parse_cone(args.cone, u.ndim))
        report["verification"] = rep.to_dict()
        code = 0 if rep.passed else MATH_EXIT
    elif args.action == "perturb":
        psi = grids.read_grid(args.psi)
        grids.write_grid(args.grid_output, grids.perturb(u, psi, args.eps))
    else:
        try:
            idx = tuple(int(tok) for tok in args.at.split(","))
        except ValueError as exc:
            raise DomainError(f"could not parse grid index {args.at!r}: {exc}") from exc
        report["jet"] = grids.discrete_hessian(u, idx).to_dict()
    return report, code


def _cmd_solve(args) -> tuple:
    from . import solver
    cfg = _load_json(args.problem)
    problem = solver.problem_from_config(cfg)
    max_iter = solver.POLICY_STEP_CAP if args.max_iter is None else args.max_iter
    rep = solver.solve(problem, _stencil(cfg, problem), tol=args.tol, max_iter=max_iter)
    report = {"solve": rep.to_dict(), "solution_file": None, "convergence_file": None}
    if args.output_prefix:
        report["solution_file"], report["convergence_file"] = _write_solve(
            rep, args.output_prefix + ".grid", args.output_prefix + "_convergence.csv")
    return report, 0 if rep.converged else MATH_EXIT


def _experiment_removability(cfg, outdir: Path, report: dict) -> tuple:
    from . import solver
    problem = solver.problem_from_config(cfg["problem"])
    # only the keys the config holds: the experiment keeps the defaults
    opts = {key: val for key, val in cfg.items() if key in ("polar_p", "tol")}
    rep = solver.removability_experiment(
        problem, cfg["puncture"], stencil=_stencil(cfg["problem"], problem), **opts)
    report["removability"] = rep.to_dict()
    report["outputs"] = [
        path
        for name, sol in (("full", rep.full), ("punctured", rep.punctured))
        for path in _write_solve(sol, outdir / f"solution_{name}.grid",
                                 outdir / f"convergence_{name}.csv")
    ]
    return rep.passed, {"sup_gap": rep.sup_gap, "masked_gap": rep.masked_gap}


def _experiment_convergence(cfg, outdir: Path, report: dict) -> tuple:
    from . import grids, solver
    base = solver.problem_from_config(cfg["problem"])
    if len(set(base.shape)) > 1:
        raise DomainError("convergence experiment refines every axis alike, so it needs "
                          f"the same number of points on each, got shape {list(base.shape)}")
    span = (base.shape[0] - 1) * base.h
    for nside in cfg["resolutions"]:  # every size before any solve
        grids.check_point_count([nside] * base.ndim)
    rows = []
    for nside in cfg["resolutions"]:
        grid = {"shape": [nside] * base.ndim, "origin": base.origin.tolist(),
                "h": span / (nside - 1)}
        problem_cfg = dict(cfg["problem"], grid=grid)
        problem = solver.problem_from_config(problem_cfg)
        unk = problem.unknown_mask()
        exact = problem.boundary_values
        peak = float(np.max(np.abs(exact[unk])))
        if peak == 0.0:
            raise DomainError(
                "convergence experiment needs boundary data that do not vanish "
                "on the unknowns (relative errors divide by their maximum)"
            )
        rep = solver.solve(problem, _stencil(problem_cfg, problem), tol=cfg.get("tol", 1e-9))
        err = float(np.max(np.abs(rep.solution.values[unk] - exact[unk])))
        rel = err / peak
        rows.append((problem.h, err, rel))
    path = outdir / "errors.csv"
    symmat.write_text(path, ["h,sup_error,rel_error\n", *symmat.csv_lines(rows)])
    report["errors"] = [
        {"h": h, "sup_error": e, "rel_error": r} for h, e, r in rows
    ]
    report["outputs"] = [str(path)]
    return True, {
        "monotone_decreasing": all(a[1] > b[1] for a, b in zip(rows, rows[1:])),
        "max_rel_error": float(np.max([r for _, _, r in rows])),  # a NaN fails the bound
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a field is (test, what its value must be); a criterion adds
# judge(measured value, bound) -> passed
_NUMBER = (_is_number, "a number")
_AT_MOST = _NUMBER + (lambda value, bound: value <= bound,)
_FLAG = (lambda v: isinstance(v, bool), "true or false", lambda holds, asked: holds or not asked)

# kind -> (runner, required fields, typed fields, pass criteria); a runner
# fills the report, writes its files and returns its verdict and each
# criterion's measured value.  Problem and puncture parsers check the rest.
_EXPERIMENTS = {
    "removability": (
        _experiment_removability,
        ("problem", "puncture"),
        {"tol": _NUMBER, "polar_p": (lambda v: v is None or _is_number(v), "a number or null")},
        {"sup_gap": _AT_MOST, "masked_gap": _AT_MOST},
    ),
    "convergence": (
        _experiment_convergence,
        ("problem", "resolutions"),
        {"tol": _NUMBER,
         "resolutions": (lambda v: isinstance(v, list) and v != []
                         and all(type(n) is int and n >= 2 for n in v),
                         "a non-empty list of integers >= 2")},
        {"monotone_decreasing": _FLAG, "max_rel_error": _AT_MOST},
    ),
}


def _cmd_experiment(args) -> tuple:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise DomainError("experiment config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in _EXPERIMENTS:
        raise DomainError(f"experiment kind must be removability/convergence, got {kind!r}")
    run, required, fields, criteria = _EXPERIMENTS[kind]
    missing = [key for key in required if key not in cfg]
    if missing:
        raise DomainError(f"{kind} experiment config is missing {', '.join(missing)}")
    crit = cfg.get("pass_criteria") or {}
    if not isinstance(crit, dict):
        raise DomainError(f"pass_criteria must be an object, got {crit!r}")
    unknown = [key for key in cfg if key not in ("kind", "pass_criteria", *required, *fields)]
    if unknown:
        raise DomainError(f"{kind} experiment config has no field {unknown[0]!r} (problem "
                          "keys such as stencil_reach belong in the problem object)")
    unknown = [key for key in crit if key not in criteria]
    if unknown:
        raise DomainError(f"{kind} experiment has no pass criterion {unknown[0]!r} "
                          f"(its criteria: {', '.join(criteria)})")
    typed = {**fields, **criteria}
    for key, val in [*cfg.items(), *crit.items()]:
        if key in typed and not typed[key][0](val):
            raise DomainError(f"experiment field {key!r} must be {typed[key][1]}, got {val!r}")
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"could not create output directory {outdir}: {exc}") from exc
    report = {"command": "experiment", "kind": kind, "seed": args.seed, "outputs": []}
    passed, measured = run(cfg, outdir, report)
    for key, bound in crit.items():
        passed = passed and criteria[key][2](measured[key], bound)
    report["passed"] = bool(passed)
    # every file first, so that a failed write leaves stdout one report
    symmat.write_text(outdir / "report.json", [_json_text(report)])
    return report, 0 if passed else MATH_EXIT


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with a parse error, not argparse's text
        raise SpecParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conecalc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    seed = _default_seed()

    def common(p):
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--output", default=None, help="also write the JSON report here")

    p = sub.add_parser("cone", help="Riesz characteristic and dual of a cone")
    p.add_argument("--spec", required=True)
    p.add_argument("--dim", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    # the help names the default, not its value: reading it would load the
    # cone catalogue at every command's start-up
    source.add_argument("--samples", type=int, default=None,
                        help="default conecalc.cones.SPHERE_SAMPLES")
    source.add_argument("--matrix", default=None,
                        help="matrix CSV; report membership instead of the characteristic")
    p.add_argument("--mode", choices=["closed", "interior"], default=None, help="default closed")
    common(p)

    kinds = sub.add_parser("check", help="randomized certification suites").add_subparsers(
        dest="kind", required=True)
    for kind in ("positivity", "monotone", "duality", "pp-subset"):
        p = kinds.add_parser(kind)
        if kind != "pp-subset":
            p.add_argument("--f", required=True, help="cone under test")
        if kind in ("monotone", "pp-subset"):
            p.add_argument("--m", required=True, help="monotonicity cone / tested cone")
        p.add_argument("--dim", type=int, required=True)
        if kind == "pp-subset":
            p.add_argument("--p", type=float, required=True)
        p.add_argument("--samples", type=int, default=10000)
        common(p)

    p = sub.add_parser("kernel", help="kernel or potential 2-jets")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--x", required=True, help="point, comma separated")
    p.add_argument("--measure", default=None, help="atoms CSV (coords + weight column)")
    common(p)

    p = sub.add_parser("polar", help="polar function of a finite point set")
    p.add_argument("--points", required=True, help="points CSV, one per line")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid", default=None, help="'shape=.. origin=.. h=..' for sampling")
    p.add_argument("--grid-output", default=None, help="write the sampled grid here")
    p.add_argument("--box-scales", default=None, help="comma-separated box-counting scales")
    common(p)

    actions = sub.add_parser("grid", help="grid-function operations").add_subparsers(
        dest="action", required=True)
    grid = {action: actions.add_parser(action)
            for action in ("extend", "verify", "perturb", "hessian")}
    for p in grid.values():
        p.add_argument("--input", required=True, help="grid file")
    grid["extend"].add_argument("--radius-cap", type=int, default=None)
    grid["verify"].add_argument("--cone", required=True, help="cone spec")
    grid["perturb"].add_argument("--psi", required=True, help="perturbation grid file")
    grid["perturb"].add_argument("--eps", type=float, default=0.01)
    grid["hessian"].add_argument("--at", required=True, help="grid index, comma separated")
    for action, p in grid.items():
        if action in ("extend", "perturb"):
            p.add_argument("--grid-output", required=action == "perturb")
        else:
            p.set_defaults(grid_output=None)  # reported as "output": null
        common(p)

    p = sub.add_parser("solve", help="wide-stencil Dirichlet solve")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--output-prefix", default=None)
    common(p)

    p = sub.add_parser("experiment", help="removability / convergence pipelines")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    common(p)

    return parser


_COMMANDS = {
    "cone": _cmd_cone,
    "check": _cmd_check,
    "kernel": _cmd_kernel,
    "polar": _cmd_polar,
    "grid": _cmd_grid,
    "solve": _cmd_solve,
    "experiment": _cmd_experiment,
}


def exit_code(exc: ConecalcError) -> int:
    """Exit 1 for a mathematical failure, 2 for a usage or input error."""
    return MATH_EXIT if isinstance(exc, (UnsupportedPolarError, PoleError)) else USAGE_EXIT


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SpecParseError as exc:
        _emit({"error": {"kind": "usage", "message": str(exc)}}, None)
        return USAGE_EXIT
    try:
        report, code = _COMMANDS[args.subcommand](args)
        report.update(command=args.subcommand, seed=args.seed)
        _emit(report, args.output)
        return code
    except ConecalcError as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SpecParseError):
            error.update(kind="parse", position=exc.position)
        report = {"command": args.subcommand, "error": error}
        try:
            _emit(report, args.output)
        except DomainError:  # --output itself cannot be written
            _emit(report, None)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
