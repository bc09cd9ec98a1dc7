"""Command-line front end.

One binary, subcommand style.  Every command emits a single JSON report
(validating against the shipped schema), echoes its seed, and uses the
stable exit-code contract: 0 pass, 1 mathematical failure or
counterexample, 2 usage or parse error.  Identical flags and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import cones, grids, riesz, solver, symmat
from .errors import (
    ConecalcError,
    DomainError,
    PoleError,
    SamplingError,
    SpecParseError,
    UnsupportedPolarError,
)

USAGE_EXIT = 2
MATH_EXIT = 1


def _default_seed() -> int:
    try:
        return int(os.environ.get("CONECALC_SEED", "0"))
    except ValueError:
        return 0


def _emit(report: dict, output) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise DomainError(f"could not parse vector {text!r}: {exc}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DomainError(f"could not read JSON config {path}: {exc}") from exc


def _stencil(cfg: dict, problem) -> solver.StencilSet:
    """The stencil a problem or experiment config asks for (reach 3 by default)."""
    return solver.make_stencil(problem.ndim, reach=cfg.get("stencil_reach", 3))


def _write_convergence_csv(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual_sup"])
        for it, res in history:
            writer.writerow([it, repr(float(res))])


# -- subcommands ----------------------------------------------------------------


def _cmd_cone(args) -> int:
    spec = cones.parse_cone(args.spec, args.dim)
    if args.matrix:
        A = symmat.read_matrix_csv(args.matrix)
        if args.dual:
            rep = cones.dual_contains(spec, A)
        else:
            rep = cones.contains(spec, A, mode=args.mode)
        report = {
            "command": "cone",
            "report": "membership",
            "cone": spec.describe(),
            "dim": spec.dim,
            "dual": bool(args.dual),
            "seed": args.seed,
        }
        report.update(rep.to_dict())
        _emit(report, args.output)
        return 0 if report["member"] else MATH_EXIT
    rc = cones.riesz_characteristic(spec, tol=args.tol, sphere_samples=args.samples)
    report = {
        "command": "cone",
        "cone": spec.describe(),
        "dim": spec.dim,
        "riesz_characteristic": rc.value,
        "closed_form": rc.closed_form,
        "at_cap": rc.at_cap,
        "sampled": rc.sampled,
        "dual_description": cones.dual_description(spec),
        "o_n_invariant": spec.o_n_invariant,
        "seed": args.seed,
    }
    _emit(report, args.output)
    return 0


@np.errstate(over="ignore", invalid="ignore")
def _duality_check(spec: cones.ConeSpec, cfg: cones.SampleConfig):
    """Fast-path versus definitional dual membership on random samples;
    overflow at a huge magnitude raises a typed error, as in
    ``cones.check_relation``."""
    rng = np.random.default_rng(cfg.seed)
    mats = cones.sample_goe(rng, spec.dim, cfg.count, cfg.magnitude)
    definitional = cones.margins(cones.dual_cone(spec), mats)
    fast = cones.dual_fast_margins(spec, mats)
    if fast is None:
        # no closed form: check the duality involution instead
        fast = cones.margins(cones.dual_cone(cones.dual_cone(spec)), mats)
        definitional = cones.margins(spec, mats)
    if not (np.all(np.isfinite(definitional)) and np.all(np.isfinite(fast))):
        raise SamplingError("margins overflow; try a smaller magnitude")
    band = cones.thresholds(mats, "interior")
    decided = (np.abs(definitional) > band) & (np.abs(fast) > band)
    agree = (definitional > 0) == (fast > 0)
    bad = np.nonzero(decided & ~agree)[0]
    if bad.size == 0:
        return True, None
    i = int(bad[0])
    return False, {
        "sample_index": i,
        "A": mats[i].tolist(),
        "definitional_margin": float(definitional[i]),
        "fast_margin": float(fast[i]),
    }


def _cmd_check(args) -> int:
    cfg = cones.SampleConfig(seed=args.seed, count=args.samples, magnitude=args.magnitude)
    report = {
        "command": "check",
        "kind": args.kind,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.kind in ("positivity", "monotone", "duality") and not args.f:
        raise DomainError(f"check {args.kind} needs --f")
    if args.kind in ("monotone", "pp-subset") and not args.m:
        raise DomainError(f"check {args.kind} needs --m")
    if args.kind in ("positivity", "monotone"):
        F = cones.parse_cone(args.f, args.dim)
        M = (
            cones.positivity(args.dim)
            if args.kind == "positivity"
            else cones.parse_cone(args.m, args.dim)
        )
        rel = cones.check_relation(F, M, cfg)
        report.update({"f": F.describe(), "m": M.describe(), "passed": rel.passed})
        if not rel.passed:
            report["counterexample"] = rel.to_dict()["counterexample"]
            report["margins"] = rel.to_dict()["margins"]
    elif args.kind == "duality":
        F = cones.parse_cone(args.f, args.dim)
        passed, counter = _duality_check(F, cfg)
        report.update({"f": F.describe(), "passed": passed})
        if counter:
            report["counterexample"] = counter
    elif args.kind == "pp-subset":
        M = cones.parse_cone(args.m, args.dim)
        if args.p is None:
            raise DomainError("pp-subset needs --p")
        sub = cones.pp_subset_test(M, args.p, sphere_samples=max(args.samples, 1))
        report.update({"m": M.describe(), "p": float(args.p), "passed": sub.passed})
        if not sub.passed:
            report["counterexample"] = {
                "e": sub.counterexample.tolist(),
                "margin": sub.margin,
            }
    _emit(report, args.output)
    return 0 if report["passed"] else MATH_EXIT


def _cmd_kernel(args) -> int:
    spec = riesz.RieszKernelSpec(p=args.p, n=args.dim)
    x = _parse_vector(args.x)
    report = {"command": "kernel", "p": args.p, "dim": args.dim, "x": x.tolist(),
              "seed": args.seed}
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
    _emit(report, args.output)
    return 0


def _cmd_polar(args) -> int:
    points = symmat.read_vectors_csv(args.points)
    polar = riesz.build_polar(points, args.p)
    report = {
        "command": "polar",
        "p": float(args.p),
        "dim": int(points.shape[1]),
        "atoms": int(points.shape[0]),
        "seed": args.seed,
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
        if not args.grid:
            raise DomainError("--grid-output needs --grid geometry")
        shape, origin, h = grids.parse_geometry(args.grid)
        coords = grids.grid_coordinates(shape, origin, h)
        pts = np.stack([c.reshape(-1) for c in coords], axis=1)
        vals = polar.values(pts).reshape(shape)
        mask = np.isneginf(vals)
        grids.write_grid(args.grid_output, grids.GridFunction(vals, origin, h, mask))
    _emit(report, args.output)
    return 0


def _cmd_grid(args) -> int:
    u = grids.read_grid(args.input)
    report = {"command": "grid", "action": args.action, "seed": args.seed,
              "output": args.grid_output}
    code = 0
    if args.action == "extend":
        ext = grids.canonical_extension(u, radius_cap=args.radius_cap)
        report["changed_points"] = ext.changed_points
        report["sup_change"] = (
            float(ext.sup_change) if np.isfinite(ext.sup_change) else None
        )
        if args.grid_output:
            grids.write_grid(args.grid_output, ext.extended)
    elif args.action == "verify":
        if not args.cone:
            raise DomainError("grid verify needs --cone")
        spec = cones.parse_cone(args.cone, u.ndim)
        rep = grids.subharmonic_verify(u, spec, c_tol=args.c_tol)
        report["verification"] = rep.to_dict()
        code = 0 if rep.passed else MATH_EXIT
    elif args.action == "perturb":
        if not args.psi or not args.grid_output:
            raise DomainError("grid perturb needs --psi and --grid-output")
        psi = grids.read_grid(args.psi)
        grids.write_grid(args.grid_output, grids.perturb(u, psi, args.eps))
    elif args.action == "hessian":
        if not args.at:
            raise DomainError("grid hessian needs --at")
        try:
            idx = tuple(int(tok) for tok in args.at.split(","))
        except ValueError as exc:
            raise DomainError(f"could not parse grid index {args.at!r}: {exc}") from exc
        report["jet"] = grids.discrete_hessian(u, idx).to_dict()
    _emit(report, args.output)
    return code


def _cmd_solve(args) -> int:
    cfg = _load_json(args.problem)
    problem = solver.problem_from_config(cfg)
    rep = solver.solve(problem, _stencil(cfg, problem), tol=args.tol, max_iter=args.max_iter)
    report = {
        "command": "solve",
        "solve": rep.to_dict(),
        "seed": args.seed,
        "solution_file": None,
        "convergence_file": None,
    }
    if args.output_prefix:
        sol_path = args.output_prefix + ".grid"
        conv_path = args.output_prefix + "_convergence.csv"
        grids.write_grid(sol_path, rep.solution)
        _write_convergence_csv(conv_path, rep.history)
        report["solution_file"] = sol_path
        report["convergence_file"] = conv_path
    _emit(report, args.output)
    return 0 if rep.converged else MATH_EXIT


def _experiment_removability(cfg, outdir: Path, report: dict) -> bool:
    problem = solver.problem_from_config(cfg["problem"])
    rep = solver.removability_experiment(
        problem,
        cfg["puncture"],
        polar_p=cfg.get("polar_p"),
        stencil=_stencil(cfg, problem),
        tol=cfg.get("tol", 1e-9),
        eps_values=tuple(cfg.get("eps", (1e-2, 1e-3))),
        gap_constant=cfg.get("gap_constant", 5.0),
    )
    report["removability"] = rep.to_dict()
    outputs = []
    for name, sol in (("full", rep.full), ("punctured", rep.punctured)):
        path = outdir / f"solution_{name}.grid"
        grids.write_grid(path, sol.solution)
        outputs.append(str(path))
        conv = outdir / f"convergence_{name}.csv"
        _write_convergence_csv(conv, sol.history)
        outputs.append(str(conv))
    report["outputs"] = outputs
    passed = rep.passed
    for key, bound in (cfg.get("pass_criteria") or {}).items():
        if key == "sup_gap":
            passed = passed and rep.sup_gap <= bound
        elif key == "masked_gap":
            passed = passed and rep.masked_gap <= bound
    return passed


def _experiment_solve(cfg, outdir: Path, report: dict) -> bool:
    problem = solver.problem_from_config(cfg["problem"])
    rep = solver.solve(problem, _stencil(cfg, problem), tol=cfg.get("tol", 1e-8))
    report["solve"] = rep.to_dict()
    sol_path = outdir / "solution.grid"
    conv_path = outdir / "convergence.csv"
    grids.write_grid(sol_path, rep.solution)
    _write_convergence_csv(conv_path, rep.history)
    report["outputs"] = [str(sol_path), str(conv_path)]
    passed = rep.converged
    crit = cfg.get("pass_criteria") or {}
    if "residual_sup" in crit:
        passed = passed and rep.residual_sup <= crit["residual_sup"]
    return passed


def _experiment_convergence(cfg, outdir: Path, report: dict) -> bool:
    base = solver.problem_from_config(cfg["problem"])
    span = (base.shape[0] - 1) * base.h
    rows = []
    for nside in cfg["resolutions"]:
        grid = {"shape": [nside] * base.ndim, "origin": base.origin.tolist(),
                "h": span / (nside - 1)}
        problem = solver.problem_from_config(dict(cfg["problem"], grid=grid))
        unk = problem.unknown_mask()
        exact = problem.boundary_values
        peak = float(np.max(np.abs(exact[unk])))
        if peak == 0.0:
            raise DomainError(
                "convergence experiment needs boundary data that do not vanish "
                "on the unknowns (relative errors divide by their maximum)"
            )
        rep = solver.solve(problem, _stencil(cfg, problem), tol=cfg.get("tol", 1e-9))
        err = float(np.max(np.abs(rep.solution.values[unk] - exact[unk])))
        rel = err / peak
        rows.append((problem.h, err, rel))
    path = outdir / "errors.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "sup_error", "rel_error"])
        for row in rows:
            writer.writerow([repr(v) for v in row])
    report["errors"] = [
        {"h": h, "sup_error": e, "rel_error": r} for h, e, r in rows
    ]
    report["outputs"] = [str(path)]
    passed = True
    crit = cfg.get("pass_criteria") or {}
    if crit.get("monotone_decreasing"):
        passed = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    if "max_rel_error" in crit:
        passed = passed and all(r <= crit["max_rel_error"] for _, _, r in rows)
    return passed


_EXPERIMENT_KEYS = {
    "removability": ("problem", "puncture"),
    "solve": ("problem",),
    "convergence": ("problem", "resolutions"),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_experiment_fields(cfg: dict) -> None:
    """Reject optional experiment fields of the wrong type up front."""
    crit = cfg.get("pass_criteria") or {}
    if not isinstance(crit, dict):
        raise DomainError(f"pass_criteria must be an object, got {crit!r}")
    numbers = [(key, cfg[key]) for key in ("tol", "gap_constant") if key in cfg]
    if cfg.get("polar_p") is not None:
        numbers.append(("polar_p", cfg["polar_p"]))
    numbers += [(key, crit[key]) for key in
                ("sup_gap", "masked_gap", "residual_sup", "max_rel_error") if key in crit]
    for key, val in numbers:
        if not _is_number(val):
            raise DomainError(f"experiment field {key!r} must be a number, got {val!r}")
    eps = cfg.get("eps", [])
    if not (isinstance(eps, list) and all(map(_is_number, eps))):
        raise DomainError(f"eps must be a list of numbers, got {eps!r}")
    res = cfg.get("resolutions", [])
    if not (isinstance(res, list) and all(type(n) is int and n >= 2 for n in res)):
        raise DomainError(f"resolutions must be a list of integers >= 2, got {res!r}")


def _cmd_experiment(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise DomainError("experiment config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in _EXPERIMENT_KEYS:
        raise DomainError(f"experiment kind must be removability/solve/convergence, got {kind!r}")
    missing = [key for key in _EXPERIMENT_KEYS[kind] if key not in cfg]
    if missing:
        raise DomainError(f"{kind} experiment config is missing {', '.join(missing)}")
    _check_experiment_fields(cfg)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {"command": "experiment", "kind": kind, "seed": args.seed, "outputs": []}
    if kind == "removability":
        passed = _experiment_removability(cfg, outdir, report)
    elif kind == "solve":
        passed = _experiment_solve(cfg, outdir, report)
    else:
        passed = _experiment_convergence(cfg, outdir, report)
    report["passed"] = bool(passed)
    _emit(report, args.output)
    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if passed else MATH_EXIT


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
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=250)
    p.add_argument("--matrix", default=None,
                   help="matrix CSV; report membership instead of the characteristic")
    p.add_argument("--mode", choices=["closed", "interior"], default="closed")
    p.add_argument("--dual", action="store_true", help="test dual membership")
    common(p)

    p = sub.add_parser("check", help="randomized certification suites")
    p.add_argument("kind", choices=["positivity", "monotone", "duality", "pp-subset"])
    p.add_argument("--f", default=None, help="cone under test")
    p.add_argument("--m", default=None, help="monotonicity cone / tested cone")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--magnitude", type=float, default=1.0)
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

    p = sub.add_parser("grid", help="grid-function operations")
    p.add_argument("action", choices=["extend", "verify", "perturb", "hessian"])
    p.add_argument("--input", required=True, help="grid file")
    p.add_argument("--cone", default=None, help="cone spec for verify")
    p.add_argument("--c-tol", type=float, default=None)
    p.add_argument("--psi", default=None, help="perturbation grid file")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--at", default=None, help="grid index, comma separated")
    p.add_argument("--radius-cap", type=int, default=grids.EXTENSION_RADIUS_CAP)
    p.add_argument("--grid-output", default=None)
    common(p)

    p = sub.add_parser("solve", help="wide-stencil Dirichlet solve")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=solver.POLICY_STEP_CAP)
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
        return _COMMANDS[args.subcommand](args)
    except ConecalcError as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SpecParseError):
            error.update(kind="parse", position=exc.position)
        _emit({"command": args.subcommand, "error": error}, args.output)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
