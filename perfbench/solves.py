"""The two solver workloads: the 2-D policy-iteration flagship and the
3-D min-max form that only Jacobi can solve.

Both run fixed cases (acceptance criterion 6; the solver tests' 3-D
min-max case on the full reach-3 stencil), so their inputs do not
depend on the seed: perturbing the data would move the accuracy
reference and the round-off that decides the known 257^2 convergence
report.
"""

from __future__ import annotations

import numpy as np
from conecalc import solver

from core import median


def annulus_config(nside, p=1.5, a=0.125):
    """Acceptance criterion 6: pp:1.5, data (x^2+y^2)^(1/4), hole [-a, a]^2."""
    h = 2.0 / (nside - 1)
    return {
        "operator": "pp",
        "p": p,
        "grid": {"shape": [nside, nside], "origin": [-1, -1], "h": h},
        "boundary": {"expr": "(x*x+y*y)**0.25"},
        "hole": {"min": [-a, -a], "max": [a, a]},
    }


def minmax_config(nside):
    """Second eigenvalue branch in 3-D with an indefinite quadratic datum."""
    return {
        "operator": "branch",
        "k": 2,
        "grid": {"shape": [nside] * 3, "origin": [-1, -1, -1], "h": 2.0 / (nside - 1)},
        "boundary": {"expr": "x*x - 0.5*y*y - 0.5*z*z + 0.1*x"},
    }


def _solve_metrics(rounds, labels):
    """Median seconds of each solve size; unknowns solved per second."""
    out = {f"{k}_s": (median([t for r in rounds for t in r.times.get(k, [])]), "s")
           for k in labels}
    busy = sum(r.wall for r in rounds)
    out["unknowns_per_s"] = (sum(r.counts.get("unknowns", 0) for r in rounds) / busy, "1/s")
    return out


def _rel_error(problem, rep):
    unk = problem.unknown_mask()
    err = np.max(np.abs(rep.solution.values[unk] - problem.boundary_values[unk]))
    return float(err / np.max(np.abs(problem.boundary_values[unk])))


class Policy2D:
    name = "policy-2d"
    round_s = 25.0
    min_rounds = 1
    tol = 1e-10
    # the 129^2 solve is repeated: single timings of it spread by ~20%
    plan = (129, 129, 257)

    def setup(self, seed, workdir):
        return {n: solver.problem_from_config(annulus_config(n)) for n in set(self.plan)}

    def named_metrics(self, rounds):
        return _solve_metrics(rounds, ("solve_129", "solve_257"))

    def warm_up(self, inputs):
        solver.solve(solver.problem_from_config(annulus_config(17)), tol=self.tol)

    def run_round(self, inputs, rnd):
        rel = {}
        for n in self.plan:
            label = f"solve_{n}"
            problem = inputs[n]
            rep = rnd.call(label, solver.solve, problem, tol=self.tol)
            if rep is None:
                continue
            rnd.count("unknowns", int(problem.unknown_mask().sum()))
            steps = rnd.counts.setdefault(f"{label}.policy_steps", rep.iterations)
            rnd.check(steps == rep.iterations, label, "policy steps differ between repeats")
            err = _rel_error(problem, rep)
            rnd.check(rep.converged, label,
                      f"reported converged=False at residual {rep.residual_sup:.3e}",
                      wrong=False)
            if n == 129:
                rnd.check(err <= 0.02, label, f"relative error {err:.5f} > 0.02")
            rel.setdefault(n, err)
            rnd.check(rel[n] == err, label, "solution differs between repeats")
        if 129 in rel and 257 in rel:
            rnd.check(rel[257] < rel[129], "solve_257",
                      f"relative error {rel[257]:.5f} not below 129^2's {rel[129]:.5f}")


class MinMax3D:
    name = "minmax-3d"
    round_s = 15.0
    min_rounds = 1
    tol = 1e-8
    reach = 3
    plan = (9, 11)

    def setup(self, seed, workdir):
        stencil = solver.make_stencil(3, self.reach)
        problems = {n: solver.problem_from_config(minmax_config(n)) for n in self.plan}
        return {"stencil": stencil, "problems": problems}

    def named_metrics(self, rounds):
        return _solve_metrics(rounds, ("solve3d_9", "solve3d_11"))

    def run_round(self, inputs, rnd):
        stencil = inputs["stencil"]
        for n in self.plan:
            label = f"solve3d_{n}"
            problem = inputs["problems"][n]
            rep = rnd.call(label, solver.solve, problem, stencil=stencil,
                           tol=self.tol, max_iter=100_000)
            if rep is None:
                continue
            rnd.count("unknowns", int(problem.unknown_mask().sum()))
            rnd.count(f"{label}.jacobi_iters", int(rep.iterations))
            rnd.check(rep.converged, label,
                      f"not converged after {rep.iterations} iterations", wrong=False)
            worst = _worst_interior_residual(rep.solution, problem.operator, stencil, self.reach)
            rnd.check(worst <= self.tol, label,
                      f"pointwise residual {worst:.3e} > tol {self.tol:g}")


def _worst_interior_residual(u, op, stencil, reach):
    """Largest |solver.residual| over points the full stencil reaches."""
    inner = [range(reach, s - reach) for s in u.shape]
    worst = 0.0
    for idx in np.ndindex(*[len(r) for r in inner]):
        point = tuple(r[i] for r, i in zip(inner, idx))
        worst = max(worst, abs(solver.residual(u, point, op, stencil)))
    return worst
