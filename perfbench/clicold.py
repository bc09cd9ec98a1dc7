"""Cold CLI calls: each subcommand as a fresh ``python -m conecalc.cli``.

What a shell user pays per call is mostly interpreter start and import;
the grid calls add 257^2 file I/O and the canonical extension, and
``solve``/``experiment`` add 65^2 solves.  The seed draws the matrix,
the masked cells, the quadratic on the grids, the polar atoms, the
kernel point and the puncture, and is passed to every call.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from conecalc import grids, schema
from conecalc.errors import ConecalcError

from core import child_env, median, tail

GRID_N = 257
MASKED_CELLS = 3000
HESSIAN_AT = (128, 128)


def _grid_geometry():
    h = 2.0 / (GRID_N - 1)
    return (GRID_N, GRID_N), np.array([-1.0, -1.0]), h


def write_inputs(seed, workdir):
    """Write every input file of the round; return the call list."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    shape, origin, h = _grid_geometry()
    X, Y = grids.grid_coordinates(shape, origin, h)
    a, b = rng.uniform(0.5, 1.5, 2)
    c, d, e = rng.uniform(-0.2, 0.2, 3)
    u = a * X * X + b * Y * Y + c * X * Y + d * X + e * Y  # convex
    keep_clear = np.zeros(shape, dtype=bool)
    i, j = HESSIAN_AT
    keep_clear[i - 2 : i + 3, j - 2 : j + 3] = True
    free = np.flatnonzero(~keep_clear)
    mask = np.zeros(shape, dtype=bool)
    mask.flat[rng.choice(free, MASKED_CELLS, replace=False)] = True
    grids.write_grid(
        workdir / "masked.grid",
        grids.GridFunction(np.where(mask, -np.inf, u), origin, h, mask),
    )

    # non-member of pp:2 in 3-D: the two smallest eigenvalues sum below 0
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    lam = np.array([-1.0 - rng.uniform(), rng.uniform(-0.5, 0.5), 1.0 + rng.uniform()])
    A = (q * lam) @ q.T
    A = 0.5 * (A + A.T)
    (workdir / "A.csv").write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in A)
    )
    pts = rng.uniform(-0.5, 0.5, (4, 2))
    (workdir / "points.csv").write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in pts)
    )
    x = rng.standard_normal(3)
    x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)

    hq = 2.0 / 64
    annulus = {
        "operator": "pp",
        "p": 1.5,
        "grid": {"shape": [65, 65], "origin": [-1, -1], "h": hq},
        "boundary": {"expr": "(x*x+y*y)**0.25"},
        "hole": {"min": [-0.125, -0.125], "max": [0.125, 0.125]},
    }
    (workdir / "annulus65.json").write_text(json.dumps(annulus))
    # acceptance criterion 7's quadratic case, punctured at a seeded node
    pi, pj = rng.integers(24, 41, 2)
    removability = {
        "kind": "removability",
        "problem": {
            "operator": "pp",
            "p": 2,
            "grid": {"shape": [65, 65], "origin": [-1, -1], "h": hq},
            "boundary": {"expr": "x*x - y*y"},
        },
        "puncture": [[-1.0 + hq * int(pi), -1.0 + hq * int(pj)]],
        "tol": 1e-10,
        "pass_criteria": {"sup_gap": 1e-6},
    }
    (workdir / "removability.json").write_text(json.dumps(removability))

    geometry = f"shape={GRID_N},{GRID_N} origin=-1,-1 h={h!r}"
    s = ["--seed", str(seed)]
    # (label, argv, expected exit code); order matters: polar writes psi
    return [
        ("cone", ["cone", "--spec", "pdelta:0.5", "--dim", "4", *s], 0),
        ("cone_matrix", ["cone", "--spec", "pp:2", "--dim", "3", "--matrix", "A.csv", *s], 1),
        ("check", ["check", "monotone", "--f", "mapb:2:1", "--m", "pp:2", "--dim", "4",
                   "--samples", "10000", *s], 0),
        ("kernel", ["kernel", "--p", "3", "--dim", "3",
                    "--x=" + ",".join(repr(float(v)) for v in x), *s], 0),
        ("polar", ["polar", "--points", "points.csv", "--p", "2", "--grid", geometry,
                   "--grid-output", "polar.grid", *s], 0),
        ("grid_extend", ["grid", "extend", "--input", "masked.grid",
                         "--grid-output", "extended.grid", *s], 0),
        ("grid_verify", ["grid", "verify", "--input", "masked.grid", "--cone", "pp:2", *s], 0),
        ("grid_perturb", ["grid", "perturb", "--input", "masked.grid", "--psi", "polar.grid",
                          "--eps", "0.01", "--grid-output", "perturbed.grid", *s], 0),
        ("grid_hessian", ["grid", "hessian", "--input", "masked.grid",
                          "--at", f"{HESSIAN_AT[0]},{HESSIAN_AT[1]}", *s], 0),
        ("solve", ["solve", "--problem", "annulus65.json", "--tol", "1e-10",
                   "--output-prefix", "annulus65", *s], 0),
        ("experiment", ["experiment", "--config", "removability.json",
                        "--output-dir", "removability", *s], 0),
    ]


def run_child(argv, cwd, env, out_path, err_path):
    """Run one process to completion: (exit code, seconds, max RSS in KiB)."""
    import subprocess

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


# report fields that count work and must repeat exactly
_REPORT_COUNTS = {
    "check": ("samples",),
    "grid_extend": ("changed_points",),
    "grid_verify": ("verification", "points_checked"),
    "solve": ("solve", "iterations"),
    "experiment": ("removability", "extension_changed"),
}


class CliCold:
    name = "cli-cold"
    round_s = 11.5
    min_rounds = 2  # stdout is compared between rounds

    def __init__(self, src, bench):
        self.env = child_env(src)
        self.child = bench / "cli_child.py"
        self.first_stdout = {}

    def setup(self, seed, workdir):
        return {"calls": write_inputs(seed, workdir), "workdir": Path(workdir)}

    def named_metrics(self, rounds):
        """Median and tail seconds per call."""
        times = [t for r in rounds for t in r.times.get("call", [])]
        t_tail, pct, n = tail(times)
        return {
            "cli_p50_s": (median(times), "s"),
            "cli_tail_s": (t_tail, "s"),
            "cli_tail_percentile": (pct, "%"),
            "cli_calls": (n, "count"),
            "calls_per_s": (len(times) / sum(times), "1/s"),
        }

    def run_round(self, inputs, rnd):
        wd = inputs["workdir"]
        traced = rnd.tracer is not None
        for label, argv, expect in inputs["calls"]:
            out_path, err_path = wd / f"{label}.out", wd / f"{label}.err"
            if traced:
                spans_path = wd / f"{label}.spans.json"
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(self.child), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "conecalc.cli", *argv]
            code, seconds, rss_kb = run_child(cmd, wd, self.env, out_path, err_path)
            rnd.add_time("call", seconds)
            rnd.child_rss_kb = max(rnd.child_rss_kb, rss_kb)
            stdout = out_path.read_bytes()
            rnd.count("report_bytes", len(stdout))
            if traced and spans_path.exists():
                child = json.loads(spans_path.read_text())
                child["subcommand"] = argv[0]
                rnd.spans.append(child)
            if not rnd.check(code == expect, label,
                             f"exit {code}, expected {expect}: "
                             f"{err_path.read_text(errors='replace')[-300:]}"):
                continue
            try:
                report = json.loads(stdout)
                schema.validate_report(report)
            except (ValueError, ConecalcError) as exc:
                rnd.fail(label, f"report invalid: {exc}")
                continue
            first = self.first_stdout.setdefault(label, stdout)
            rnd.check(first == stdout, label, "stdout differs from the first round")
            path = _REPORT_COUNTS.get(label)
            if path:
                val = report
                for part in path:
                    val = val[part]
                rnd.count(f"{label}.{path[-1]}", int(val))
