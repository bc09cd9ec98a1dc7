"""conecalc benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: policy-2d, minmax-3d, certify, cli-cold (see README.md).  Each
runs in this one process as a closed loop with one client: operations
follow one another, and cli-cold waits for each child process before
starting the next.  ``--seconds`` sets how many rounds of the workload's
operations are measured (``seconds // round_s``, at least the
workload's minimum), so every commit measures the same work.

With ``--trace 0`` the last line of stdout is the result with every
end-to-end metric.  With ``--trace 1`` the rounds run once untraced and
once with spans around the calls into conecalc's public functions, and
the result holds every per-layer metric.  The line before the result
holds the details: the metrics under the names the workload knows them
by, failures, counts and the machine stamp.  Both are also written under
``perfbench/out/``.

Exit status is 0 when the benchmark ran, whatever its checks found, and
non-zero, without a result line, when it could not run (for example
when the checkout has no ``src/conecalc``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
from core import Round, child_env, median
from machine import stamp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120

# metrics every workload has; each workload's own figures (solve_257_s,
# cli_p50_s, ...) go into the details, see README.md
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

SUBCOMMANDS = ("cone", "check", "kernel", "polar", "grid", "solve", "experiment")

# per-layer metric -> (span name, figure summed over the traced rounds)
SPAN_METRICS = {
    "solver.spsolve_s": ("solver.spsolve", "seconds"),
    "solver.spsolve_calls": ("solver.spsolve", "calls"),
    "solver.spsolve_unknowns": ("solver.spsolve", "unknowns"),
    "solver.spsolve_nnz": ("solver.spsolve", "nnz"),
    "solver.solve_s": ("solver.solve", "seconds"),
    "solver.solve_self_s": ("solver.solve", "self_seconds"),
    "solver.jacobi_iters": ("solver.solve", "jacobi_iters"),
    "solver.policy_steps": ("solver.solve", "policy_steps"),
    "solver.removability_experiment_s": ("solver.removability_experiment", "seconds"),
    "solver.problem_from_config_s": ("solver.problem_from_config", "seconds"),
    "cones.check_relation_s": ("cones.check_relation", "seconds"),
    "cones.samples": ("cones.check_relation", "samples"),
    "cones.force_membership_s": ("cones.force_membership", "seconds"),
    "cones.margins_s": ("cones.margins", "seconds"),
    "cones.margin_matrices": ("cones.margins", "matrices"),
    "cones.pp_subset_test_s": ("cones.pp_subset_test", "seconds"),
    "cones.riesz_characteristic_s": ("cones.riesz_characteristic", "seconds"),
    "symmat.eigvalsh_s": ("symmat.eigvalsh", "seconds"),
    "symmat.eigvalsh_matrices": ("symmat.eigvalsh", "matrices"),
    "grids.canonical_extension_s": ("grids.canonical_extension", "seconds"),
    "grids.extension_changed_points": ("grids.canonical_extension", "changed_points"),
    "grids.subharmonic_verify_s": ("grids.subharmonic_verify", "seconds"),
    "grids.points_checked": ("grids.subharmonic_verify", "points_checked"),
    "grids.perturb_s": ("grids.perturb", "seconds"),
    "grids.read_grid_s": ("grids.read_grid", "seconds"),
    "grids.write_grid_s": ("grids.write_grid", "seconds"),
    "riesz.build_polar_s": ("riesz.build_polar", "seconds"),
    "riesz.polar_values_s": ("riesz.polar_values", "seconds"),
    "riesz.polar_points": ("riesz.polar_values", "points"),
    "riesz.kernel_jet_s": ("riesz.kernel_jet", "seconds"),
}

# counts that must repeat exactly between runs of the same code
GUARDED_COUNTS = (
    "solver.policy_steps",
    "solver.jacobi_iters",
    "solver.spsolve_calls",
    "solver.spsolve_nnz",
    "cones.samples",
    "symmat.eigvalsh_matrices",
    "grids.points_checked",
    "grids.extension_changed_points",
)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(repr(time.perf_counter() - t))"
)


def per_layer_names():
    names = list(SPAN_METRICS) + ["grids.file_bytes"]
    names += ["cli.import_s", "cli.interp_floor_s", "cli.report_bytes"]
    names += [f"cli.main_s.{c}" for c in SUBCOMMANDS]
    return names + ["trace.overhead_s"]


def unit_of(name):
    if name.endswith("_s") or ".main_s." in name:
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def make_workloads():
    from certify import Certify
    from clicold import CliCold
    from solves import MinMax3D, Policy2D

    return {w.name: w for w in (Policy2D(), MinMax3D(), Certify(), CliCold(SRC, BENCH))}


# -- children ----------------------------------------------------------------------


def timed_setups(workload, seed):
    """Wall seconds of cold set-ups: interpreter, imports, input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            check=True, env=child_env(SRC), stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(perf_counter() - t0)
    return times


def import_seconds(module):
    """Median in-process seconds of a cold ``import module``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(module=module)],
            check=True, env=child_env(SRC), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(float(out.stdout.strip()))
    return median(times)


# -- determinism guard -------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted(BENCH.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def guard_counts(rounds, counts, state_path, digest, mode):
    """Compare counts between rounds and with earlier runs of the same code.

    Each mismatch fails the round's last operation.  Returns the counts.
    """
    ref = counts[0]
    for r, c in zip(rounds[1:], counts[1:]):
        if c != ref:
            r.fail("determinism", f"counts {c} differ from round 1's {ref}")
    state = {}
    if state_path.exists():
        state = json.loads(state_path.read_text())
    if state.get("digest") != digest:
        state = {"digest": digest}
    if mode in state and state[mode] != ref:
        rounds[-1].fail("determinism", f"counts {ref} differ from an earlier run's {state[mode]}")
    state.setdefault(mode, ref)
    state_path.write_text(json.dumps(state, sort_keys=True))
    return ref


# -- per-layer figures -----------------------------------------------------------------


def span_lists(t, marks, rounds):
    """Per traced round: this process's spans and each child's spans."""
    out = []
    for i, r in enumerate(rounds):
        own = t.spans[marks[i] : marks[i + 1]]
        lists = [{"spans": own, "subcommand": None}] + r.spans
        out.append([(x.get("subcommand"), x["spans"], tracer.summarize(x["spans"])) for x in lists])
    return out


def span_counts(per_round):
    """Counts per traced round from the spans, for the determinism guard."""
    counts = []
    for lists in per_round:
        c = {}
        for _, _, summary in lists:
            for metric, (name, fig) in SPAN_METRICS.items():
                if metric in GUARDED_COUNTS and name in summary:
                    row = summary[name]
                    val = row["calls"] if fig == "calls" else row["counts"].get(fig, 0)
                    c[metric] = c.get(metric, 0) + val
        counts.append(c)
    return counts


def layer_metrics(per_round, traced, untraced, cli_import, floor):
    n = len(per_round)
    totals = {name: 0.0 for name in per_layer_names()}
    for lists in per_round:
        for sub, _, summary in lists:
            for metric, (name, fig) in SPAN_METRICS.items():
                row = summary.get(name)
                if row is None:
                    continue
                if fig in ("seconds", "self_seconds", "calls"):
                    totals[metric] += row[fig]
                else:
                    totals[metric] += row["counts"].get(fig, 0)
            for name in ("grids.read_grid", "grids.write_grid"):
                if name in summary:
                    totals["grids.file_bytes"] += summary[name]["counts"].get("file_bytes", 0)
            if sub is not None and "cli.main" in summary:
                totals[f"cli.main_s.{sub}"] += summary["cli.main"]["seconds"]
    out = {k: v / n for k, v in totals.items()}
    out["cli.report_bytes"] = sum(r.counts.get("report_bytes", 0) for r in traced) / n
    out["cli.import_s"] = cli_import
    out["cli.interp_floor_s"] = floor
    out["trace.overhead_s"] = median([r.wall for r in traced]) - median([r.wall for r in untraced])
    for k in out:
        if unit_of(k) != "s":
            out[k] = int(round(out[k])) if float(out[k]).is_integer() else out[k]
    return out


def stress(workload, per_round, metrics, base):
    """The share of the workload's time its target layer takes.

    ``base`` is the traced round's seconds on certify and the untraced
    median call's on cli-cold.
    """
    if workload == "policy-2d":
        case = spsolve = 0.0
        for lists in per_round:
            for _, spans, _ in lists:
                for s in spans:
                    if s["name"] == "case:solve_257":
                        case += s["end"] - s["start"]
                        spsolve += sum(d["end"] - d["start"] for d in tracer.descendants(spans, s["id"])
                                       if d["name"] == "solver.spsolve")
        return {"spsolve_share_of_solve_257": spsolve / case, "need": 0.9}
    if workload == "minmax-3d":
        return {"solve_self_share_of_solve": metrics["solver.solve_self_s"]
                / metrics["solver.solve_s"], "need": 0.9}
    if workload == "certify":
        share = (metrics["cones.force_membership_s"] + metrics["cones.margins_s"]) / base
        return {"force_membership_plus_margins_share_of_round": share, "need": 0.8}
    return {"import_share_of_cli_p50": metrics["cli.import_s"] / base, "need": 0.5}


# -- main --------------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conecalc" / "__init__.py").is_file():
        print(f"benchmark: no conecalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = make_workloads()
    if args.workload not in workloads:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    OUT.mkdir(exist_ok=True)

    if args.setup_child:
        workdir = OUT / f"setup-{os.getpid()}"
        try:
            wl.setup(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setups = [] if args.trace else timed_setups(wl.name, args.seed)

    import conecalc

    if SRC not in Path(conecalc.__file__).resolve().parents:
        print(f"benchmark: imported conecalc from {conecalc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    digest = source_digest()
    workdir = OUT / f"work-{wl.name}"
    inputs = wl.setup(args.seed, workdir)
    if hasattr(wl, "warm_up"):
        wl.warm_up(inputs)

    n_rounds = max(wl.min_rounds, int(args.seconds // wl.round_s))
    untraced = []
    for _ in range(n_rounds):
        rnd = Round()
        wl.run_round(inputs, rnd)
        untraced.append(rnd)
    rounds = list(untraced)
    state = OUT / f"counts-{wl.name}-{args.seed}.json"
    counts = guard_counts(untraced, [r.counts for r in untraced], state, digest, "untraced")
    named = wl.named_metrics(untraced)
    wall_s = median([r.wall for r in untraced])

    detail = {"workload": wl.name, "seed": args.seed, "rounds": n_rounds}
    detail["samples_s"] = {
        label: [t for r in untraced for t in r.times.get(label, [])]
        for label in untraced[0].times
    }
    if args.trace:
        t = tracer.Tracer()
        tracer.instrument(t)
        traced, marks = [], [0]
        try:
            for _ in range(n_rounds):
                rnd = Round(tracer=t)
                wl.run_round(inputs, rnd)
                traced.append(rnd)
                marks.append(len(t.spans))
        finally:
            t.close()
        rounds += traced
        for r in traced:
            if r.counts != counts:
                r.fail("determinism", "traced round's counts differ from the untraced ones")
        per_round = span_lists(t, marks, traced)
        detail["span_counts"] = guard_counts(traced, span_counts(per_round), state, digest,
                                             "traced")
        metrics = layer_metrics(per_round, traced, untraced,
                                import_seconds("conecalc.cli"), import_seconds("numpy"))
        base = {"certify": median([r.wall for r in traced]),
                "cli-cold": named.get("cli_p50_s", (None,))[0]}.get(wl.name)
        detail["stress"] = stress(wl.name, per_round, metrics, base)
        spans_path = OUT / f"spans-{wl.name}-{args.seed}.json"
        spans_path.write_text(json.dumps(
            [{"round": i, "subcommand": sub, "spans": spans}
             for i, lists in enumerate(per_round) for sub, spans, _ in lists]))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        result_metrics = {k: {"value": metrics[k], "unit": unit_of(k)} for k in per_layer_names()}
    else:
        if wl.name == "cli-cold":
            rss_kb = max(r.child_rss_kb for r in untraced)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted = sum(r.attempted for r in untraced)
        failed = sum(len(r.failed) for r in untraced)
        values = {
            "setup_s": median(setups),
            "wall_s": wall_s,
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        named.update({k: (values[k], END_TO_END[k]) for k in ("setup_s", "wall_s", "peak_rss_mb")})
        named["fail_ratio"] = (failed / attempted, "ratio")
        detail["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        detail["samples_s"]["setup"] = setups
        result_metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    wrong = sum(len(r.wrong) for r in rounds)
    detail["counts"] = counts
    detail["failures"] = [dict(f, round=i) for i, r in enumerate(rounds) for f in r.reasons]
    detail["machine"] = stamp(str(ROOT), args.seed, digest)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    path = OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
