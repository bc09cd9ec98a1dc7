"""Spans around calls into conecalc's public functions.

A traced run replaces each wrapped name in the module that looks it up
with a timing wrapper, so the program itself is unchanged.  ``spsolve``
is wrapped as ``solver`` sees it (``solver.spla``) and
``numpy.linalg.eigvalsh`` as ``cones`` and ``symmat`` see it (their
``np``), through module proxies that leave every other caller of scipy
and numpy untouched.

Each span records name, start, end, parent id and optional counts taken
from the call's arguments and result after the clock stopped.  Spans stay
in memory; ``dump`` writes them once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import types
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------------

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code (a case)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``count(args, kwargs, result)`` returns a dict of counts for the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                s["counts"] = count(args, kwargs, result)
            return result

        self._set(owner, attr, traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def proxy(self, owner, attr):
        """Give ``owner`` a private copy of the module it calls ``attr``.

        Wrapping a name on the copy affects only calls made through
        ``owner``.  Returns the copy.
        """
        module = getattr(owner, attr)
        copy = types.ModuleType(module.__name__)
        copy.__dict__.update(module.__dict__)
        self._set(owner, attr, copy)
        return copy

    def close(self):
        """Restore every replaced name, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


# -- the wrapped surface of conecalc -------------------------------------------------


def _n_matrices(arr) -> int:
    shape = getattr(arr, "shape", ())
    n = 1
    for s in shape[:-2]:
        n *= int(s)
    return n


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each benchmark layer is measured by."""
    import numpy as np
    from conecalc import cli, cones, grids, riesz, solver, symmat

    spla = tracer.proxy(solver, "spla")
    tracer.wrap(
        spla,
        "spsolve",
        "solver.spsolve",
        lambda a, k, r: {"unknowns": int(a[0].shape[0]), "nnz": int(a[0].nnz)},
    )
    np_copy = tracer.proxy(cones, "np")
    np_copy.linalg = types.ModuleType(np.linalg.__name__)
    np_copy.linalg.__dict__.update(np.linalg.__dict__)
    tracer.wrap(
        np_copy.linalg,
        "eigvalsh",
        "symmat.eigvalsh",
        lambda a, k, r: {"matrices": _n_matrices(a[0])},
    )
    tracer._set(symmat, "np", np_copy)

    def solve_counts(a, k, r):
        key = "policy_steps" if r.method == "policy" else "jacobi_iters"
        return {key: int(r.iterations)}

    tracer.wrap(solver, "solve", "solver.solve", solve_counts)
    tracer.wrap(solver, "removability_experiment", "solver.removability_experiment")
    tracer.wrap(solver, "problem_from_config", "solver.problem_from_config")

    tracer.wrap(
        cones, "check_relation", "cones.check_relation",
        lambda a, k, r: {"samples": int(r.checked)},
    )
    tracer.wrap(cones, "force_membership", "cones.force_membership")
    tracer.wrap(
        cones, "margins", "cones.margins",
        lambda a, k, r: {"matrices": int(r.shape[0])},
    )
    tracer.wrap(cones, "pp_subset_test", "cones.pp_subset_test")
    tracer.wrap(cones, "riesz_characteristic", "cones.riesz_characteristic")

    tracer.wrap(
        grids, "canonical_extension", "grids.canonical_extension",
        lambda a, k, r: {"changed_points": int(r.changed_points)},
    )
    tracer.wrap(
        grids, "subharmonic_verify", "grids.subharmonic_verify",
        lambda a, k, r: {"points_checked": int(r.points_checked)},
    )
    tracer.wrap(grids, "perturb", "grids.perturb")
    tracer.wrap(
        grids, "read_grid", "grids.read_grid",
        lambda a, k, r: {"file_bytes": _file_bytes(a[0])},
    )
    tracer.wrap(
        grids, "write_grid", "grids.write_grid",
        lambda a, k, r: {"file_bytes": _file_bytes(a[0])},
    )

    tracer.wrap(riesz, "build_polar", "riesz.build_polar")
    tracer.wrap(
        riesz.PolarFunction, "values", "riesz.polar_values",
        lambda a, k, r: {"points": int(r.size)},
    )
    tracer.wrap(riesz, "kernel_jet", "riesz.kernel_jet")

    tracer.wrap(cli, "main", "cli.main")


# -- derived figures ------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "counts": {}}
        )
        row["calls"] += 1
        row["seconds"] += s["end"] - s["start"]
        row["self_seconds"] += selfs[s["id"]]
        for key, val in s.get("counts", {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out


def descendants(spans, root_id) -> list:
    """Spans below ``root_id`` (one process's span list)."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out, todo = [], [root_id]
    while todo:
        for s in kids.get(todo.pop(), []):
            out.append(s)
            todo.append(s["id"])
    return out
