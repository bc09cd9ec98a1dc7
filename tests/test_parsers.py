"""Fuzzed input files: every reader gives a valid object or a typed usage
error (a ConecalcError that the CLI maps to exit 2), never another
exception and never a warning."""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecalc import cli, grids, riesz, solver, symmat
from conecalc.errors import ConecalcError

# valid numbers outweigh the junk, so that many drawn files parse
_NUMBERS = ["0", "1", "-1", "0.5", "-0", "2.5e-3", "1e-320", "1.7e308", "-inf"]
_JUNK = ["inf", "nan", "1e400", "abc", "", " ", "#", "1_0", "0x1", "1,", "mask", "grid"]
_TOKENS = st.sampled_from(_NUMBERS * 8 + _JUNK)


def _valid_or(draw, valid, junk):
    """``valid`` five times in six, else one of ``junk``."""
    return valid if draw(st.integers(0, 5)) < 5 else draw(st.sampled_from(junk))


@st.composite
def csv_texts(draw):
    """Rows of mostly one width, numbers and junk, with blank and comment
    lines between."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(_valid_or(draw, width, [0, width + 1, max(width - 1, 1)])):
        w = _valid_or(draw, width, [width + 1, max(width - 1, 1)])
        rows.append(",".join(draw(st.lists(_TOKENS, min_size=w, max_size=w))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, draw(st.sampled_from(["", "  ", "# comment"])))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n"]))


@st.composite
def grid_texts(draw):
    """A grid header whose fields are drawn valid or not, an optional mask
    block, value rows, and trailing lines."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    nd = len(shape)
    origin = ",".join(draw(st.lists(_TOKENS, min_size=nd, max_size=nd)))
    fields = {
        "n": _valid_or(draw, str(nd), [str(nd + 1)]),
        "shape": _valid_or(draw, ",".join(map(str, shape)), ["0", "2,x", "-1,2"]),
        "origin": _valid_or(draw, origin, ["0", "1,2,3,4"]),
        "h": _valid_or(draw, "0.5", ["0", "-1", "1e400", "nan", "x"]),
    }
    keep = [key for key in fields if _valid_or(draw, True, [False])]
    header = "grid " + " ".join(f"{key}={fields[key]}" for key in keep)
    rows = 1 if nd == 1 else shape[0] * (shape[1] if nd == 3 else 1)
    width = shape[-1]

    def block(tokens):
        count = _valid_or(draw, rows, [rows - 1, rows + 1])
        return [",".join(draw(st.lists(tokens, min_size=w, max_size=w)))
                for w in (_valid_or(draw, width, [width + 1, max(width - 1, 1)])
                          for _ in range(max(count, 0)))]

    lines = [header]
    if draw(st.booleans()):
        lines += ["mask", *block(st.sampled_from(["0", "1"] * 4 + ["2", " 1", "x"]))]
    lines += block(_TOKENS)
    lines += draw(st.sampled_from([[], [], [""], ["0"], ["mask"]]))
    return "\n".join(lines) + "\n"


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.floats(-20.0, 20.0) | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.sampled_from(["pp", "branch", "x*x", "1/x", "x**1e10", "log(x)", "exp(1000*x)",
                       "10**10**10", "sqrt(x - 5)", "(", "y", "z", "r", "__import__", "abc"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["min", "max", "expr", "shape", "h"]), children, max_size=2),
    max_leaves=6,
)
_GOOD_PROBLEM = {
    "operator": "pp",
    "p": 2,
    "grid": {"shape": [9, 9], "origin": [-1, -1], "h": 0.25},
    "boundary": {"expr": "x*x"},
}
# per field, values that can make a valid problem; a wide 3-D stencil is
# valid but slow to build, so stencil_reach draws only from its list
_PLAUSIBLE = {
    "operator": ["pp", "branch"],
    "p": [1, 1.5, 2],
    "k": [1, 2],
    "grid.shape": [[9, 9], [5, 6, 5], [5]],
    "grid.origin": [[0, 0], [-1, -1, -1]],
    "grid.h": [0.1, 0.25],
    "boundary.expr": ["x*x - y*y", "r", "where(x > 0, x, 0) + z", "1e308*x*y"],
    "hole": [{"min": [-0.25, -0.25], "max": [0.25, 0.25]}, {"min": [0, 0]}],
    "puncture": [[[0, 0]], [], [[-1, -1]]],
    "stencil_reach": [0, 1, 2, 2.5, "3", None, True, [2]],
}


@st.composite
def problem_texts(draw):
    """A valid problem with up to three fields, nested ones included,
    replaced by plausible or arbitrary JSON values, or arbitrary JSON."""
    if draw(st.integers(0, 4)) == 0:
        return json.dumps(draw(_JSON_VALUES))
    cfg = json.loads(json.dumps(_GOOD_PROBLEM))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(_PLAUSIBLE)))
        plausible = st.sampled_from(_PLAUSIBLE[key])
        value = draw(plausible if key == "stencil_reach" else plausible | _JSON_VALUES)
        outer, _, inner = key.partition(".")
        if inner:
            cfg[outer][inner] = value
        else:
            cfg[outer] = value
    return json.dumps(cfg)


def _read_problem(path):
    cfg = cli._load_json(path)
    problem = solver.problem_from_config(cfg)
    return cli._stencil(cfg, problem)


_READERS = {
    "grid": (grids.read_grid, grid_texts()),
    "matrix": (symmat.read_matrix_csv, csv_texts()),
    "measure": (riesz.read_measure_csv, csv_texts()),
    "problem": (_read_problem, problem_texts()),
}


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reader_gives_an_object_or_a_usage_error(name, data):
    read, texts = _READERS[name]
    raw = data.draw(st.one_of(texts.map(str.encode), st.binary(max_size=40)))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "input"
        path.write_bytes(raw)
        try:
            assert read(str(path)) is not None
        except ConecalcError as exc:
            assert cli.exit_code(exc) == cli.USAGE_EXIT
