"""Characterization of every kind in the cone catalogue, in dim 4.

Each row pins what the catalogue gives for one descriptor: the ``cone``
report of the CLI, ``contains`` on the cone and on its ``dual_cone``
for two fixed matrices (witness included), ``dual_fast_margins`` on the
stack of both, and the descriptor round trip ``parse_cone(describe())``.
The values are the outputs of the code when the rows were written, not
derived by hand, so a failing row means that a catalogue output changed.
A new kind of cone is one record in ``conecalc.cones`` plus its rows here.
"""

import json

import numpy as np
import pytest

from conecalc import cli, cones

_FILES = {
    "frame.csv": "0.6,0.8,0,0\n0,0,0.8,-0.6\n",
    "frames.csv": "1,0,0,0\n0,1,0,0\n\n0.6,0.8,0,0\n0,0,0.8,-0.6\n",
}
_A = [[1.0, 0.5, 0.0, -0.25], [0.5, -2.0, 0.75, 0.0],
      [0.0, 0.75, 0.5, 0.125], [-0.25, 0.0, 0.125, 3.0]]
_B = [[-1.0, 0.3, 0.2, 0.0], [0.3, 0.4, -0.6, 0.1],
      [0.2, -0.6, -0.5, 0.7], [0.0, 0.1, 0.7, 1.2]]
# the closed-mode threshold of _A and _B: -1e-9 * (1 + max|A_ij|)
_THRESHOLDS = (-4e-09, -2.2000000000000003e-09)
_REFLECTION = "reflection: A is a dual member iff -A is not interior to the cone"

# descriptor -> "cone": (cone, dual_description, o_n_invariant,
# riesz_characteristic, closed_form, at_cap, sampled) of the CLI report;
# "contains" and "dual_contains": (member, margin, witness, sampled) of
# ``contains`` on the cone and on its dual for _A and _B;
# "dual_fast_margins" on the stack [_A, _B]
_CATALOGUE = {
    "p": {
        "cone": ("p", "branch:4 (largest eigenvalue >= 0)",
                 True, 1.0, 1.0, False, False),
        "contains": [(False, -2.2786873980864972, {"eigen_index": 1}, False),
                     (False, -1.3068612543722529, {"eigen_index": 1}, False)],
        "dual_contains": [(True, 3.0369687719548333, {"eigen_index": 1}, False),
                          (True, 1.4647626764307833, {"eigen_index": 1}, False)],
        "dual_fast_margins": [3.0369687719548333, 1.4647626764307833],
    },
    "pp:2.5": {
        "cone": ("pp:2.5", "sum of the 2.5 largest eigenvalues >= 0",
                 True, 2.5, 2.5, False, False),
        "contains": [(False, -1.0835641458121257, {"eigen_indices": [1, 2, 3]}, False),
                     (False, -1.699376793010646, {"eigen_indices": [1, 2, 3]}, False)],
        "dual_contains": [(True, 4.454423458877958, {"eigen_indices": [1, 2, 3]}, False),
                          (True, 1.7704260819813817, {"eigen_indices": [1, 2, 3]}, False)],
        "dual_fast_margins": [4.454423458877958, 1.7704260819813817],
    },
    "branch:2": {
        "cone": ("branch:2", "branch:3",
                 True, 4.0, 4.0, True, False),
        "contains": [(True, 0.6485278784170783, {"eigen_index": 2}, False),
                     (False, -0.7271296552182563, {"eigen_index": 2}, False)],
        "dual_contains": [(True, 1.0931907477145866, {"eigen_index": 3}, False),
                          (True, 0.6692282331597267, {"eigen_index": 3}, False)],
        "dual_fast_margins": [1.0931907477145866, 0.6692282331597267],
    },
    "cbranch:1": {
        "cone": ("cbranch:1", "cbranch:2",
                 False, 1.9999999999999991, 2.0, False, True),
        "contains": [(False, -0.6061072252245131, {"hermitian_eigen_index": 1}, False),
                     (False, -0.442038542306735, {"hermitian_eigen_index": 1}, False)],
        "dual_contains": [(True, 1.856107225224513, {"hermitian_eigen_index": 2}, False),
                          (True, 0.49203854230673505, {"hermitian_eigen_index": 2}, False)],
        "dual_fast_margins": [1.856107225224513, 0.4920385423067352],
    },
    "pdelta:0.5": {
        "cone": ("pdelta:0.5", _REFLECTION,
                 True, 2.0, 2.0, False, False),
        "contains": [(False, -1.0286873980864968, None, False),
                     (False, -1.2568612543722526, None, False)],
        "dual_contains": [(True, 4.286968771954833, None, False),
                          (True, 1.5147626764307836, None, False)],
        "dual_fast_margins": None,
    },
    "pucci:1:2": {
        "cone": ("pucci:1:2", "2*tr(A+) + 1*tr(A-) >= 0 (coefficients swapped)",
                 True, 2.5, 2.5, False, False),
        "contains": [(True, 0.2213126019135041, None, False),
                     (False, -1.9339909095905088, None, False)],
        "dual_contains": [(True, 7.278687398086499, None, False),
                          (True, 2.2339909095905104, None, False)],
        "dual_fast_margins": None,
    },
    "sigma:2": {
        "cone": ("sigma:2", _REFLECTION,
                 True, 2.0, 2.0, False, False),
        "contains": [(False, -4.890624999999994, {"sigma_index": 2}, False),
                     (False, -2.41, {"sigma_index": 2}, False)],
        "dual_contains": [(True, 4.890624999999993, {"sigma_index": 2}, False),
                          (True, 2.4099999999999997, {"sigma_index": 2}, False)],
        "dual_fast_margins": None,
    },
    "mapb:2:1": {
        "cone": ("mapb:2:1", "mapb:2:6",
                 True, 2.0, 2.0, False, False),
        "contains": [(False, -1.630159519669419, {"eigen_subset": [1, 2]}, False),
                     (False, -2.0339909095905093, {"eigen_subset": [1, 2]}, False)],
        "dual_contains": [(True, 4.130159519669419, {"eigen_subset": [1, 2]}, False),
                          (True, 2.13399090959051, {"eigen_subset": [1, 2]}, False)],
        "dual_fast_margins": None,
    },
    "horiz:@frame.csv": {
        "cone": ("horiz:2-plane", "horiz:2-plane",
                 False, 1.9999999999999996, 2.0, False, True),
        "contains": [(True, 0.8399999999999996, {"frame_index": 1}, False),
                     (False, -0.37600000000000006, {"frame_index": 1}, False)],
        "dual_contains": [(True, 0.8399999999999996, {"frame_index": 1}, False),
                          (False, -0.37600000000000006, {"frame_index": 1}, False)],
        "dual_fast_margins": [0.8399999999999996, -0.37600000000000006],
    },
    "dual:horiz:@frame.csv": {
        "cone": ("dual:horiz:2-plane", "horiz:2-plane",
                 False, 1.9999999999999996, 2.0, False, True),
        "contains": [(True, 0.8399999999999996, {"frame_index": 1}, False),
                     (False, -0.37600000000000006, {"frame_index": 1}, False)],
        "dual_contains": [(True, 0.8399999999999996, {"frame_index": 1}, False),
                          (False, -0.37600000000000006, {"frame_index": 1}, False)],
        "dual_fast_margins": [0.8399999999999996, -0.37600000000000006],
    },
    "geom:@frames.csv": {
        "cone": ("geom:2x2-frames", _REFLECTION,
                 False, 1.9999999999999996, 2.0, False, True),
        "contains": [(False, -1.0, {"frame_index": 1}, True),
                     (False, -0.6, {"frame_index": 1}, True)],
        "dual_contains": [(True, 0.8399999999999996, {"frame_index": 2}, True),
                          (False, -0.37600000000000006, {"frame_index": 2}, True)],
        "dual_fast_margins": None,
    },
    "enl:pp:2:0.25": {
        "cone": ("enl:pp:2:0.25", _REFLECTION,
                 True, 2.5, 2.5, False, False),
        "contains": [(False, -1.130159519669419, {"eigen_indices": [1, 2]}, False),
                     (False, -1.5339909095905093, {"eigen_indices": [1, 2]}, False)],
        "dual_contains": [(True, 3.6301595196694194, {"eigen_indices": [1, 2]}, False),
                          (True, 1.6339909095905099, {"eigen_indices": [1, 2]}, False)],
        "dual_fast_margins": None,
    },
    "dual:branch:2": {
        "cone": ("dual:branch:2", "branch:2",
                 True, 4.0, 4.0, True, False),
        "contains": [(True, 1.0931907477145866, {"eigen_index": 3}, False),
                     (True, 0.6692282331597267, {"eigen_index": 3}, False)],
        "dual_contains": [(True, 0.6485278784170783, {"eigen_index": 2}, False),
                          (False, -0.7271296552182563, {"eigen_index": 2}, False)],
        "dual_fast_margins": [0.6485278784170783, -0.7271296552182563],
    },
    "dual:dual:pp:1.5": {
        "cone": ("dual:dual:pp:1.5", "dual:pp:1.5",
                 True, 1.5, 1.5, False, False),
        "contains": [(False, -1.954423458877958, {"eigen_indices": [1, 2]}, False),
                     (False, -1.670426081981381, {"eigen_indices": [1, 2]}, False)],
        "dual_contains": [(True, 3.583564145812127, {"eigen_indices": [1, 2]}, False),
                          (True, 1.7993767930106466, {"eigen_indices": [1, 2]}, False)],
        "dual_fast_margins": [3.583564145812127, 1.7993767930106466],
    },
    "enl:dual:mapb:2:1:0.25": {
        "cone": ("enl:dual:mapb:2:1:0.25", _REFLECTION,
                 True, 4.0, None, True, False),
        "contains": [(True, 4.630159519669419, {"eigen_subset": [1, 2]}, False),
                     (True, 2.63399090959051, {"eigen_subset": [1, 2]}, False)],
        "dual_contains": [(False, -2.130159519669419, {"eigen_subset": [1, 2]}, False),
                          (False, -2.5339909095905093, {"eigen_subset": [1, 2]}, False)],
        "dual_fast_margins": None,
    },
    "dual:enl:sigma:2:0.5": {
        "cone": ("dual:enl:sigma:2:0.5", "enl:sigma:2:0.5",
                 True, 4.0, None, True, False),
        "contains": [(True, 7.1406249999999964, {"sigma_index": 2}, False),
                     (True, 1.0600000000000005, {"sigma_index": 2}, False)],
        "dual_contains": [(True, 0.3593750000000071, {"sigma_index": 2}, False),
                          (False, -0.7599999999999991, {"sigma_index": 2}, False)],
        "dual_fast_margins": [0.3593750000000071, -0.7599999999999991],
    },
}


@pytest.fixture
def frame_files(tmp_path, monkeypatch):
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("text", list(_CATALOGUE))
def test_cone_report(text, frame_files, capsys):
    cone, dual_text, spectral, value, closed_form, at_cap, sampled = _CATALOGUE[text]["cone"]
    assert cli.main(["cone", "--spec", text, "--dim", "4"]) == 0
    out, err = capsys.readouterr()
    expected = {
        "command": "cone", "seed": 0, "cone": cone, "dim": 4, "dual_description": dual_text,
        "o_n_invariant": spectral, "riesz_characteristic": value, "closed_form": closed_form,
        "at_cap": at_cap, "sampled": sampled,
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert err == ""


@pytest.mark.parametrize("text", list(_CATALOGUE))
@pytest.mark.parametrize("member", ["contains", "dual_contains"])
def test_membership(text, member, frame_files):
    spec = cones.parse_cone(text, 4)
    if member == "dual_contains":
        spec = cones.dual_cone(spec)
    rows = _CATALOGUE[text][member]
    for A, threshold, (inside, margin, witness, sampled) in zip((_A, _B), _THRESHOLDS, rows):
        expected = {"member": inside, "margin": margin, "witness": witness,
                    "mode": "closed", "threshold": threshold, "sampled": sampled}
        assert _json(cones.contains(spec, A).to_dict()) == _json(expected)


@pytest.mark.parametrize("text", list(_CATALOGUE))
def test_dual_fast_margins(text, frame_files):
    fast = cones.dual_fast_margins(cones.parse_cone(text, 4), np.array([_A, _B]))
    expected = _CATALOGUE[text]["dual_fast_margins"]
    assert _json(None if fast is None else fast.tolist()) == _json(expected)


@pytest.mark.parametrize("text", [text for text in _CATALOGUE if "@" not in text])
def test_descriptor_round_trip(text):
    spec = cones.parse_cone(text, 4)
    again = cones.parse_cone(spec.describe(), 4)
    assert again.describe() == spec.describe() == text
    assert repr(again) == repr(spec)
