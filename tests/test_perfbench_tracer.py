"""The benchmark's traced mode wraps conecalc names by attribute lookup;
a library name it wraps that is renamed or deleted would fail only in a
traced benchmark run, so the wrapping is checked here."""

import importlib.util
from pathlib import Path


def test_traced_mode_resolves_every_name_it_wraps_and_restores_them():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)  # AttributeError for a missing name
        replaced = list(tracer._undo)
    finally:
        tracer.close()
    assert replaced
    for owner, attr, original in replaced:
        assert getattr(owner, attr) is original, attr
