"""Every function the benchmark's traced run wraps is an attribute of its
epigrid module, so renaming one fails here and not only in `--trace 1` runs.
No epigrid module calls another's function through a name bound at import,
which the traced run could not see, and the work counters read what they
should from the objects the library returns."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import epigrid
from epigrid import geo

from conftest import grid_regions

BENCH = Path(__file__).resolve().parents[1] / "bench"
if not (BENCH / "layers.py").is_file():
    pytest.skip("bench/layers.py is not in this checkout", allow_module_level=True)


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


LAYERS = _bench_module("layers")


@pytest.mark.parametrize("name", sorted(LAYERS.TRACED))
def test_traced_name_is_a_module_attribute(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"epigrid.{module_name}")
    assert callable(getattr(module, attr, None)), f"epigrid.{name} is gone"


def test_no_call_is_bound_at_import(monkeypatch):
    for info in pkgutil.iter_modules(epigrid.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"epigrid.{info.name}")
    monkeypatch.setitem(sys.modules, "layers", LAYERS)  # the tracer imports it by that name
    assert _bench_module("tracer").uncovered() == []


def test_edge_counter_counts_both_directions():
    w = geo.build_contiguity_weights(grid_regions(3, 3), kind="queen")
    count = LAYERS.TRACED["geo.build_contiguity_weights"]["geo.edges"]
    assert count((), {}, w) == 40  # 4 corners x 3 + 4 sides x 5 + centre 8
