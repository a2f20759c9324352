"""Every function the benchmark's traced run wraps is an attribute of its
epigrid module, so renaming one fails here and not only in `--trace 1` runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
if not LAYERS_PY.is_file():
    pytest.skip("bench/layers.py is not in this checkout", allow_module_level=True)


def _traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return sorted(module.TRACED)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_is_a_module_attribute(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"epigrid.{module_name}")
    assert callable(getattr(module, attr, None)), f"epigrid.{name} is gone"
