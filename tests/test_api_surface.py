"""The names the benchmark's span tracer wraps must exist in the package.

``benchmarks/spans.py`` resolves its ``LAYERS`` when a tracer is built, so a
renamed or deleted function would only surface in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, fn) for mod, fn, _ in module.LAYERS]


@pytest.mark.parametrize("module,name", _layers(), ids=lambda v: v)
def test_traced_layer_is_a_package_callable(module, name):
    assert callable(getattr(importlib.import_module(f"confae.{module}"), name, None))
