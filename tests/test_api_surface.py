"""The names the benchmark's span tracer wraps must exist in the package.

``benchmarks/spans.py`` resolves its ``LAYERS`` when a tracer is built, so a
renamed or deleted function would only surface in a traced benchmark run.
The same holds for its per-call counters, which read fields of the results.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from confae import net

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return [(mod, fn) for mod, fn, _ in _spans().LAYERS]


@pytest.mark.parametrize("module,name", _layers(), ids=lambda v: v)
def test_traced_layer_is_a_package_callable(module, name):
    assert callable(getattr(importlib.import_module(f"confae.{module}"), name, None))


def test_jvp_counter_reads_a_block_jvp():
    dec = net.init([2, 6, 3], ["relu", "identity"], 0)
    codes = np.random.default_rng(1).normal(size=(4, 2))
    block = np.ones((4, 3, 2))
    res = net.jvp(dec, codes, block)
    counts = _spans()._jvp_counts((dec, codes, block), {}, res)
    # one primal row per code, whatever the number of probe tangents; the
    # JVP computes no pullback, so that counter reads 0
    assert counts == {"rows": 4, "pullback_rows": 0}
    assert all(type(v) is int for v in counts.values())
