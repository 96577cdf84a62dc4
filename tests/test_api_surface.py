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

from confae import data, net, training

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


def test_optimizer_steps_reach_the_traced_attribute():
    # two adamw_step calls per batch, both looked up through the module
    # attribute the tracer replaces
    tracer = _spans().Tracer()
    cfg = training.RunConfig(epochs=1, batch_size=16, dims=[3, 6, 2], seed=1)
    ds = data.standardize(data.swiss_roll(100, seed=0))
    tracer.install(["training.adamw_step"])
    try:
        training.train(cfg, ds)
    finally:
        tracer.uninstall(["training.adamw_step"])
    train_ds, _ = training.split_dataset(cfg, ds)
    batches = -(-len(train_ds) // cfg.batch_size)
    assert [s.name for s in tracer.spans] == ["training.adamw_step"] * (2 * batches)



STEP_LAYERS = (
    "net.forward_tape",
    "net.jvp",
    "net.backward",
    "regularizers.nonlinear_conformal_loss_and_grad",
)


@pytest.mark.parametrize("tag,want", [("conf", (1, 1, 2, 1)), ("globiso", (2, 0, 2, 0))])
def test_step_layer_calls_as_the_tracer_sees_them(tag, want):
    # one training step with attached codes records the encoder's tape and
    # one decoder tape (a basis JVP for a moment loss), then sweeps each once
    tracer = _spans().Tracer()
    cfg = training.RunConfig(regularizer=tag, lambda_geo=0.5, dims=[3, 6, 2], seed=1)
    enc, dec = training.init_networks(cfg)
    x = data.standardize(data.swiss_roll(16, seed=0)).samples
    tracer.install(STEP_LAYERS)
    try:
        training._batch_losses_and_grads(cfg, 0.5, enc, dec, x, np.random.default_rng(0), 1, 0)
    finally:
        tracer.uninstall(STEP_LAYERS)
    names = [s.name for s in tracer.spans]
    assert tuple(names.count(name) for name in STEP_LAYERS) == want
