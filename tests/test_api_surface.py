"""The names the benchmark's span tracer wraps must exist in the package.

``benchmarks/spans.py`` resolves its ``LAYERS`` when a tracer is built, so a
renamed or deleted function would only surface in a traced benchmark run.
The same holds for its per-call counters, which read fields of the results,
and for the workloads' set-up (``benchmarks/workloads.py``), which calls the
data API and the CLI before any operation is timed.
Conversely, every public name of the package must have a caller other than
the tests: package or script code, or the tracer. Likewise, the kappa summary
entries that ``compare`` reads and README names must be ones that ``diagnose``
writes.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from confae import cli, data, geometry, net, training

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    """``benchmarks/workloads.py``, with its sibling modules importable."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    path = SPANS.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train-conf-mc", "train-conf-exact", "diagnose-roll"])
def test_benchmark_workload_sets_up(monkeypatch, tmp_path, name):
    workloads = _workloads(monkeypatch)
    workload = workloads.make_workload(name, 0, tmp_path)
    workload.setup()
    if name == "diagnose-roll":
        assert workload.checkpoint.is_file() and workload.roll_csv.is_file()
        assert np.isfinite(workload.checks["val_recon"])
    else:
        n_train = workloads.N_TRAIN_ROLL - round(workloads.N_TRAIN_ROLL * workloads.VAL_FRACTION)
        assert workload.samples_per_op == n_train
        assert set(workload.checks) == {"init_params_sha256"}


SWEEP_LAYERS = ("geometry.conformal_field", "net.forward", "net.jvp")


def test_diagnose_workload_call_passes_its_check_and_traces_the_sweep(monkeypatch, tmp_path):
    # one traced operation of diagnose-roll: its output check passes, and the
    # decoder sweep is one conformal_field span holding each block's encode
    # and JVP (4000 codes, JACOBIAN_BLOCK 512)
    workloads = _workloads(monkeypatch)
    workload = workloads.make_workload("diagnose-roll", 0, tmp_path)
    workload.setup()
    tracer = _spans().Tracer()
    tracer.install(SWEEP_LAYERS)
    try:
        code = cli.main(workload._argv())
    finally:
        tracer.uninstall(SWEEP_LAYERS)
    assert code == 0
    assert workload._check() is None
    (sweep,) = [s for s in tracer.spans if s.name == "geometry.conformal_field"]
    children = [s.name for s in tracer.spans if s.parent == sweep.sid]
    assert sorted(children) == ["net.forward"] * 8 + ["net.jvp"] * 8


def _layers():
    return [(mod, fn) for mod, fn, _ in _spans().LAYERS]


@pytest.mark.parametrize("module,name", _layers(), ids=lambda v: v)
def test_traced_layer_is_a_package_callable(module, name):
    assert callable(getattr(importlib.import_module(f"confae.{module}"), name, None))


def test_jvp_counter_reads_a_block_jvp():
    dec = net.init([2, 6, 3], ["relu", "identity"], 0)
    codes = np.random.default_rng(1).normal(size=(4, 2))
    res = net.jvp(dec, codes)
    counts = _spans()._jvp_counts((dec, codes), {}, res)
    # one primal row per code, whatever the number of basis tangents; the
    # JVP computes no pullback, so that counter reads 0
    assert counts == {"rows": 4, "pullback_rows": 0}
    assert all(type(v) is int for v in counts.values())


def test_optimizer_steps_reach_the_traced_attribute():
    # one adamw_step call per batch over the autoencoder's parameter vector,
    # looked up through the module attribute the tracer replaces
    tracer = _spans().Tracer()
    cfg = training.RunConfig(epochs=1, batch_size=16, dims=[3, 6, 2], seed=1)
    samples = data.standardize(data.swiss_roll(100, seed=0)[0])
    tracer.install(["training.adamw_step"])
    try:
        training.train(cfg, samples)
    finally:
        tracer.uninstall(["training.adamw_step"])
    x_train, _ = training.split_dataset(cfg, samples)
    batches = -(-len(x_train) // cfg.batch_size)
    assert [s.name for s in tracer.spans] == ["training.adamw_step"] * batches



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
    x = data.standardize(data.swiss_roll(16, seed=0)[0])
    tracer.install(STEP_LAYERS)
    try:
        training._batch_losses_and_grads(cfg, 0.5, enc, dec, x, np.random.default_rng(0), 1, 0)
    finally:
        tracer.uninstall(STEP_LAYERS)
    names = [s.name for s in tracer.spans]
    assert tuple(names.count(name) for name in STEP_LAYERS) == want


def _public_definitions(path):
    """(qualified name, name) of each public top-level function and class of a
    module and each public method of its public classes."""
    tree = ast.parse(path.read_text())
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _referenced_names(path):
    """Names a module reads: identifiers, attributes, imported names and string
    constants (a lookup table of function names counts), but no docstring."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # ROADMAP: no src/ API that only tests call. A public name counts as used
    # when src/ or scripts/ reads it, or the benchmark's tracer wraps it.
    package = sorted((ROOT / "src" / "confae").glob("*.py"))
    used = set().union(
        *map(_referenced_names, [*package, *sorted((ROOT / "scripts").glob("*.py"))])
    )
    traced = {f"{mod}.{fn}" for mod, fn in _layers()}
    unused = [
        f"{path.stem}.{qualname}"
        for path in package
        for qualname, name in _public_definitions(path)
        if name not in used and f"{path.stem}.{qualname}" not in traced
    ]
    assert unused == []


def _environment_reads(path):
    """The key of each ``os.environ`` or ``os.getenv`` read in a module, as
    source text; a comprehension or loop variable stands for what it iterates."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        bound.update((ast.unparse(g.target), ast.unparse(g.iter)) for g in loops)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.environ.get", "os.getenv"):
            key = node.args[0]
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
            key = node.slice
        else:
            continue
        yield bound.get(ast.unparse(key), ast.unparse(key))


def test_only_thread_settings_are_read_from_the_environment():
    # a run is set by its config and flags; the environment only carries the
    # BLAS thread settings numpy loads under, which the manifest records
    reads = {
        (path.name, key)
        for path in sorted((ROOT / "src" / "confae").glob("*.py"))
        for key in _environment_reads(path)
    }
    assert reads == {("cli.py", "THREAD_VARS")}


def test_kappa_keys_compare_reads_and_readme_names_are_stored():
    # compare reads, and README names, only entries that diagnose writes
    stored = set(geometry.summarize_kappa([1.0, 3.0]))
    assert set(cli.KAPPA_KEYS) <= stored
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"kappa_(?:jac|pbm)_(?:mean|std)", readme))
    assert named and sorted(named - stored) == []
