"""Fully connected networks with hand-rolled differentiation.

Two sweeps are supported over the same recorded evaluation:

* a primal forward pass (affine maps + pointwise activations),
* a tangent pass pushing the latent basis alongside the primal states
  (forward mode), whose outputs are the Jacobian's columns ``J e_k``.

Both are recorded as nodes of one tape (:class:`DualTrace`), so a single
standard reverse sweep (:func:`backward`) yields exact parameter gradients of
any scalar built from the primal output or the Jacobian's columns, such as a
function of the pullback metric ``J^T J``, without nested autodiff machinery.
Per layer the tape holds the activation's output and derivative, one row per
input, and, after a tangent pass, the tangent outputs; the tangent
pre-activation is kept for tanh layers only. It keeps no primal
pre-activation: the reverse sweep forms tanh'' from tanh and tanh'. The
tangent pass is the only one: training records it for a reverse sweep, and
the diagnostics read the Jacobians from its tangent outputs.

An identity layer forms no derivative (its tape entry is ``None``), so no
sweep multiplies by its all-ones derivative: the primal and tangent outputs
are the pre-activations, and the reverse sweep passes adjoints through
unscaled. :func:`backward` returns the parameter gradient and the adjoint of
the primal input, which a caller that does not read it can skip; it forms no
adjoint of the tangent input (the latent basis).

A network's parameters are one float64 vector, ``Mlp.params`` (per layer the
row-major weight, then the bias); every ``Layer`` array is a view into it,
and a :class:`ParamGradient` holds the same layout in ``flat``. The module
holds numerics only: the checkpoint format lives in :mod:`confae.cli`.

Inputs are (B, d) batches, one row per input; only :func:`jacobian` takes a
single point. The m basis tangents of a code share one primal row
(pre-activations, outputs and activation derivatives are computed on B rows),
while tangent states live on B*m rows; each code's m tangent rows are scaled
by its one derivative row, in both sweeps. Callers see the tangents as the
(B, m, out) stack: :func:`jvp`'s ``jv`` is a view of the tape's last tangent
array in that shape, and :func:`backward` takes its tangent adjoint in it.
The reverse sweep carries each layer's adjoints as B primal rows and B * n
tangent rows in the tape's order, with n = m under a tangent adjoint and
n = 0 without one; a missing adjoint is zeros. The tangents'
second-derivative terms are summed per code into the primal rows.

:func:`forward` and :func:`jvp` take an optional ``buffers`` dict. A loop
over blocks of inputs that passes the same dict to every call gets each
array written into the leading rows of an array held there, with the bits
of a call without it, so the blocks after the first allocate no layer
arrays. Without it each call allocates its own arrays, as training's
calls do. Every layer writes its product into its output array and applies
its activation there, so the pre-activation is not kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "identity")
# activations whose second derivative is identically zero
PIECEWISE_LINEAR = ("relu", "leaky_relu", "identity")
# leaky_relu's slope on the negative side
LEAKY_SLOPE = 0.01


def _act_inplace(
    name: str, a: np.ndarray, dact: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The activation written over the pre-activation ``a`` and, given
    ``dact``, an array shaped like ``a``, its derivative written there.

    tanh is evaluated once, and the ReLU kink at 0 uses the zero-side
    subgradient. Returns ``a`` and ``dact``; an identity layer leaves ``a``
    as it is and returns ``None`` for its all-ones derivative.
    """
    if name == "relu":
        if dact is not None:
            np.greater(a, 0.0, out=dact)
        np.maximum(a, 0.0, out=a)
    elif name == "leaky_relu":
        if dact is not None:
            dact.fill(LEAKY_SLOPE)
            np.copyto(dact, 1.0, where=a > 0.0)
        np.multiply(a, LEAKY_SLOPE, out=a, where=a <= 0.0)
    elif name == "tanh":
        np.tanh(a, out=a)
        if dact is not None:
            np.subtract(1.0, np.multiply(a, a, out=dact), out=dact)
    elif name == "identity":
        dact = None
    else:
        raise ValueError(f"unknown activation {name!r}")
    return a, dact


def _ddact(name: str, out: np.ndarray, dact: np.ndarray | None) -> np.ndarray | None:
    """Second derivative from the activation's output and derivative.

    None means identically zero (piecewise-linear). For tanh it is
    -2 tanh (1 - tanh^2), with the factors in that order.
    """
    if name == "tanh":
        return -2.0 * out * dact
    if name in PIECEWISE_LINEAR:
        return None
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)


def _views(flat: np.ndarray, layers: list[Layer]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a vector laid out like ``Mlp.params``."""
    weights, biases = [], []
    lo = 0
    for layer in layers:
        shape = layer.weight.shape
        mid = lo + layer.weight.size
        weights.append(flat[lo:mid].reshape(shape))
        lo = mid + shape[0]
        biases.append(flat[mid:lo])
    return weights, biases


@dataclass
class Mlp:
    """Layers on views of ``params``, into which the given layers' arrays are copied."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.concatenate([a.ravel() for l in self.layers for a in (l.weight, l.bias)])
        self.layers = [
            Layer(w, b, l.activation)
            for l, w, b in zip(self.layers, *_views(self.params, self.layers))
        ]

    def rebind(self, flat: np.ndarray) -> None:
        """Make ``flat``, a vector laid out like ``params``, the network's parameters.

        ``params`` and every layer array become views of ``flat``; nothing is copied.
        """
        if flat.shape != self.params.shape:
            raise ValueError(f"parameter vector must have shape {self.params.shape}")
        self.params = flat
        for layer, w, b in zip(self.layers, *_views(flat, self.layers)):
            layer.weight, layer.bias = w, b

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]


@dataclass
class ParamGradient:
    """Gradient laid out like ``Mlp.params``; ``weights``/``biases`` are views of ``flat``."""

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def from_flat(cls, net: Mlp, flat: np.ndarray) -> "ParamGradient":
        """The gradient held in ``flat``, a vector laid out like ``net.params``."""
        return cls(flat, *_views(flat, net.layers))


@dataclass
class DualTrace:
    """Recorded states of one primal / tangent evaluation.

    ``out[k]`` and ``dact[k]`` are the activation output and activation
    derivative of layer k, one row per input (``dact[k]`` is ``None`` for
    an identity layer); tangent lists are present only when the tangent
    sweep ran and hold m rows per input, one per latent basis vector,
    input-major (row ``b * m + k`` is ``J e_k`` at input b). Those rows read
    the derivative of their input's row of ``dact[k]``; ``tan_pre[k]``, the
    tangent pre-activation, is kept only where the activation's second
    derivative, which the reverse sweep reads, is not zero (tanh). The
    tangent input, the latent basis, is not held: it is ``_basis(B, m)``.
    """

    x0: np.ndarray
    out: list[np.ndarray]
    dact: list[np.ndarray | None]
    tan_pre: list[np.ndarray | None] | None = None
    tan_out: list[np.ndarray] | None = None

    @property
    def batch(self) -> int:
        return self.x0.shape[0]


@dataclass
class JvpResult:
    y: np.ndarray
    jv: np.ndarray  # (B, m, out): block p holds the rows J_p e_k
    pullback: None  # always None; the benchmark's JVP counter still reads it
    trace: DualTrace


def init(dims: list[int], activations: list[str], seed: int) -> Mlp:
    """He-initialized (ReLU-family) or Glorot-initialized (smooth) network.

    Biases start at zero; deterministic for a given seed.
    """
    if len(dims) < 2:
        raise ValueError("dims needs at least an input and an output size")
    if len(activations) != len(dims) - 1:
        raise ValueError(
            f"expected {len(dims) - 1} activations for {len(dims)} dims, got {len(activations)}"
        )
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        if act in ("relu", "leaky_relu"):
            std = np.sqrt(2.0 / fan_in)
        else:
            std = np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.normal(0.0, std, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return Mlp(layers)


def _as_batch(x: np.ndarray, dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"input must be a (batch, {dim}) array, got shape {np.shape(x)}")
    return a


def _slot(buffers: dict | None, key: tuple, rows: int, cols: int) -> np.ndarray:
    """The leading ``rows`` of the reused (capacity, cols) array ``buffers[key]``,
    replaced by a larger one when it has fewer rows; a new array without
    ``buffers``.

    Keys hold the width, so a network of other widths takes arrays of its own.
    """
    if buffers is None:
        return np.empty((rows, cols))
    key += (cols,)
    buf = buffers.get(key)
    if buf is None or buf.shape[0] < rows:
        buf = buffers[key] = np.empty((rows, cols))
    return buf[:rows]


def forward(net: Mlp, x: np.ndarray, buffers: dict | None = None) -> np.ndarray:
    """Evaluate the network on a (B, in_dim) batch.

    With ``buffers`` (see :func:`jvp`) each layer's output is written into
    the leading rows of an array held there, so the result is a view that
    the next call with the same ``buffers`` overwrites.
    """
    a = _as_batch(x, net.in_dim)
    b = a.shape[0]
    for k, layer in enumerate(net.layers):
        a = np.matmul(a, layer.weight.T, out=_slot(buffers, ("out", k), b, layer.weight.shape[0]))
        a += layer.bias
        _act_inplace(layer.activation, a)
    return a


def _primal(net: Mlp, xb: np.ndarray, buffers: dict | None = None):
    out, dact = [], []
    cur = xb
    b = xb.shape[0]
    for k, layer in enumerate(net.layers):
        width = layer.weight.shape[0]
        a = np.matmul(cur, layer.weight.T, out=_slot(buffers, ("out", k), b, width))
        a += layer.bias
        d = None if layer.activation == "identity" else _slot(buffers, ("dact", k), b, width)
        cur, d = _act_inplace(layer.activation, a, d)
        out.append(cur)
        dact.append(d)
    return out, dact


def forward_tape(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, DualTrace]:
    """Forward pass recording per-layer states for a later reverse sweep."""
    xb = _as_batch(x, net.in_dim)
    out, dact = _primal(net, xb)
    return out[-1], DualTrace(x0=xb, out=out, dact=dact)


@functools.lru_cache(maxsize=8)
def _basis(b: int, m: int) -> np.ndarray:
    """The read-only (B * m, m) latent basis block, B copies of ``I_m``.

    Built from a broadcast view (stride 0 at m = 1): a contiguous basis
    rounds the layer-0 weight gradient differently.
    """
    vb = np.broadcast_to(np.eye(m), (b, m, m)).reshape(b * m, m)
    vb.flags.writeable = False
    return vb


def jvp(net: Mlp, z: np.ndarray, buffers: dict | None = None) -> JvpResult:
    """Primal output and the Jacobian's columns ``J e_k`` at a (B, m) batch of codes.

    The latent basis is the block of m tangents per code; the primal runs
    once per code and ``jv`` is the (B, m, out) stack whose block p has the
    rows ``J_p e_k``, a view of the tape's last tangent array.

    ``buffers``, a dict that starts empty, lets a loop over blocks of codes
    reuse one set of arrays: every array of the result and its tape is then
    the leading rows of an array held there, with the bits of a call
    without ``buffers``, and the next call with the same ``buffers``
    overwrites it. :func:`forward` may share them; ``z`` must not be a view
    of them.
    """
    zb = _as_batch(z, net.in_dim)
    b, m = zb.shape
    out, dacts = _primal(net, zb, buffers)
    tan_pre, tan_out = [], []
    tan = _basis(b, m)
    for k, (layer, d) in enumerate(zip(net.layers, dacts)):
        width = layer.weight.shape[0]
        t = np.matmul(tan, layer.weight.T, out=_slot(buffers, ("tan_pre", k), b * m, width))
        # only a second derivative reads the tangent pre-activation
        smooth = layer.activation not in PIECEWISE_LINEAR
        tan = t
        if d is not None:
            # each code's m rows take its one derivative row
            if smooth:
                tan = _slot(buffers, ("tan_out", k), b * m, width)
            shape = (b, m, t.shape[1])
            np.multiply(t.reshape(shape), d[:, None, :], out=tan.reshape(shape))
        tan_pre.append(t if smooth else None)
        tan_out.append(tan)
    trace = DualTrace(zb, out, dacts, tan_pre, tan_out)
    return JvpResult(out[-1], tan.reshape(b, m, tan.shape[1]), None, trace)


def gram(rows: np.ndarray) -> np.ndarray:
    """(B, m, m) Gram matrices ``C C^T`` of a (B, m, out) stack ``C`` of tangent rows.

    With the latent basis as tangents, row k of ``C`` is ``J e_k`` and its
    Gram matrix is the pullback metric ``J^T J``.
    """
    return np.einsum("pko,plo->pkl", rows, rows)


def jacobian(net: Mlp, z: np.ndarray) -> np.ndarray:
    """Full (out_dim, in_dim) Jacobian at a single point: :func:`jvp`'s one block, transposed."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.ndim != 1 or zv.shape[0] != net.in_dim:
        raise ValueError(f"expected a single input of length {net.in_dim}")
    return jvp(net, zv[None, :]).jv[0].T


def _adjoint(g: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
    a = np.asarray(g, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{what} adjoint must have shape {shape}, got {a.shape}")
    return a


def backward(
    net: Mlp,
    trace: DualTrace,
    out_grad: np.ndarray | None = None,
    tan_grad: np.ndarray | None = None,
    *,
    grads: ParamGradient | None = None,
    input_grad: bool = True,
) -> tuple[ParamGradient, np.ndarray | None]:
    """One reverse sweep over a recorded tape.

    The adjoints seed the scalar's derivative w.r.t. the primal output
    (B, out_dim) and the tangent output, the (B, m, out_dim) stack of
    :func:`jvp`'s ``jv``; a missing one is zero. Returns parameter
    gradients, written into ``grads`` when it is given (every entry is
    overwritten), and the gradient w.r.t. the primal input (one row per
    input), which ``input_grad=False`` skips and returns as ``None``. No
    adjoint of the tangent input is formed.
    """
    if tan_grad is not None and trace.tan_out is None:
        raise ValueError("tangent adjoint given but the trace has no tangent sweep")
    if grads is None:
        # every entry is written below: each layer's first term lands with out=
        grads = ParamGradient.from_flat(net, np.empty_like(net.params))

    b, m = trace.x0.shape
    n = 0 if tan_grad is None else m
    width = net.layers[-1].weight.shape[0]
    # the output adjoints of the layer, b primal and b * n tangent rows, scaled
    # in place: copies of the caller's, and zeros for a missing one
    g_x, g_t = np.zeros((b, width)), np.zeros((b * n, width))
    if out_grad is not None:
        g_x[:] = _adjoint(out_grad, (b, width), "output")
    if n:
        g_t[:] = _adjoint(tan_grad, (b, n, width), "tangent").reshape(b * n, width)
    for k in range(len(net.layers) - 1, -1, -1):
        layer, d = net.layers[k], trace.dact[k]
        dd = None
        if n:  # s_k = dact(a_k) * t_k, so a tangent row also reaches a_k through dact'
            g_s = g_t.reshape(b, n, -1)
            ddact = _ddact(layer.activation, trace.out[k], d)
            if ddact is not None:  # from the unscaled tangent adjoints, summed per input
                dd = (ddact[:, None, :] * trace.tan_pre[k].reshape(g_s.shape) * g_s).sum(axis=1)
            if d is not None:  # each input's rows take its derivative row
                g_s *= d[:, None, :]
        if d is not None:
            g_x *= d
        if dd is not None:
            g_x += dd
        x_in = trace.x0 if k == 0 else trace.out[k - 1]
        np.matmul(g_x.T, x_in, out=grads.weights[k])
        if n:
            grads.weights[k] += g_t.T @ (_basis(b, n) if k == 0 else trace.tan_out[k - 1])
        np.add.reduce(g_x, axis=0, out=grads.biases[k])
        if k > 0:
            g_x, g_t = g_x @ layer.weight, g_t @ layer.weight if n else g_t
    return grads, (g_x @ net.layers[0].weight if input_grad else None)
