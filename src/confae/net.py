"""Fully connected networks with hand-rolled differentiation.

Two sweeps are supported over the same recorded evaluation:

* a primal forward pass (affine maps + pointwise activations),
* a tangent pass propagating a directional derivative ``Jv`` alongside the
  primal states (forward mode).

Both are recorded as nodes of one tape (:class:`DualTrace`), so a single
standard reverse sweep (:func:`backward`) yields exact parameter gradients of
any scalar built from the primal output or the tangent output. Pushing the
latent basis through the tangent pass gives the Jacobian's columns, so any
function of the Gram matrix ``J^T J`` can be trained without nested autodiff
machinery.

States are batched row-wise: a (B, d) array holds B independent inputs.
Public entry points also accept single vectors. A JVP may carry N tangents
per input as a (B, N, m) block: the N tangents of a code share one primal
row (pre-activations, outputs and activation derivatives are computed on B
rows), while tangent states live on B*N rows. The reverse sweep sums the
tangents' second-derivative terms per code before the primal adjoint
products, and skips the primal adjoint chain where nothing reaches it (a
piecewise-linear activation and no primal-output adjoint).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "identity")


def _act(name: str, a: np.ndarray, slope: float) -> np.ndarray:
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "leaky_relu":
        return np.where(a > 0.0, a, slope * a)
    if name == "tanh":
        return np.tanh(a)
    if name == "identity":
        return a
    raise ValueError(f"unknown activation {name!r}")


def _dact(name: str, a: np.ndarray, slope: float) -> np.ndarray:
    # Derivative w.r.t. the pre-activation. The ReLU kink at 0 uses the
    # zero-side subgradient.
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    if name == "leaky_relu":
        return np.where(a > 0.0, 1.0, slope)
    if name == "tanh":
        t = np.tanh(a)
        return 1.0 - t * t
    if name == "identity":
        return np.ones_like(a)
    raise ValueError(f"unknown activation {name!r}")


def _ddact(name: str, a: np.ndarray, slope: float) -> np.ndarray | None:
    # Second derivative; None means identically zero (piecewise-linear).
    if name == "tanh":
        t = np.tanh(a)
        return -2.0 * t * (1.0 - t * t)
    if name in ("relu", "leaky_relu", "identity"):
        return None
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str
    slope: float = 0.01  # leaky_relu only

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("layer weight must be 2-D and bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match weight rows {self.weight.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")


@dataclass
class Mlp:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[0] != nxt.weight.shape[1]:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def dims(self) -> list[int]:
        return [self.in_dim] + [l.weight.shape[0] for l in self.layers]

    def copy(self) -> "Mlp":
        return Mlp(
            [Layer(l.weight.copy(), l.bias.copy(), l.activation, l.slope) for l in self.layers]
        )


@dataclass
class ParamGradient:
    """Gradient arrays shape-congruent with an Mlp's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, net: Mlp) -> "ParamGradient":
        return cls(
            [np.zeros_like(l.weight) for l in net.layers],
            [np.zeros_like(l.bias) for l in net.layers],
        )

    def add_scaled(self, other: "ParamGradient", scale: float = 1.0) -> "ParamGradient":
        for gw, ow in zip(self.weights, other.weights):
            gw += scale * ow
        for gb, ob in zip(self.biases, other.biases):
            gb += scale * ob
        return self


@dataclass
class DualTrace:
    """Recorded states of one primal / tangent evaluation.

    ``pre[k]``, ``out[k]`` and ``dact[k]`` are the pre-activation, activation
    output and activation derivative of layer k, one row per input; tangent
    lists are present only when the tangent sweep ran and hold ``fanout``
    rows per input, input-major (row ``b * fanout + i`` is tangent i of
    input b).
    """

    x0: np.ndarray
    pre: list[np.ndarray]
    out: list[np.ndarray]
    dact: list[np.ndarray]
    fanout: int = 1
    v0: np.ndarray | None = None
    tan_pre: list[np.ndarray] | None = None
    tan_out: list[np.ndarray] | None = None

    @property
    def batch(self) -> int:
        return self.x0.shape[0]


@dataclass
class JvpResult:
    y: np.ndarray
    jv: np.ndarray
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


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"{what} must have length {dim}, got shape {np.shape(x)}")
    return a, single


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts a vector or a (B, in_dim) batch."""
    a, single = _as_batch(x, net.in_dim, "input")
    for layer in net.layers:
        a = _act(layer.activation, a @ layer.weight.T + layer.bias, layer.slope)
    return a[0] if single else a


def _primal(net: Mlp, xb: np.ndarray):
    pre, out, dact = [], [], []
    cur = xb
    for layer in net.layers:
        a = cur @ layer.weight.T + layer.bias
        cur = _act(layer.activation, a, layer.slope)
        pre.append(a)
        out.append(cur)
        dact.append(_dact(layer.activation, a, layer.slope))
    return pre, out, dact


def _per_row(mask: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``mask`` (B, d) applied to each of the B * n ``rows`` of its input."""
    b, d = mask.shape
    return (mask[:, None, :] * rows.reshape(b, n, d)).reshape(rows.shape)


def forward_tape(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, DualTrace]:
    """Forward pass recording per-layer states for a later reverse sweep."""
    xb, _ = _as_batch(x, net.in_dim, "input")
    pre, out, dact = _primal(net, xb)
    return out[-1], DualTrace(x0=xb, pre=pre, out=out, dact=dact)


def jvp(net: Mlp, z: np.ndarray, v: np.ndarray) -> JvpResult:
    """Primal output and directional derivative ``Jv`` at ``z``.

    ``v`` is one tangent per input, (B, m), or a (B, N, m) block of N
    tangents per input; a block's primal runs once per input and ``jv``
    holds its B * N tangent rows, input-major.
    """
    zb, single = _as_batch(z, net.in_dim, "input")
    b = zb.shape[0]
    va = np.asarray(v, dtype=np.float64)
    if va.ndim == 3:
        if va.shape[0] != b or va.shape[1] == 0 or va.shape[2] != net.in_dim:
            raise ValueError(
                f"tangent block must be ({b}, N >= 1, {net.in_dim}), got shape {va.shape}"
            )
        fanout, vsingle = va.shape[1], False
        vb = va.reshape(b * fanout, net.in_dim)
    else:
        vb, vsingle = _as_batch(va, net.in_dim, "tangent")
        fanout = 1
        if vb.shape[0] != b:
            raise ValueError("input and tangent batches differ in size")
    pre, out, dacts = _primal(net, zb)
    tan_pre, tan_out = [], []
    tan = vb
    for layer, d in zip(net.layers, dacts):
        t = tan @ layer.weight.T
        tan = _per_row(d, t, fanout)
        tan_pre.append(t)
        tan_out.append(tan)
    trace = DualTrace(
        x0=zb,
        pre=pre,
        out=out,
        dact=dacts,
        fanout=fanout,
        v0=vb,
        tan_pre=tan_pre,
        tan_out=tan_out,
    )
    cur = out[-1]
    if single and vsingle:
        return JvpResult(cur[0], tan[0], None, trace)
    return JvpResult(cur, tan, None, trace)


def jacobians(net: Mlp, z: np.ndarray) -> np.ndarray:
    """(B, out_dim, in_dim) Jacobian stack of a batch, one jvp with the basis block.

    The result is a transposed view of the contiguous (B, in_dim, out_dim)
    block whose row k of entry p is ``J_p e_k``.
    """
    zb, _ = _as_batch(z, net.in_dim, "input")
    b, m = zb.shape
    basis = np.broadcast_to(np.eye(m), (b, m, m))
    return jvp(net, zb, basis).jv.reshape(b, m, -1).transpose(0, 2, 1)


def gram(rows: np.ndarray) -> np.ndarray:
    """(B, m, m) Gram matrices ``C C^T`` of a (B, m, out) stack ``C`` of tangent rows.

    With the latent basis as tangents, row k of ``C`` is ``J e_k`` and its
    Gram matrix is the pullback metric ``J^T J``.
    """
    return np.einsum("pko,plo->pkl", rows, rows)


def jacobian(net: Mlp, z: np.ndarray) -> np.ndarray:
    """Full (out_dim, in_dim) Jacobian at a single point, column by column."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.ndim != 1 or zv.shape[0] != net.in_dim:
        raise ValueError(f"expected a single input of length {net.in_dim}")
    return jacobians(net, zv[None, :])[0].copy()


def backward(
    net: Mlp,
    trace: DualTrace,
    out_grad: np.ndarray | None = None,
    tan_grad: np.ndarray | None = None,
) -> tuple[ParamGradient, np.ndarray, np.ndarray | None]:
    """One reverse sweep over a recorded tape.

    The adjoints seed the scalar's derivative w.r.t. the primal output and
    the tangent output respectively. Returns parameter gradients, the
    gradient w.r.t. the primal input (one row per input) and (if a tangent
    sweep was recorded) w.r.t. the tangent input (one row per tangent).
    """
    grads = ParamGradient.zeros_like(net)
    if tan_grad is not None and trace.tan_out is None:
        raise ValueError("tangent adjoint given but the trace has no tangent sweep")

    b, n = trace.batch, trace.fanout
    dacts = trace.dact
    ddacts = [
        _ddact(l.activation, a, l.slope) for l, a in zip(net.layers, trace.pre)
    ]

    g_s = None
    if tan_grad is not None:
        g_s = np.asarray(tan_grad, dtype=np.float64)
        if g_s.ndim == 1:
            g_s = g_s[None, :]

    g_x = None
    if out_grad is not None:
        g_x = np.asarray(out_grad, dtype=np.float64)
        if g_x.ndim == 1:
            g_x = g_x[None, :]

    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        # g_a is the primal pre-activation adjoint; None while nothing reaches it
        g_a = None
        if g_s is not None:
            # s_k = dact(a_k) * t_k ; t_k = s_{k-1} @ W_k^T
            g_t = _per_row(dacts[k], g_s, n)
            if ddacts[k] is not None:
                # second-derivative term of every tangent row, summed per input
                d = dacts[k].shape[1]
                g_a = (
                    ddacts[k][:, None, :]
                    * trace.tan_pre[k].reshape(b, n, d)
                    * g_s.reshape(b, n, d)
                ).sum(axis=1)
            s_in = trace.v0 if k == 0 else trace.tan_out[k - 1]
            grads.weights[k] += g_t.T @ s_in
            g_s = g_t @ layer.weight
        if g_x is not None:
            term = dacts[k] * g_x
            g_a = term if g_a is None else g_a + term
        if g_a is None:
            continue
        x_in = trace.x0 if k == 0 else trace.out[k - 1]
        grads.weights[k] += g_a.T @ x_in
        grads.biases[k] += g_a.sum(axis=0)
        g_x = g_a @ layer.weight
    if g_x is None:
        g_x = np.zeros_like(trace.x0)
    return grads, g_x, g_s


def to_dict(net: Mlp) -> dict:
    """JSON-ready description: dims, activation tags, row-major parameters."""
    return {
        "dims": net.dims,
        "activations": [l.activation for l in net.layers],
        "slopes": [l.slope for l in net.layers],
        "weights": [l.weight.tolist() for l in net.layers],
        "biases": [l.bias.tolist() for l in net.layers],
    }


def from_dict(obj: dict) -> Mlp:
    layers = [
        Layer(np.array(w, dtype=np.float64), np.array(b, dtype=np.float64), act, slope)
        for w, b, act, slope in zip(
            obj["weights"], obj["biases"], obj["activations"], obj["slopes"]
        )
    ]
    net = Mlp(layers)
    if net.dims != list(obj["dims"]):
        raise ValueError(f"checkpoint dims {obj['dims']} do not match parameter shapes {net.dims}")
    return net

