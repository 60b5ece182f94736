"""GRU encoder of n layers and the affine evidential head.

The encoder consumes an (n, T, d) stack of window-feature matrices and
returns the final hidden state of its last GRU layer.  Gate equations
follow the standard formulation with the reset gate applied to the
hidden state before the candidate transform:

    r = sigmoid(x W_r + h U_r + b_r)
    z = sigmoid(x W_z + h U_z + b_z)
    c = tanh(x W_c + (r * h) U_c + b_c)
    h' = (1 - z) * h + z * c

Each layer keeps its gates side by side as [r | z | c] in three arrays, w
(d, 3k), u (k, 3k) and b (3k,), named enc.l{i}.w, .u and .b in training
and in a checkpoint (schema_version 2).

One kernel, gru_layer, runs this recurrence for one layer over every
sequence and step at once, and gru_layer_backward is its hand-derived
backward.  Inference (encode_states, encode_batch), training
(taped_encode, one tape op for the whole stack) and the streaming
detector all go through it, for any number of layers.  taped_head
records head's expression as one tape op with its backward.

Initial hidden states are zero.  All rows of the input are processed,
including any leading zero-pad windows a short history was filled with
(after standardization those are ordinary "silent" inputs, so every
encode of a padded sequence starts from the same quiet-state trajectory).
The state at step t depends only on rows up to t.

Dropout is inverted-scaled and applied to each lower layer's outputs fed
into the layer above and to the embedding fed into the head, only while
active.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .evidential import alpha_from_raw
from .numerics import Node, SeededRng, Tape
from .numerics.autodiff import sigmoid


@dataclass
class GruLayerParams:
    """One GRU layer: input path w (d, 3k), hidden path u (k, 3k), bias b (3k,)."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w.shape[0]

    @property
    def hidden(self) -> int:
        return self.u.shape[0]


@dataclass
class EncoderParams:
    layers: list[GruLayerParams] = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def hidden(self) -> int:
        return self.layers[-1].hidden

    def to_flat(self) -> dict[str, np.ndarray]:
        return {f"enc.l{i}.{p}": getattr(layer, p)
                for i, layer in enumerate(self.layers) for p in "wub"}

    @classmethod
    def from_flat(cls, flat: dict[str, np.ndarray], n_layers: int) -> "EncoderParams":
        return cls(layers=[GruLayerParams(*(flat[f"enc.l{i}.{p}"] for p in "wub"))
                           for i in range(n_layers)])


@dataclass
class EvidentialHeadParams:
    w: np.ndarray  # (k, K)
    b: np.ndarray  # (K,)

    @property
    def n_clusters(self) -> int:
        return self.w.shape[1]

    def to_flat(self) -> dict[str, np.ndarray]:
        return {"head.w": self.w, "head.b": self.b}

    @classmethod
    def from_flat(cls, flat: dict[str, np.ndarray]) -> "EvidentialHeadParams":
        return cls(w=flat["head.w"], b=flat["head.b"])


@dataclass(frozen=True)
class DropoutSpec:
    p: float = 0.3
    active: bool = False

    def __post_init__(self):
        if not (0.0 <= self.p < 1.0):
            raise ContractError(f"dropout probability must be in [0, 1), got {self.p}")


@dataclass(frozen=True)
class LatentEmbedding:
    values: np.ndarray
    user: str = ""
    window_end: float = 0.0


def _uniform_init(rng: SeededRng, shape: tuple[int, int]) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return (rng.uniform(shape) * 2.0 - 1.0) * bound


FIRST_LAYER_UPDATE_BIAS = -1.0


def init_encoder(input_dim: int, hidden: int, n_layers: int, rng: SeededRng) -> EncoderParams:
    """Uniform(+-1/sqrt(fan-in)) weights; biases zero except layer 1's
    update gate.

    The negative first-layer update-gate bias puts the input-facing cell
    in a slow-update regime: ordinary feature noise barely moves the
    state, while large standardized deviations saturate the gate open
    and punch through.  Deeper layers keep a neutral gate so first-layer
    movement propagates to the final state instead of being absorbed.
    Each gate's block is drawn on its own: W_r, W_z, W_c, then U_r, U_z, U_c.
    """
    layers = []
    for i in range(n_layers):
        d_in = input_dim if i == 0 else hidden
        w = np.concatenate([_uniform_init(rng, (d_in, hidden)) for _ in range(3)], axis=1)
        u = np.concatenate([_uniform_init(rng, (hidden, hidden)) for _ in range(3)], axis=1)
        b = np.zeros(3 * hidden)
        if i == 0:
            b[hidden:2 * hidden] = FIRST_LAYER_UPDATE_BIAS
        layers.append(GruLayerParams(w=w, u=u, b=b))
    return EncoderParams(layers=layers)


def init_head(hidden: int, n_clusters: int, rng: SeededRng) -> EvidentialHeadParams:
    """Affine head with uniform weights and a zero bias.

    The bias carries no evidence prior.  An untrained head maps a zero
    embedding to alpha = 1 + softplus(0) = 1 + ln 2 for every cluster, so
    u = 1/(1 + ln 2), above the default tau_u.  Evidence for the windows
    seen in training is earned by training, and inputs unlike them keep a
    high u (Sensoy et al. 2018, "Evidential Deep Learning to Quantify
    Classification Uncertainty").
    """
    return EvidentialHeadParams(w=_uniform_init(rng, (hidden, n_clusters)),
                                b=np.zeros(n_clusters))


def _dropout_mask(rng: SeededRng, shape, p: float) -> np.ndarray:
    keep = (rng.uniform(shape) >= p).astype(np.float64)
    return keep / (1.0 - p)


# Steps whose input projection gru_layer computes in one GEMM.
PROJECTION_STEPS = 20


def gru_layer(layer: GruLayerParams, x: np.ndarray,
              gates: np.ndarray | None = None) -> np.ndarray:
    """Run one GRU layer from a zero state over an (n, T, d) stack.

    The input projections of all gates are hoisted out of the time loop
    (Appleyard et al. 2016), one GEMM per PROJECTION_STEPS steps, so that
    memory holds one chunk of them rather than all T steps; only the
    hidden-path products stay inside the loop.  Returns the (n, T, k)
    states.  Training passes an (n, T, 3k) gates buffer, which receives
    the gate activations [r | z | c] that gru_layer_backward needs;
    inference passes none.
    """
    n, t_len, d = x.shape
    k = layer.hidden
    b, u_rz, u_cand = layer.b, layer.u[:, :2 * k], layer.u[:, 2 * k:]
    bounds = list(range(0, t_len, PROJECTION_STEPS)) + [t_len]
    # A GEMM of 2 rows or more gives each row the bits it has in one GEMM
    # over all steps (see detector.BLOCK_USERS), but a 1-row product takes
    # gemv: so with n = 1 a 1-step tail joins the chunk before it.
    if n == 1 and len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    states = np.empty((n, t_len, k))
    h = np.zeros((n, k))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        xw = (x[:, lo:hi].reshape(n * (hi - lo), d) @ layer.w).reshape(n, hi - lo, 3 * k)
        for t in range(lo, hi):
            rz = sigmoid(xw[:, t - lo, :2 * k] + h @ u_rz + b[:2 * k])
            r, z = rz[:, :k], rz[:, k:]
            c = np.tanh(xw[:, t - lo, 2 * k:] + (r * h) @ u_cand + b[2 * k:])
            h = h - z * h + z * c
            states[:, t] = h
            if gates is not None:
                gates[:, t, :2 * k] = rz
                gates[:, t, 2 * k:] = c
    return states


def gru_layer_backward(layer: GruLayerParams, x: np.ndarray, states: np.ndarray,
                       gates: np.ndarray, d_states: np.ndarray,
                       ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagation through time for one gru_layer call.

    d_states is the (n, T, k) adjoint of the layer's states.  The time
    loop carries only the state adjoint; the weight gradients are then
    one GEMM each over all steps.  Returns the adjoint of x and the
    gradients keyed "w", "u" and "b", stacked as the layer's arrays.
    """
    n, t_len, d = x.shape
    k = layer.hidden
    u_rz, u_cand = layer.u[:, :2 * k], layer.u[:, 2 * k:]
    h_prev = np.concatenate([np.zeros((n, 1, k)), states[:, :-1]], axis=1)
    r, z, c = gates[..., :k], gates[..., k:2 * k], gates[..., 2 * k:]
    da = np.empty((n, t_len, 3 * k))  # pre-activation adjoints [r | z | c]
    dh = np.zeros((n, k))
    for t in range(t_len - 1, -1, -1):
        dh = dh + d_states[:, t]
        hp, rt, zt, ct = h_prev[:, t], r[:, t], z[:, t], c[:, t]
        da_c = dh * zt * (1.0 - ct * ct)
        d_rh = da_c @ u_cand.T
        da[:, t, :k] = d_rh * hp * rt * (1.0 - rt)
        da[:, t, k:2 * k] = dh * (ct - hp) * zt * (1.0 - zt)
        da[:, t, 2 * k:] = da_c
        dh = dh * (1.0 - zt) + d_rh * rt + da[:, t, :2 * k] @ u_rz.T

    flat_da = da.reshape(n * t_len, 3 * k)
    du = np.concatenate([h_prev.reshape(n * t_len, k).T @ flat_da[:, :2 * k],
                         (r * h_prev).reshape(n * t_len, k).T @ flat_da[:, 2 * k:]], axis=1)
    grads = {"w": x.reshape(n * t_len, d).T @ flat_da, "u": du, "b": flat_da.sum(axis=0)}
    return (flat_da @ layer.w.T).reshape(n, t_len, d), grads


def encode_states(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Inference encode of an (n, T, d) stack to the last layer's (n, T, k) states."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"features must be (n, T, d), got shape {x.shape}")
    if x.shape[2] != params.input_dim:
        raise ShapeError(f"feature width {x.shape[2]} != encoder input width {params.input_dim}")
    if x.shape[1] < 1:
        raise ContractError("sequence has no steps to encode")
    for layer in params.layers:
        x = gru_layer(layer, x)
    return x


def encode_batch(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Inference-mode batched encode of an (n, T, d) stack to (n, k)."""
    return encode_states(params, features)[:, -1]


def head(params: EvidentialHeadParams, z) -> np.ndarray:
    """Map an (n, k) stack of embeddings to (n, K) Dirichlet concentrations
    (all > 1), one row per embedding, in one product."""
    values = np.asarray(z, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != params.w.shape[0]:
        raise ShapeError(
            f"embeddings of shape {values.shape} do not fit head input width {params.w.shape[0]}")
    return alpha_from_raw(values @ params.w + params.b)


# -- taped (training) forward -------------------------------------------------


def taped_encode(tape: Tape, pnodes: dict[str, Node], features: np.ndarray,
                 n_layers: int, dropout: DropoutSpec,
                 rng: SeededRng | None) -> Node:
    """Differentiable batched encode, recorded on the tape as one op.

    The forward is the gru_layer stack of encode_states; the backward runs
    gru_layer_backward from the top layer down.  With active dropout each
    upper layer's input is masked by one (T, n, k) draw, layer by layer,
    and the final state by one (n, k) draw.
    """
    n, t_len, _ = features.shape
    if dropout.active and rng is None:
        raise ContractError("active dropout requires an rng")
    names = [f"enc.l{i}.{p}" for i in range(n_layers) for p in "wub"]
    params = EncoderParams.from_flat({name: pnodes[name].value for name in names}, n_layers)
    k = params.hidden

    x = features
    caches = []  # per layer: input, states, gates, input dropout mask
    for depth, layer in enumerate(params.layers):
        mask = None
        if depth > 0 and dropout.active:
            mask = _dropout_mask(rng, (t_len, n, k), dropout.p).transpose(1, 0, 2)
            x = x * mask
        gates = np.empty((n, t_len, 3 * layer.hidden))
        states = gru_layer(layer, x, gates)
        caches.append((x, states, gates, mask))
        x = states
    out = x[:, -1]
    out_mask = _dropout_mask(rng, (n, k), dropout.p) if dropout.active else None
    if out_mask is not None:
        out = out * out_mask

    def backward(g):
        d_states = np.zeros((n, t_len, k))
        d_states[:, -1] = g if out_mask is None else g * out_mask
        grads = {}
        for depth in reversed(range(n_layers)):
            x_in, states, gates, mask = caches[depth]
            d_x, layer_grads = gru_layer_backward(params.layers[depth], x_in, states,
                                                  gates, d_states)
            grads.update({f"enc.l{depth}.{name}": v for name, v in layer_grads.items()})
            d_states = d_x if mask is None else d_x * mask
        return tuple(grads[name] for name in names)

    return tape.record(out, tuple(pnodes[name] for name in names), backward)


def taped_head(tape: Tape, pnodes: dict[str, Node], z: Node) -> Node:
    """head as one tape op: alpha = softplus(z W + b) + 1, whose
    derivative in z W + b is the sigmoid."""
    w, b = pnodes["head.w"], pnodes["head.b"]
    raw = z.value @ w.value + b.value

    def backward(g):
        g_raw = g * sigmoid(raw)
        return g_raw @ w.value.T, z.value.T @ g_raw, g_raw.sum(axis=0)

    return tape.record(alpha_from_raw(raw), (z, w, b), backward)
