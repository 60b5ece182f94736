import itertools
import math

import numpy as np
import pytest

from evsentinel.detector import DetectorConfig
from evsentinel.errors import ContractError, ShapeError
from evsentinel.evidential import assess, taped_evidential_loss
from evsentinel.model import (
    DropoutSpec,
    EncoderParams,
    EvidentialHeadParams,
    GruLayerParams,
    encode_batch,
    encode_states,
    gru_layer,
    head,
    init_encoder,
    init_head,
    taped_encode,
    taped_head,
)
from evsentinel.numerics import SeededRng, Tape, backward, sigmoid as array_sigmoid
from tests.test_evidential import PrimitiveTape


def leaf_params(tape, encoder, head_params=None):
    """Wrap parameter arrays as differentiable tape leaves, keyed by name."""
    flat = encoder.to_flat()
    if head_params is not None:
        flat.update(head_params.to_flat())
    return {name: tape.leaf(arr) for name, arr in flat.items()}


def zero_encoder(d, k, layers=2):
    return EncoderParams(layers=[
        GruLayerParams(w=np.zeros((d if i == 0 else k, 3 * k)), u=np.zeros((k, 3 * k)),
                       b=np.zeros(3 * k))
        for i in range(layers)
    ])


def scalar_encoder(wr, wz, wc, ur, uz, uc, br, bz, bc):
    """One layer of one unit; its stacked arrays hold the gates as [r | z | c]."""
    return EncoderParams(layers=[GruLayerParams(
        w=np.array([[wr, wz, wc]]), u=np.array([[ur, uz, uc]]), b=np.array([br, bz, bc]))])


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# -- reference oracle: the recurrence one step at a time ----------------------


def oracle_step(layer, x, h):
    """One GRU step, each gate from its own block of the stacked arrays."""
    k = layer.hidden
    w_r, w_z, w_c = layer.w[:, :k], layer.w[:, k:2 * k], layer.w[:, 2 * k:]
    u_r, u_z, u_c = layer.u[:, :k], layer.u[:, k:2 * k], layer.u[:, 2 * k:]
    b_r, b_z, b_c = layer.b[:k], layer.b[k:2 * k], layer.b[2 * k:]
    r = array_sigmoid(x @ w_r + h @ u_r + b_r)
    z = array_sigmoid(x @ w_z + h @ u_z + b_z)
    c = np.tanh(x @ w_c + (r * h) @ u_c + b_c)
    return (1.0 - z) * h + z * c


def oracle_encode(params, features, dropout=None, rng=None):
    """Encode an (n, T, d) stack to (n, k) embeddings, one step at a time.

    With active dropout, every upper-layer step input and the final state
    draw their own (n, k) mask, in time order, layer by layer.
    """
    features = np.asarray(features, dtype=np.float64)
    n, k = features.shape[0], params.hidden
    active = dropout is not None and dropout.active
    layer_input = [features[:, t] for t in range(features.shape[1])]
    for depth, layer in enumerate(params.layers):
        h = np.zeros((n, k))
        outs = []
        for x_t in layer_input:
            if depth > 0 and active:
                x_t = x_t * dropout_mask(rng, (n, k), dropout.p)
            h = oracle_step(layer, x_t, h)
            outs.append(h)
        layer_input = outs
    out = layer_input[-1]
    if active:
        out = out * dropout_mask(rng, (n, k), dropout.p)
    return out


def dropout_mask(rng, shape, p):
    return (rng.uniform(shape) >= p).astype(np.float64) / (1.0 - p)


def encode_one(params, features):
    return encode_batch(params, np.asarray(features, dtype=np.float64)[None])[0]


def test_zero_params_give_zero_embedding():
    params = zero_encoder(3, 4)
    x = SeededRng(1).normal((7, 3))
    z = encode_one(params, x)
    assert np.array_equal(z, np.zeros(4))


def test_single_unit_single_step_matches_hand_computation():
    wr, wz, wc = 0.8, -0.4, 1.2
    ur, uz, uc = 0.3, 0.2, -0.5
    br, bz, bc = 0.1, -0.2, 0.05
    params = scalar_encoder(wr, wz, wc, ur, uz, uc, br, bz, bc)
    x = 0.5

    # hand-evaluated standard GRU step from h = 0
    z_gate = sigmoid(x * wz + bz)
    c = math.tanh(x * wc + bc)  # r * h term vanishes at h = 0
    expected = z_gate * c

    got = encode_batch(params, np.array([[[x]]]))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(expected, abs=1e-15)


def test_single_unit_two_steps_matches_hand_computation():
    wr, wz, wc = 0.8, -0.4, 1.2
    ur, uz, uc = 0.3, 0.2, -0.5
    br, bz, bc = 0.1, -0.2, 0.05
    params = scalar_encoder(wr, wz, wc, ur, uz, uc, br, bz, bc)
    xs = [0.5, -1.0]

    h = 0.0
    for x in xs:
        r = sigmoid(x * wr + h * ur + br)
        z = sigmoid(x * wz + h * uz + bz)
        c = math.tanh(x * wc + r * h * uc + bc)
        h = (1.0 - z) * h + z * c

    got = encode_batch(params, np.array(xs).reshape(1, 2, 1))
    assert got[0, 0] == pytest.approx(h, abs=1e-15)


def test_encode_deterministic_without_dropout():
    rng = SeededRng(3)
    params = init_encoder(3, 5, 2, rng)
    x = SeededRng(4).normal((9, 3))
    a = encode_one(params, x)
    b = encode_one(params, x)
    assert a.tobytes() == b.tobytes()


def taped_values(params, x, dropout, rng):
    tape = Tape()
    pnodes = leaf_params(tape, params)
    return taped_encode(tape, pnodes, x, len(params.layers), dropout, rng).value


def test_dropout_deterministic_given_rng_and_ignored_when_off():
    params = init_encoder(3, 5, 2, SeededRng(5))
    x = SeededRng(6).normal((4, 9, 3))
    spec = DropoutSpec(p=0.3, active=True)
    a = taped_values(params, x, spec, SeededRng(77))
    b = taped_values(params, x, spec, SeededRng(77))
    c = taped_values(params, x, spec, SeededRng(78))
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, c)
    # inactive dropout must not consume or depend on the rng
    off_rng = SeededRng(1)
    off1 = taped_values(params, x, DropoutSpec(p=0.3, active=False), off_rng)
    off2 = taped_values(params, x, DropoutSpec(p=0.3, active=False), None)
    assert off1.tobytes() == off2.tobytes()
    assert off_rng.counter == 0


def test_taped_dropout_draws_masks_in_per_step_order():
    # one (T, n, k) draw per upper layer equals T per-step (n, k) draws
    params = init_encoder(3, 5, 3, SeededRng(7))
    x = SeededRng(8).normal((4, 6, 3))
    spec = DropoutSpec(p=0.3, active=True)
    taped = taped_values(params, x, spec, SeededRng(79))
    oracle = oracle_encode(params, x, spec, SeededRng(79))
    assert np.allclose(taped, oracle, atol=1e-12, rtol=0)


def test_active_dropout_requires_rng():
    params = init_encoder(2, 3, 2, SeededRng(1))
    with pytest.raises(ContractError):
        taped_values(params, np.zeros((1, 4, 2)), DropoutSpec(p=0.3, active=True), None)


def test_dropout_spec_validation():
    with pytest.raises(ContractError):
        DropoutSpec(p=1.0)
    with pytest.raises(ContractError):
        DropoutSpec(p=-0.1)


def test_width_mismatch_raises_shape_error():
    params = init_encoder(3, 4, 2, SeededRng(1))
    with pytest.raises(ShapeError):
        encode_batch(params, np.zeros((1, 5, 2)))


def test_empty_sequence_rejected():
    params = init_encoder(3, 4, 2, SeededRng(1))
    with pytest.raises(ContractError):
        encode_batch(params, np.zeros((1, 0, 3)))


def test_trailing_padding_never_processed_with_length_metadata():
    # the state at a sequence's real length ignores whatever follows it
    params = init_encoder(3, 4, 2, SeededRng(9))
    real = SeededRng(10).normal((6, 3))
    padded = np.vstack([real, np.zeros((5, 3))])
    noisy = np.vstack([real, SeededRng(11).normal((5, 3))])
    b = encode_one(params, real)
    for longer in (padded, noisy):
        states = encode_states(params, longer[None])
        assert states.shape == (1, 11, 4)
        assert states[0, 5].tobytes() == b.tobytes()


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_encode_batch_matches_single_encodes(n_layers):
    params = init_encoder(4, 6, n_layers, SeededRng(13))
    stack = SeededRng(14).normal((5, 8, 4))
    batch = encode_batch(params, stack)
    for i in range(5):
        single = oracle_encode(params, stack[i:i + 1])[0]
        assert np.allclose(batch[i], single, atol=1e-12, rtol=0)


# -- evidential head -----------------------------------------------------------


def test_head_zero_params_gives_ln2_plus_one():
    params = EvidentialHeadParams(w=np.zeros((4, 5)), b=np.zeros(5))
    a = assess(head(params, np.ones((1, 4)))[0])
    assert np.allclose(a.alpha, math.log(2.0) + 1.0, atol=1e-12)


def test_init_head_starts_with_zero_bias():
    params = init_head(6, 5, SeededRng(15))
    assert np.array_equal(params.b, np.zeros(5))
    a = assess(head(params, np.zeros((1, 6)))[0])
    assert np.allclose(a.alpha, math.log(2.0) + 1.0, atol=1e-12)
    assert a.uncertainty == pytest.approx(1.0 / (1.0 + math.log(2.0)), abs=1e-12)
    # an untrained head is uncertain enough to alert at the default tau_u
    assert a.uncertainty > DetectorConfig().tau_u


def test_head_alpha_always_above_one():
    rng = SeededRng(15)
    params = init_head(6, 5, rng)
    for _ in range(50):
        a = assess(head(params, 10.0 * rng.normal((1, 6)))[0])
        assert np.all(a.alpha > 1.0)
        assert 0.0 < a.uncertainty <= 1.0


def test_head_hand_set_two_cluster():
    params = EvidentialHeadParams(w=np.array([[2.0, -2.0]]), b=np.zeros(2))
    a = assess(head(params, np.array([[1.0]]))[0])
    expected = np.array([math.log1p(math.exp(2.0)) + 1.0,
                         math.log1p(math.exp(-2.0)) + 1.0])
    assert np.allclose(a.alpha, expected, atol=1e-12)
    assert a.alpha[0] == pytest.approx(3.1269, abs=1e-4)
    assert a.alpha[1] == pytest.approx(1.1269, abs=1e-4)


def test_head_length_mismatch():
    params = init_head(6, 5, SeededRng(16))
    with pytest.raises(ShapeError):
        head(params, np.ones((1, 4)))
    with pytest.raises(ShapeError):
        head(params, np.ones(6))  # one embedding, not a stack


# -- gradients through the composed model ---------------------------------------


def tiny_setup():
    rng = SeededRng(17)
    enc = init_encoder(3, 4, 2, rng)
    hd = init_head(4, 3, rng)
    x = SeededRng(18).normal((2, 5, 3))
    y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return enc, hd, x, y


def loss_given_flat(flat, x, y, n_layers=2, lam=0.4, dropout_seed=None):
    tape = Tape()
    pnodes = {name: tape.leaf(arr) for name, arr in flat.items()}
    if dropout_seed is None:
        z = taped_encode(tape, pnodes, x, n_layers, DropoutSpec(active=False), None)
    else:
        z = taped_encode(tape, pnodes, x, n_layers, DropoutSpec(p=0.3, active=True),
                         SeededRng(dropout_seed))
    alpha = taped_head(tape, pnodes, z)
    total, _, _ = taped_evidential_loss(tape, alpha, y, lam)
    return tape, pnodes, total


def test_full_model_gradient_matches_finite_differences():
    enc, hd, x, y = tiny_setup()
    flat = {**enc.to_flat(), **hd.to_flat()}
    tape, pnodes, total = loss_given_flat(flat, x, y)
    grads = backward(tape, total)

    h = 1e-5
    k = enc.hidden
    # (array, first column of the block probed): the c gate of enc.l0.w, the
    # z gate of enc.l1.u, the r gate of enc.l0.b, and the head arrays whole
    for name, col in (("enc.l0.w", 2 * k), ("enc.l1.u", k), ("enc.l0.b", 0),
                      ("head.w", 0), ("head.b", 0)):
        base = flat[name]
        analytic = grads[pnodes[name]]
        for block_idx in itertools.islice(np.ndindex(base[..., col:col + k].shape), 6):
            idx = block_idx[:-1] + (block_idx[-1] + col,)
            up = {k: (v.copy() if k == name else v) for k, v in flat.items()}
            dn = {k: (v.copy() if k == name else v) for k, v in flat.items()}
            up[name][idx] += h
            dn[name][idx] -= h
            _, _, t_up = loss_given_flat(up, x, y)
            _, _, t_dn = loss_given_flat(dn, x, y)
            numeric = (float(t_up.value) - float(t_dn.value)) / (2 * h)
            # floor keeps central-difference noise out of vanishing gradients
            rel = abs(analytic[idx] - numeric) / max(abs(numeric), 1e-6)
            assert rel < 1e-4, f"{name}[{idx}]: {analytic[idx]} vs {numeric}"


def composed_head(tape: PrimitiveTape, pnodes, z):
    """taped_head as four oracle-tape primitives."""
    raw = tape.add(tape.matmul(z, pnodes["head.w"]), pnodes["head.b"])
    return tape.shift(tape.softplus(raw), 1.0)


@pytest.mark.parametrize("n,k,n_clusters", [(1, 1, 1), (1, 8, 5), (8, 4, 3), (8, 64, 5),
                                            (32, 16, 9), (5, 3, 1)])
def test_taped_head_is_bit_identical_to_composed_primitives(n, k, n_clusters):
    """alpha and the adjoints of z, w and b, byte for byte, for raw values
    in softplus' middle and beyond its +-30 branches."""
    rng = SeededRng(1000 * n + 10 * k + n_clusters)
    for scale in (0.1, 1.0, 40.0):
        inputs = {"z": scale * rng.normal((n, k)), "head.w": rng.normal((k, n_clusters)),
                  "head.b": scale * rng.normal((n_clusters,))}
        weight = rng.normal((n, n_clusters))  # the adjoint alpha receives
        results = []
        for op in (composed_head, taped_head):
            tape = PrimitiveTape()
            nodes = {name: tape.leaf(v) for name, v in inputs.items()}
            alpha = op(tape, nodes, nodes["z"])
            grads = backward(tape, tape.sum(tape.mul(alpha, tape.const(weight))))
            results.append([alpha.value.tobytes()]
                           + [grads[nodes[name]].tobytes() for name in inputs])
        assert results[0] == results[1], scale


def test_taped_head_matches_inference_head_and_is_one_op():
    hd = init_head(4, 3, SeededRng(25))
    z0 = SeededRng(26).normal((6, 4))
    tape = Tape()
    pnodes = {name: tape.leaf(v) for name, v in hd.to_flat().items()}
    alpha = taped_head(tape, pnodes, tape.leaf(z0))
    assert len(tape) == 1
    assert alpha.value.tobytes() == head(hd, z0).tobytes()


def test_taped_encode_matches_inference_encode():
    enc, hd, x, _ = tiny_setup()
    tape = Tape()
    pnodes = leaf_params(tape, enc, hd)
    z = taped_encode(tape, pnodes, x, 2, DropoutSpec(active=False), None)
    plain = encode_batch(enc, x)
    assert np.allclose(z.value, plain, atol=1e-12)


@pytest.mark.parametrize("n_layers", [1, 3])
def test_gradient_with_dropout_matches_finite_differences(n_layers):
    rng = SeededRng(19)
    enc = init_encoder(3, 4, n_layers, rng)
    hd = init_head(4, 3, rng)
    x = SeededRng(20).normal((2, 5, 3))
    y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    flat = {**enc.to_flat(), **hd.to_flat()}
    tape, pnodes, total = loss_given_flat(flat, x, y, n_layers, dropout_seed=21)
    grads = backward(tape, total)

    h = 1e-5
    k, top = enc.hidden, n_layers - 1
    # (array, first column of the gate block probed): z of enc.l0.w, c of
    # enc.l0.u, r of the top layer's u and c of its b
    for name, col in (("enc.l0.w", k), ("enc.l0.u", 2 * k), (f"enc.l{top}.u", 0),
                      (f"enc.l{top}.b", 2 * k)):
        analytic = grads[pnodes[name]]
        for block_idx in [(0, 0), (1, 2), (2, 3)] if flat[name].ndim == 2 else [(0,), (2,)]:
            idx = block_idx[:-1] + (block_idx[-1] + col,)
            up = {k: (v.copy() if k == name else v) for k, v in flat.items()}
            dn = {k: (v.copy() if k == name else v) for k, v in flat.items()}
            up[name][idx] += h
            dn[name][idx] -= h
            _, _, t_up = loss_given_flat(up, x, y, n_layers, dropout_seed=21)
            _, _, t_dn = loss_given_flat(dn, x, y, n_layers, dropout_seed=21)
            numeric = (float(t_up.value) - float(t_dn.value)) / (2 * h)
            rel = abs(analytic[idx] - numeric) / max(abs(numeric), 1e-6)
            assert rel < 1e-4, f"{name}[{idx}]: {analytic[idx]} vs {numeric}"


def test_taped_encode_tape_length_does_not_grow_with_steps():
    # the whole GRU stack is one tape op, however long the sequences are
    enc = init_encoder(3, 4, 2, SeededRng(22))
    lengths = []
    for t_len in (5, 50):
        tape = Tape()
        pnodes = leaf_params(tape, enc)
        taped_encode(tape, pnodes, SeededRng(23).normal((2, t_len, 3)), 2,
                     DropoutSpec(p=0.3, active=True), SeededRng(24))
        lengths.append(len(tape))
    assert lengths[0] == lengths[1] == 1


def test_gru_layer_states_do_not_depend_on_a_gates_buffer():
    """Inference passes no gates buffer; training's buffer changes no state bit."""
    layer = init_encoder(5, 7, 1, SeededRng(3)).layers[0]
    x = np.random.default_rng(4).standard_normal((3, 6, 5))
    gates = np.full((3, 6, 21), np.nan)
    states = gru_layer(layer, x, gates)
    assert gru_layer(layer, x).tobytes() == states.tobytes()
    assert np.all((gates > 0) & (gates < 1) | (np.arange(21) >= 14))  # r and z are sigmoids
    assert np.all(np.abs(gates[..., 14:]) < 1)  # c is a tanh


def single_gemm_gru_layer(layer, x, gates):
    """gru_layer with the input projections of all steps as one GEMM (the oracle)."""
    n, t_len, d = x.shape
    k = layer.hidden
    b, u_rz, u_cand = layer.b, layer.u[:, :2 * k], layer.u[:, 2 * k:]
    xw = (x.reshape(n * t_len, d) @ layer.w).reshape(n, t_len, 3 * k)
    states = np.empty((n, t_len, k))
    h = np.zeros((n, k))
    for t in range(t_len):
        rz = array_sigmoid(xw[:, t, :2 * k] + h @ u_rz + b[:2 * k])
        r, z = rz[:, :k], rz[:, k:]
        c = np.tanh(xw[:, t, 2 * k:] + (r * h) @ u_cand + b[2 * k:])
        h = h - z * h + z * c
        states[:, t] = h
        gates[:, t, :2 * k] = rz
        gates[:, t, 2 * k:] = c
    return states


@pytest.mark.parametrize("n", [1, 2, 8, 32])
@pytest.mark.parametrize("t_len", [1, 2, 20, 21, 41, 100])
def test_chunked_input_projection_keeps_the_bits_of_one_gemm(t_len, n):
    """Each layer's states and gates are those of one input GEMM over all
    steps, byte for byte, whatever chunks PROJECTION_STEPS cuts T into:
    a 1-row GEMM, whose last bits differ, is never made of a longer input."""
    params = init_encoder(12, 64, 2, SeededRng(31))
    x = 2.0 * np.random.default_rng(t_len * 100 + n).standard_normal((n, t_len, 12))
    for layer in params.layers:
        gates, oracle_gates = np.empty((2, n, t_len, 3 * layer.hidden))
        states = gru_layer(layer, x, gates)
        assert states.tobytes() == single_gemm_gru_layer(layer, x, oracle_gates).tobytes()
        assert gates.tobytes() == oracle_gates.tobytes()
        x = states
