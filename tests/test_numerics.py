import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsentinel.errors import ContractError, DomainError, ShapeError
from evsentinel.numerics import (
    AdamState,
    SeededRng,
    Tape,
    adam_step,
    backward,
    digamma,
    lgamma,
    sigmoid,
    softplus,
    trigamma,
)
from evsentinel.model import taped_head
from tests.test_evidential import PrimitiveTape, taped_digamma, taped_lgamma

mp.mp.dps = 40


# -- matmul (the oracle tape's forward value) ----------------------------------


def matmul(a, b):
    tape = PrimitiveTape()
    return tape.matmul(tape.const(np.asarray(a)), tape.const(np.asarray(b))).value


def triple_loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    m = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert np.array_equal(matmul(np.eye(3), m), m)


def test_matmul_scalar():
    assert matmul(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0


def test_matmul_against_triple_loop():
    rng = SeededRng(1)
    a = rng.normal((4, 3))
    b = rng.normal((3, 2))
    assert np.allclose(matmul(a, b), triple_loop_matmul(a, b), atol=1e-12, rtol=0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_associativity():
    rng = SeededRng(2)
    for _ in range(5):
        a, b, c = rng.normal((4, 4)), rng.normal((4, 4)), rng.normal((4, 4))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.allclose(left, right, rtol=1e-9)


def test_matmul_deterministic():
    rng = SeededRng(3)
    a, b = rng.normal((8, 8)), rng.normal((8, 8))
    assert matmul(a, b).tobytes() == matmul(a, b).tobytes()


# -- activations ------------------------------------------------------------


def test_softplus_at_zero_is_ln2():
    assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_softplus_asymptote():
    assert softplus(100.0) == pytest.approx(100.0, abs=1e-12)


def test_softplus_minus_five_high_precision():
    expected = float(mp.log(1 + mp.e**-5))
    assert softplus(-5.0) == pytest.approx(expected, abs=1e-15)


@given(st.floats(-1e6, 1e6))
def test_softplus_positive_and_above_x(x):
    y = softplus(x)
    assert y > 0.0
    assert y >= x


def test_sigmoid_tanh_at_zero():
    # the GRU takes tanh from numpy; only the in-repo sigmoid is checked here
    assert sigmoid(0.0) == 0.5


def test_sigmoid_symmetry():
    xs = np.linspace(-20, 20, 41)
    assert np.allclose(sigmoid(-xs), 1.0 - sigmoid(xs), atol=1e-15, rtol=0)


def where_sigmoid(x):
    """The select form sigmoid replaced: 1 or t over 1 + t by the sign of x."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, t) / (1.0 + t)


def test_sigmoid_is_bit_identical_to_the_select_form():
    edges = [0.0, np.inf, np.nan, 5e-324, 1e-310, 709.0, 745.2, 1e308]
    xs = np.concatenate([np.array(edges), -np.array(edges)]
                        + [scale * SeededRng(9).normal((20_000,))
                           for scale in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)])
    with np.errstate(invalid="ignore"):
        assert sigmoid(xs).tobytes() == where_sigmoid(xs).tobytes()
        assert sigmoid(xs.reshape(-1, 8)).tobytes() == where_sigmoid(xs).tobytes()
        for x in xs[:16].tolist():
            assert np.float64(sigmoid(x)).tobytes() == where_sigmoid(x).tobytes()


# -- special functions -----------------------------------------------------


def test_digamma_at_one():
    assert digamma(1.0) == pytest.approx(float(-mp.euler), abs=1e-12)


def test_digamma_recurrence_step():
    assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)


def test_digamma_asymptotic_at_100():
    assert digamma(100.0) == pytest.approx(math.log(100.0) - 1.0 / 200.0, abs=1e-4)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
def test_digamma_recurrence_invariant(x):
    assert digamma(x + 1.0) - digamma(x) - 1.0 / x == pytest.approx(0.0, abs=1e-10)


def test_digamma_absolute_error_across_domain():
    xs = np.geomspace(1e-3, 1e6, 200)
    ours = digamma(xs)
    ref = np.array([float(mp.digamma(x)) for x in xs])
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_digamma_domain_error():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-3.0)


def test_trigamma_values_and_domain():
    xs = np.geomspace(1e-3, 1e4, 100)
    ref = np.array([float(mp.polygamma(1, x)) for x in xs])
    assert np.max(np.abs(trigamma(xs) - ref)) < 1e-9
    with pytest.raises(DomainError):
        trigamma(-1.0)


def test_lgamma_at_integers():
    assert lgamma(1.0) == pytest.approx(0.0, abs=1e-12)
    assert lgamma(2.0) == pytest.approx(0.0, abs=1e-12)


def test_lgamma_at_half():
    assert lgamma(0.5) == pytest.approx(float(mp.log(mp.sqrt(mp.pi))), abs=1e-12)


def test_lgamma_across_domain():
    xs = np.geomspace(1e-3, 1e4, 200)
    ref = np.array([float(mp.loggamma(x)) for x in xs])
    assert np.max(np.abs(lgamma(xs) - ref)) < 1e-10


def test_lgamma_domain_error():
    with pytest.raises(DomainError):
        lgamma(0.0)


# -- reverse-mode tape -------------------------------------------------------


def square(tape, x):
    """x * x as one op with x as both of its inputs."""
    return tape.record(x.value * x.value, (x, x), lambda g: (g * x.value, g * x.value))


def test_backward_square():
    tape = Tape()
    x = tape.leaf(np.array([[3.0]]))
    y = square(tape, x)
    grads = backward(tape, y)
    assert grads[x][0, 0] == pytest.approx(6.0)


def test_backward_softplus_is_sigmoid():
    tape = Tape()
    x = tape.leaf(np.array([[0.0]]))
    y = tape.record(softplus(x.value), (x,), lambda g: (g * sigmoid(x.value),))
    grads = backward(tape, y)
    assert grads[x][0, 0] == pytest.approx(0.5)


def test_backward_rejects_non_scalar():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = square(tape, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def central_difference(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


PRIMITIVES = {
    "softplus": (lambda t, n: t.softplus(n), lambda v: np.log1p(np.exp(v))),
    "digamma": (taped_digamma, None),
    "lgamma": (taped_lgamma, None),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(name):
    op, _ = PRIMITIVES[name]
    x0 = np.array([[0.3, 1.1], [2.4, 0.9]])

    def scalar_fn(x):
        tape = PrimitiveTape()
        node = tape.leaf(x)
        return float(tape.sum(op(tape, node)).value)

    tape = PrimitiveTape()
    node = tape.leaf(x0)
    out = tape.sum(op(tape, node))
    analytic = backward(tape, out)[node]
    numeric = central_difference(scalar_fn, x0)
    assert np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)) < 1e-4


def test_composed_graph_gradient_with_broadcasting():
    """taped_head's adjoints of z, w and of the bias broadcast over the
    batch, against central differences of sum(alpha * alpha)."""
    rng = SeededRng(5)
    inputs = {"z": rng.normal((4, 3)), "head.w": rng.normal((3, 2)), "head.b": rng.normal((2,))}

    def scalar_fn(name, value):
        tape = PrimitiveTape()
        nodes = {key: tape.leaf(value if key == name else v) for key, v in inputs.items()}
        alpha = taped_head(tape, nodes, nodes["z"])
        return tape, nodes, tape.sum(tape.mul(alpha, alpha))

    tape, nodes, out = scalar_fn(None, None)
    grads = backward(tape, out)
    for name, x0 in inputs.items():
        numeric = central_difference(lambda x: float(scalar_fn(name, x)[2].value), x0)
        assert grads[nodes[name]].shape == x0.shape
        assert np.max(np.abs(grads[nodes[name]] - numeric)) < 1e-7, name


def test_gradient_accumulates_once_across_reuse():
    # x used twice: f = x*x + 3x -> f' = 2x + 3
    tape = Tape()
    x = tape.leaf(np.array([[2.0]]))
    x3 = tape.record(x.value * 3.0, (x,), lambda g: (g * 3.0,))
    sq = square(tape, x)
    f = tape.record(sq.value + x3.value, (sq, x3), lambda g: (g, g))
    grads = backward(tape, f)
    assert grads[x][0, 0] == pytest.approx(7.0)


# -- adam -------------------------------------------------------------------


def make_params():
    return {"w": np.array([1.0, -2.0, 3.0]), "b": np.array([[0.5]])}


def test_adam_zero_grad_leaves_params():
    params = make_params()
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    state = AdamState.for_params(params)
    new_params, new_state = adam_step(params, grads, state, lr=0.01)
    for k in params:
        assert np.array_equal(new_params[k], params[k])
    assert new_state.step == 1


@pytest.mark.parametrize("g", [4.0, -0.3])
def test_adam_first_step_magnitude(g):
    params = {"x": np.array([1.0])}
    grads = {"x": np.array([g])}
    new_params, _ = adam_step(params, grads, AdamState.for_params(params), lr=0.001)
    # bias-corrected first step is lr * sign(g) up to eps
    assert new_params["x"][0] == pytest.approx(1.0 - 0.001 * np.sign(g), abs=1e-9)


def test_adam_deterministic():
    params = make_params()
    grads = {"w": np.array([0.1, 0.2, 0.3]), "b": np.array([[0.4]])}
    state = AdamState.for_params(params)
    p1, s1 = adam_step(params, grads, state, lr=0.01)
    p2, s2 = adam_step(params, grads, state, lr=0.01)
    for k in p1:
        assert p1[k].tobytes() == p2[k].tobytes()
        assert s1.m[k].tobytes() == s2.m[k].tobytes()


def test_adam_shape_mismatch():
    params = make_params()
    grads = {"w": np.zeros(2), "b": np.zeros((1, 1))}
    with pytest.raises(ShapeError):
        adam_step(params, grads, AdamState.for_params(params), lr=0.01)


def test_adam_two_steps_move_toward_minimum():
    params = {"x": np.array([5.0])}
    state = AdamState.for_params(params)
    for _ in range(200):
        grads = {"x": 2.0 * params["x"]}
        params, state = adam_step(params, grads, state, lr=0.1)
    assert abs(params["x"][0]) < 1.0
