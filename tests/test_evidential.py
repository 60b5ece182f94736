import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evsentinel.errors import ContractError, DomainError, ShapeError
from evsentinel.evidential import (
    anneal_lambda,
    assess,
    dirichlet_kl_to_uniform,
    taped_evidential_loss,
)
from evsentinel.numerics import (
    Node,
    SeededRng,
    Tape,
    backward,
    digamma,
    lgamma,
    sigmoid,
    softplus,
    trigamma,
)

mp.mp.dps = 40


# -- scalar loss oracles for the taped batch loss -------------------------------


@dataclass(frozen=True)
class LossBreakdown:
    """Eq-level decomposition of one loss evaluation (total = ce + lam*kl)."""

    ce: float
    kl: float
    lam: float
    total: float


def evidential_ce(alpha, y) -> float:
    """Expected cross-entropy under Dir(alpha): sum_j y_j (psi(S) - psi(alpha_j))."""
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(alpha <= 0.0):
        raise DomainError("alpha entries must be positive")
    ones = np.flatnonzero(y == 1.0)
    if len(ones) != 1 or not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("y must be a one-hot vector")
    return float(digamma(alpha.sum()) - digamma(alpha[ones[0]]))


def evidential_loss(alpha, y, lam: float) -> LossBreakdown:
    """Combined loss: expected CE plus lam * KL on misleading evidence.

    The KL argument keeps the target coordinate pinned at 1 so correct
    evidence is never penalized: alpha_tilde = y + (1 - y) * alpha.
    """
    if lam < 0.0:
        raise ContractError(f"lambda must be non-negative, got {lam}")
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ce = evidential_ce(alpha, y)
    kl = dirichlet_kl_to_uniform(y + (1.0 - y) * alpha)
    return LossBreakdown(ce=ce, kl=kl, lam=lam, total=ce + lam * kl)


# -- assessments -------------------------------------------------------------


def test_assess_uniform_alpha_is_maximally_uncertain():
    a = assess([1.0] * 5)
    assert a.belief_mass == 5.0
    assert a.uncertainty == 1.0
    assert np.allclose(a.p, 0.2)


def test_assess_four_one():
    a = assess([4.0, 1.0])
    assert np.allclose(a.p, [0.8, 0.2])
    assert a.belief_mass == 5.0
    assert a.uncertainty == pytest.approx(0.4)


def test_assess_scaled_uniform():
    assert assess([10.0] * 5).uncertainty == pytest.approx(0.1)


def test_assess_domain_errors():
    with pytest.raises(DomainError):
        assess([1.0, 0.0])
    with pytest.raises(DomainError):
        assess([1.0, -2.0])
    with pytest.raises(DomainError):
        assess([1.0, np.inf])


def test_assess_randomized_simplex_and_uncertainty():
    # the Dirichlet algebra block: sum(p)=1, u = K/S exactly, u in (0, 1]
    rng = SeededRng(101)
    for _ in range(2000):
        k = 2 + rng.index_below(7)
        alpha = 1.0 + 50.0 * rng.uniform((k,))
        a = assess(alpha)
        assert abs(a.p.sum() - 1.0) < 1e-9
        assert a.uncertainty == k / a.belief_mass
        assert 0.0 < a.uncertainty <= 1.0


def test_uncertainty_strictly_decreases_under_scaling():
    alpha = np.array([1.5, 2.0, 3.0])
    base = assess(alpha).uncertainty
    for c in (1.5, 2.0, 10.0):
        assert assess(c * alpha).uncertainty < base


# -- expected cross-entropy ----------------------------------------------------


def test_ce_uniform_two_cluster_is_one():
    # psi(2) - psi(1) = 1 by the recurrence
    assert evidential_ce([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_ce_decreases_toward_zero_with_evidence():
    values = [evidential_ce([t, 1.0], [1.0, 0.0]) for t in (10.0, 100.0, 1000.0)]
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < 2e-3


def test_ce_symmetry():
    a = evidential_ce([3.0, 3.0], [1.0, 0.0])
    b = evidential_ce([3.0, 3.0], [0.0, 1.0])
    assert a == b


def test_ce_rejects_non_one_hot():
    with pytest.raises(ContractError):
        evidential_ce([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ContractError):
        evidential_ce([1.0, 1.0], [1.0, 1.0])


def test_ce_monotone_in_target_evidence():
    prev = math.inf
    for target in (1.0, 2.0, 5.0, 20.0, 200.0):
        val = evidential_ce([target, 2.0, 3.0], [1.0, 0.0, 0.0])
        assert val < prev
        prev = val


# -- KL to uniform -------------------------------------------------------------


def test_kl_identity_at_ones():
    assert dirichlet_kl_to_uniform([1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_kl_two_one_closed_form():
    expected = float(mp.log(2) - mp.mpf(1) / 2)
    assert dirichlet_kl_to_uniform([2.0, 1.0]) == pytest.approx(expected, abs=1e-9)


def test_kl_matches_high_precision_oracle():
    def mp_kl(alpha):
        s = mp.fsum(alpha)
        k = len(alpha)
        val = mp.loggamma(s) - mp.loggamma(k)
        for a in alpha:
            val -= mp.loggamma(a)
            val += (a - 1) * (mp.digamma(a) - mp.digamma(s))
        return float(val)

    rng = SeededRng(7)
    for _ in range(20):
        alpha = (1.0 + 9.0 * rng.uniform((4,))).tolist()
        assert dirichlet_kl_to_uniform(alpha) == pytest.approx(mp_kl(alpha), abs=1e-9)


@given(st.lists(st.floats(0.05, 50.0), min_size=2, max_size=6))
def test_kl_non_negative(alpha):
    assert dirichlet_kl_to_uniform(alpha) >= -1e-12


def test_kl_matches_monte_carlo():
    # independent estimate: sample Dir(alpha), average the log density ratio
    from scipy.stats import dirichlet as sp_dirichlet

    sampler = np.random.default_rng(2024)
    log_uniform_density = math.lgamma(3)
    for case in range(5):
        alpha = 1.0 + 4.0 * sampler.uniform(size=3)
        draws = sampler.dirichlet(alpha, size=1_000_000)
        mc = sp_dirichlet.logpdf(draws.T, alpha).mean() - log_uniform_density
        assert dirichlet_kl_to_uniform(alpha) == pytest.approx(mc, abs=1e-2)


def test_kl_domain_error():
    with pytest.raises(DomainError):
        dirichlet_kl_to_uniform([1.0, 0.0])


# -- combined loss --------------------------------------------------------------


def test_loss_lambda_zero_is_pure_ce():
    lb = evidential_loss([2.0, 3.0, 1.5], [0.0, 1.0, 0.0], lam=0.0)
    assert lb.total == lb.ce
    assert lb.kl >= 0.0


def test_loss_no_evidence_no_kl():
    for y in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        lb = evidential_loss([1.0, 1.0, 1.0], y, lam=1.0)
        assert lb.kl == pytest.approx(0.0, abs=1e-12)


def test_loss_identity_holds_exactly():
    lb = evidential_loss([4.0, 1.2, 2.0], [1.0, 0.0, 0.0], lam=0.37)
    assert lb.total == lb.ce + lb.lam * lb.kl


def test_loss_negative_lambda_rejected():
    with pytest.raises(ContractError):
        evidential_loss([1.0, 1.0], [1.0, 0.0], lam=-0.1)


# -- tape primitives: the bit-level oracle of the fused ops -----------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint down to the shape the operand originally had."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class PrimitiveTape(Tape):
    """A Tape with one op per arithmetic primitive.  Each fused op
    (taped_head, taped_reconstruction_loss, taped_evidential_loss) must
    match its composition of these primitives byte for byte, in value and
    in every adjoint."""

    def add(self, a: Node, b: Node) -> Node:
        return self.record(a.value + b.value, (a, b),
                           lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))

    def sub(self, a: Node, b: Node) -> Node:
        return self.record(a.value - b.value, (a, b),
                           lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))

    def mul(self, a: Node, b: Node) -> Node:
        return self.record(a.value * b.value, (a, b),
                           lambda g: (_unbroadcast(g * b.value, a.shape),
                                      _unbroadcast(g * a.value, b.shape)))

    def scale(self, x: Node, c: float) -> Node:
        return self.record(x.value * c, (x,), lambda g: (g * c,))

    def shift(self, x: Node, c: float) -> Node:
        return self.record(x.value + c, (x,), lambda g: (g,))

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2:
            raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        return self.record(a.value @ b.value, (a, b),
                           lambda g: (g @ b.value.T, a.value.T @ g))

    def sum(self, x: Node, axis: int | None = None, keepdims: bool = False) -> Node:
        val = x.value.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is None:
                return (np.broadcast_to(g, x.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, x.shape).copy(),)

        return self.record(val, (x,), bwd)

    def softplus(self, x: Node) -> Node:
        return self.record(softplus(x.value), (x,),
                           lambda g: (g * sigmoid(x.value),))


def taped_digamma(tape: Tape, x):
    return tape.record(digamma(x.value), (x,), lambda g: (g * trigamma(x.value),))


def taped_lgamma(tape: Tape, x):
    return tape.record(lgamma(x.value), (x,), lambda g: (g * digamma(x.value),))


def composed_evidential_loss(tape: PrimitiveTape, alpha, y, lam: float):
    """taped_evidential_loss as 26 tape primitives, each special function
    called on its own operand; returns (total, mean_ce, mean_kl) nodes."""
    n, k = alpha.shape
    inv_n = 1.0 / n
    s = tape.sum(alpha, axis=1, keepdims=True)
    ce_terms = tape.mul(tape.const(y), tape.sub(taped_digamma(tape, s),
                                                taped_digamma(tape, alpha)))
    mean_ce = tape.scale(tape.sum(ce_terms), inv_n)

    a_t = tape.add(tape.mul(alpha, tape.const(1.0 - y)), tape.const(y))
    s_t = tape.sum(a_t, axis=1, keepdims=True)
    terms = tape.mul(tape.shift(a_t, -1.0),
                     tape.sub(taped_digamma(tape, a_t), taped_digamma(tape, s_t)))
    kl_rows = tape.add(
        tape.sub(taped_lgamma(tape, s_t),
                 tape.sum(taped_lgamma(tape, a_t), axis=1, keepdims=True)),
        tape.sum(terms, axis=1, keepdims=True),
    )
    kl_rows = tape.shift(kl_rows, -float(lgamma(float(k))))
    mean_kl = tape.scale(tape.sum(kl_rows), inv_n)
    return tape.add(mean_ce, tape.scale(mean_kl, lam)), mean_ce, mean_kl


@pytest.mark.parametrize("n,k", [(1, 1), (1, 5), (8, 5), (3, 2), (8, 9), (5, 17), (32, 5)])
def test_taped_loss_is_bit_identical_to_composed_primitives(n, k):
    """Values and the gradient of alpha, byte for byte, for alphas near 1
    (the shift loop runs) and large ones (it does not), any lambda."""
    rng = SeededRng(1000 * n + k)
    for scale in (1e-3, 0.5, 5.0, 1e3):
        for lam in (0.0, 0.1, 0.37):
            alpha0 = 1.0 + scale * rng.uniform((n, k))
            y = np.eye(k)[(k * rng.uniform((n,))).astype(int)]
            results = []
            for loss in (composed_evidential_loss, taped_evidential_loss):
                tape = PrimitiveTape()
                alpha = tape.leaf(alpha0)
                total, ce, kl = loss(tape, alpha, y, lam)
                grad = backward(tape, total)[alpha]
                results.append([v.value.tobytes() for v in (total, ce, kl)] + [grad.tobytes()])
            assert results[0] == results[1], (scale, lam)


def test_taped_loss_is_one_op_with_one_call_per_special_function(monkeypatch):
    import evsentinel.evidential as evidential

    calls = {}
    for name in ("digamma", "trigamma", "lgamma"):
        def counted(x, _name=name, _fn=getattr(evidential, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(x)
        monkeypatch.setattr(evidential, name, counted)
    tape = Tape()
    alpha = tape.leaf(1.0 + SeededRng(3).uniform((8, 5)))
    total, ce, kl = taped_evidential_loss(tape, alpha, np.eye(5)[[0, 1, 2, 3, 4, 0, 1, 2]], 0.1)
    assert len(tape) == 1
    assert not ce.requires_grad and not kl.requires_grad
    backward(tape, total)
    assert calls == {"digamma": 1, "trigamma": 1, "lgamma": 1}


def test_taped_loss_matches_pure_functions():
    rng = SeededRng(11)
    alpha0 = 1.0 + 5.0 * rng.uniform((4, 3))
    y = np.zeros((4, 3))
    y[np.arange(4), [0, 2, 1, 0]] = 1.0
    lam = 0.7

    tape = Tape()
    alpha = tape.leaf(alpha0)
    total, ce, kl = taped_evidential_loss(tape, alpha, y, lam)

    pure = [evidential_loss(alpha0[i], y[i], lam) for i in range(4)]
    assert float(ce.value) == pytest.approx(np.mean([p.ce for p in pure]), abs=1e-12)
    assert float(kl.value) == pytest.approx(np.mean([p.kl for p in pure]), abs=1e-12)
    assert float(total.value) == pytest.approx(np.mean([p.total for p in pure]), abs=1e-12)


def test_taped_loss_gradient_matches_finite_differences():
    rng = SeededRng(13)
    alpha0 = 1.0 + 5.0 * rng.uniform((2, 3))
    y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    lam = 0.5

    def scalar_fn(a):
        return float(np.mean([evidential_loss(a[i], y[i], lam).total
                              for i in range(a.shape[0])]))

    tape = Tape()
    alpha = tape.leaf(alpha0)
    total, _, _ = taped_evidential_loss(tape, alpha, y, lam)
    analytic = backward(tape, total)[alpha]

    h = 1e-5
    numeric = np.zeros_like(alpha0)
    for i in range(alpha0.shape[0]):
        for j in range(alpha0.shape[1]):
            up = alpha0.copy()
            dn = alpha0.copy()
            up[i, j] += h
            dn[i, j] -= h
            numeric[i, j] = (scalar_fn(up) - scalar_fn(dn)) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
    assert rel.max() < 1e-4


# -- lambda annealing ------------------------------------------------------------


def test_anneal_schedule():
    assert anneal_lambda(0, 10, 1.0) == 0.0
    assert anneal_lambda(10, 10, 1.0) == 1.0
    assert anneal_lambda(25, 10, 1.0) == 1.0
    assert anneal_lambda(5, 10, 1.0) == 0.5


def test_anneal_rejects_zero_epochs():
    with pytest.raises(ContractError):
        anneal_lambda(1, 0, 1.0)
