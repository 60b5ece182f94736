"""Dirichlet-level math: cluster assignments, uncertainty, and the loss.

The clustering head emits concentration parameters alpha (all > 1).  From
those we derive the expected assignment p = alpha / S, the belief mass
S = sum(alpha), and the epistemic uncertainty u = K / S.  Training
minimizes an expected cross-entropy against pseudo-labels plus a
KL-to-uniform regularizer on the misleading (non-target) evidence.

The training loss, taped_evidential_loss, is one tape op with a
hand-derived backward: per batch it calls digamma, trigamma and lgamma
once each, on the batch's operands side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .numerics import Node, Tape, digamma, lgamma, trigamma
from .numerics.autodiff import softplus


@dataclass(frozen=True)
class DirichletAssessment:
    """Concentrations plus the quantities derived from them."""

    alpha: np.ndarray
    p: np.ndarray
    belief_mass: float
    uncertainty: float


def assess(alpha) -> DirichletAssessment:
    """Expected assignment, belief mass, and uncertainty for one alpha."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size == 0:
        raise DomainError(f"alpha must be a non-empty vector, got shape {alpha.shape}")
    if np.any(alpha <= 0.0) or not np.all(np.isfinite(alpha)):
        raise DomainError("alpha entries must be positive and finite")
    belief = float(alpha.sum())
    p = alpha / belief
    u = alpha.shape[0] / belief
    return DirichletAssessment(alpha=alpha, p=p, belief_mass=belief, uncertainty=u)


def dirichlet_kl_to_uniform(alpha_tilde) -> float:
    """Closed-form KL(Dir(alpha_tilde) || Dir(1, ..., 1))."""
    a = np.asarray(alpha_tilde, dtype=np.float64)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise DomainError("alpha_tilde entries must be positive and finite")
    k = a.shape[0]
    s = a.sum()
    return float(
        lgamma(s)
        - np.sum(lgamma(a))
        - lgamma(float(k))
        + np.sum((a - 1.0) * (digamma(a) - digamma(s)))
    )


def anneal_lambda(epoch: int, anneal_epochs: int, lambda_max: float) -> float:
    """Linear ramp from 0 to lambda_max over the first anneal_epochs epochs."""
    if anneal_epochs < 1:
        raise ContractError("anneal_epochs must be at least 1")
    return min(lambda_max, lambda_max * epoch / anneal_epochs)


# -- taped batch loss, used by the trainer -----------------------------------


def taped_evidential_loss(tape: Tape, alpha: Node, y_onehot: np.ndarray,
                          lam: float) -> tuple[Node, Node, Node]:
    """Differentiable batch-mean loss for an (n, K) alpha node, as one tape op.

    Returns (total, mean_ce, mean_kl); total = mean_ce + lam * mean_kl is
    differentiable, mean_ce and mean_kl are constants.  The CE row is
    sum_j y_j (psi(S) - psi(alpha_j)); the KL row is KL(Dir(alpha_tilde) ||
    Dir(1, ..., 1)) with alpha_tilde = y + (1 - y) * alpha, so correct
    evidence is never penalized.

    psi runs once, on [S | alpha | alpha_tilde | S_tilde], and psi' once on
    the same array in the backward; lgamma runs once, on [S_tilde |
    alpha_tilde | K].  The backward does the float operations of the
    composed primitives (sum, psi, lgamma, products) in the order a tape
    of them would, so the gradient is the same to the bit.
    """
    n, k = alpha.shape
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != (n, k):
        raise ContractError(f"labels shape {y.shape} != alpha shape {(n, k)}")
    inv_n = 1.0 / n
    a = alpha.value
    keep = 1.0 - y

    s = a.sum(axis=1, keepdims=True)
    a_t = a * keep + y  # alpha_tilde keeps target evidence out of the KL
    s_t = a_t.sum(axis=1, keepdims=True)
    x = np.concatenate([s, a, a_t, s_t], axis=1)
    psi = digamma(x)
    psi_s, psi_a, psi_at, psi_st = psi[:, :1], psi[:, 1:k + 1], psi[:, k + 1:-1], psi[:, -1:]
    mean_ce = (y * (psi_s - psi_a)).sum() * inv_n

    # lgamma of every row's [S_tilde | alpha_tilde] and of K, in one call
    lg = lgamma(np.append(np.concatenate([s_t, a_t], axis=1), float(k)))
    lg_st_at = lg[:-1].reshape(n, k + 1)
    shifted = a_t - 1.0
    d_psi = psi_at - psi_st
    kl_rows = ((lg_st_at[:, :1] - lg_st_at[:, 1:].sum(axis=1, keepdims=True))
               + (shifted * d_psi).sum(axis=1, keepdims=True)) - lg[-1]
    mean_kl = kl_rows.sum() * inv_n

    def backward(g):
        g_kl = g * lam * inv_n
        g_ce = g * inv_n
        tri = trigamma(x)
        tri_s, tri_a, tri_at, tri_st = tri[:, :1], tri[:, 1:k + 1], tri[:, k + 1:-1], tri[:, -1:]
        # into S_tilde and alpha_tilde: the lgamma terms, the psi terms, then
        # the shift and S_tilde, in the reverse order of the forward
        g_psi_at = g_kl * shifted
        g_s_t = g_kl * psi_st + (-g_psi_at).sum(axis=1, keepdims=True) * tri_st
        g_a_t = ((-g_kl * psi_at + g_psi_at * tri_at) + g_kl * d_psi) + g_s_t
        # into alpha: through alpha_tilde, then psi(alpha), then S
        g_psi_a = g_ce * y
        return ((g_a_t * keep + (-g_psi_a) * tri_a)
                + g_psi_a.sum(axis=1, keepdims=True) * tri_s,)

    total = tape.record(mean_ce + mean_kl * lam, (alpha,), backward)
    return total, tape.const(mean_ce), tape.const(mean_kl)


def alpha_from_raw(raw: np.ndarray) -> np.ndarray:
    """Head activation: softplus(raw) + 1, guaranteeing alpha > 1 and S >= K."""
    return softplus(raw) + 1.0
