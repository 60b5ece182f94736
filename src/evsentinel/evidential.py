"""Dirichlet-level math: cluster assignments, uncertainty, and the loss.

The clustering head emits concentration parameters alpha (all > 1).  From
those we derive the expected assignment p = alpha / S, the belief mass
S = sum(alpha), and the epistemic uncertainty u = K / S.  Training
minimizes an expected cross-entropy against pseudo-labels plus a
KL-to-uniform regularizer on the misleading (non-target) evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .numerics import Node, Tape, digamma, lgamma
from .numerics.autodiff import softplus


@dataclass(frozen=True)
class DirichletAssessment:
    """Concentrations plus the quantities derived from them."""

    alpha: np.ndarray
    p: np.ndarray
    belief_mass: float
    uncertainty: float

    @property
    def k(self) -> int:
        return self.alpha.shape[0]

    def argmax_cluster(self) -> int:
        """Most likely cluster; ties resolve to the lowest index."""
        return int(np.argmax(self.p))


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
    """Differentiable batch-mean loss for an (n, K) alpha node.

    Returns (total, mean_ce, mean_kl) nodes; total = mean_ce + lam * mean_kl
    by construction.  The CE row is sum_j y_j (psi(S) - psi(alpha_j)); the
    KL row is KL(Dir(alpha_tilde) || Dir(1, ..., 1)) with alpha_tilde =
    y + (1 - y) * alpha, so correct evidence is never penalized.
    """
    n, k = alpha.shape
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != (n, k):
        raise ContractError(f"labels shape {y.shape} != alpha shape {(n, k)}")
    inv_n = 1.0 / n

    s = tape.sum(alpha, axis=1, keepdims=True)
    ce_terms = tape.mul(tape.const(y), tape.sub(tape.digamma(s), tape.digamma(alpha)))
    mean_ce = tape.scale(tape.sum(ce_terms), inv_n)

    # alpha_tilde = y + (1 - y) * alpha keeps target evidence out of the KL
    a_t = tape.add(tape.mul(alpha, tape.const(1.0 - y)), tape.const(y))
    s_t = tape.sum(a_t, axis=1, keepdims=True)
    terms = tape.mul(tape.shift(a_t, -1.0), tape.sub(tape.digamma(a_t), tape.digamma(s_t)))
    kl_rows = tape.add(
        tape.sub(tape.lgamma(s_t), tape.sum(tape.lgamma(a_t), axis=1, keepdims=True)),
        tape.sum(terms, axis=1, keepdims=True),
    )
    kl_rows = tape.shift(kl_rows, -float(lgamma(float(k))))
    mean_kl = tape.scale(tape.sum(kl_rows), inv_n)

    total = tape.add(mean_ce, tape.scale(mean_kl, lam))
    return total, mean_ce, mean_kl


def alpha_from_raw(raw: np.ndarray) -> np.ndarray:
    """Head activation: softplus(raw) + 1, guaranteeing alpha > 1 and S >= K."""
    return softplus(raw) + 1.0
