"""Adam with bias correction, shaped as a pure function over named arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and denominator floor


@dataclass
class AdamState:
    """First/second moment estimates plus the shared timestep."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(step=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray],
              state: AdamState,
              lr: float) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update; returns fresh params and state, inputs untouched."""
    if lr <= 0.0:
        raise ContractError(f"learning rate must be positive, got {lr}")
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ShapeError(f"params/grads key mismatch: {sorted(missing)}")
    t = state.step + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for '{key}'")
        m = BETA1 * state.m[key] + (1.0 - BETA1) * g
        v = BETA2 * state.v[key] + (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[key] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
        new_m[key] = m
        new_v[key] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)
