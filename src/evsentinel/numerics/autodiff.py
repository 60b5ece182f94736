"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tape records every op applied during a forward pass, in order.  Since
records are appended as values are produced, the record list is a
topological order of the graph, and walking it backwards propagates
adjoints in exact reverse topological order.  Gradients accumulate into
one slot per node, so each parameter ends the backward pass with exactly
one gradient array no matter how many times it was used.

This is not a general autodiff library: it has no arithmetic of its own.
Each op the model trains through (the GRU stack, the evidential head, the
warm-up and evidential losses) computes its forward value itself and is
recorded through Tape.record with a hand-derived backward.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ContractError


class Node:
    """A value in the computation graph."""

    __slots__ = ("value", "requires_grad")

    def __init__(self, value, requires_grad: bool):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Ordered record of the ops from one forward pass."""

    def __init__(self):
        self._records: list[tuple[Node, tuple[Node, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def leaf(self, value) -> Node:
        """A differentiable input (parameter)."""
        return Node(value, requires_grad=True)

    def const(self, value) -> Node:
        """A non-differentiable input (data, masks, targets)."""
        return Node(value, requires_grad=False)

    def record(self, value, inputs: tuple[Node, ...], backward: Callable) -> Node:
        """Append an op: its output value, its input nodes, and a backward
        mapping the output's adjoint to one adjoint per input, in order."""
        out = Node(value, requires_grad=any(n.requires_grad for n in inputs))
        if out.requires_grad:
            self._records.append((out, inputs, backward))
        return out


def backward(tape: Tape, output: Node) -> dict[Node, np.ndarray]:
    """Adjoints of a scalar output w.r.t. every differentiable node.

    Returns a mapping from Node to its gradient array; look up parameter
    nodes in it to drive the optimizer.
    """
    if output.value.size != 1:
        raise ContractError(f"backward needs a scalar output, got shape {output.shape}")
    grads: dict[Node, np.ndarray] = {output: np.ones_like(output.value)}
    for out, inputs, bwd in reversed(tape._records):
        g = grads.get(out)
        if g is None:
            continue
        for node, grad in zip(inputs, bwd(g)):
            if not node.requires_grad:
                continue
            have = grads.get(node)
            grads[node] = grad if have is None else have + grad
    return grads


# -- plain (untaped) kernels, shared with inference ---------------------


def sigmoid(x):
    """Numerically stable logistic function: 1 / (1 + t) for x >= 0 and
    t / (1 + t) below, with t = exp(-|x|).  t is in [0, 1] or NaN, so
    max(t, x >= 0) picks the numerator without a branch per element."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    out = np.maximum(t, x >= 0.0) / (1.0 + t)
    return float(out) if out.ndim == 0 else out


def softplus(x):
    """ln(1 + exp(x)) with overflow-safe branches (x>30 -> x, x<-30 -> exp(x)).

    The deep-negative branch is floored at the smallest subnormal so the
    result stays strictly positive even where exp underflows.
    """
    x = np.asarray(x, dtype=np.float64)
    low = np.maximum(np.exp(np.minimum(x, 0.0)), 5e-324)
    mid = np.log1p(np.exp(np.clip(x, -30.0, 30.0)))
    out = np.where(x > 30.0, x, np.where(x < -30.0, low, mid))
    return float(out) if out.ndim == 0 else out

