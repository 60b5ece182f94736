"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tape records every primitive applied during a forward pass, in order.
Since records are appended as values are produced, the record list is a
topological order of the graph, and walking it backwards propagates
adjoints in exact reverse topological order.  Gradients accumulate into
one slot per node, so each parameter ends the backward pass with exactly
one gradient array no matter how many times it was used.

Only the primitives the model needs are provided; this is not a general
autodiff library.  A composite with a hand-derived backward, such as the
whole GRU stack, is recorded as one op through Tape.record.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ContractError, ShapeError


class Node:
    """A value in the computation graph."""

    __slots__ = ("value", "requires_grad")

    def __init__(self, value, requires_grad: bool):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint down to the shape the operand originally had."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tape:
    """Ordered record of primitive operations from one forward pass."""

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

    # -- arithmetic ----------------------------------------------------

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

    # -- nonlinearities -------------------------------------------------

    def softplus(self, x: Node) -> Node:
        return self.record(softplus(x.value), (x,),
                           lambda g: (g * sigmoid(x.value),))


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

