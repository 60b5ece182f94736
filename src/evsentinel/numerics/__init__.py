from .autodiff import Node, Tape, backward, sigmoid, softplus
from .optim import AdamState, adam_step
from .rng import SeededRng, mix64
from .special import digamma, lgamma, trigamma

__all__ = [
    "AdamState",
    "Node",
    "SeededRng",
    "Tape",
    "adam_step",
    "backward",
    "digamma",
    "lgamma",
    "mix64",
    "sigmoid",
    "softplus",
    "trigamma",
]
