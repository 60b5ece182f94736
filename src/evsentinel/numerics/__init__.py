from .autodiff import Node, Tape, backward, sigmoid, softplus
from .optim import AdamState, adam_step
from .rng import SeededRng, below, box_muller, mix64, unit_floats
from .special import digamma, lgamma, trigamma

__all__ = [
    "AdamState",
    "Node",
    "SeededRng",
    "Tape",
    "adam_step",
    "backward",
    "below",
    "box_muller",
    "digamma",
    "lgamma",
    "mix64",
    "sigmoid",
    "softplus",
    "trigamma",
    "unit_floats",
]
