"""Model architectures: decoupled (main), iterative, and baselines."""

from .baselines import (
    ANSGTLite,
    NAGphormerLite,
    make_chebnet,
    make_gcn,
    make_graphsage,
)
from .decoupled import DecoupledModel, MiniBatchModel
from .iterative import (
    IterativeModel,
    cheb_propagation,
    gcn_propagation,
    sage_propagation,
)

__all__ = [
    "DecoupledModel",
    "MiniBatchModel",
    "IterativeModel",
    "gcn_propagation",
    "sage_propagation",
    "cheb_propagation",
    "make_gcn",
    "make_graphsage",
    "make_chebnet",
    "NAGphormerLite",
    "ANSGTLite",
]
