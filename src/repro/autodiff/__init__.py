"""Reverse-mode autodiff over numpy: the training substrate.

Public surface::

    from repro.autodiff import Tensor, no_grad, spmm
    from repro.autodiff import functional as F
    from repro.autodiff.optim import Adam
"""

from . import functional, init, optim
from .sparse import spmm, spmm_numpy
from .tensor import (
    Tensor,
    add_allocation_hook,
    as_tensor,
    concatenate,
    contract_channels,
    is_grad_enabled,
    linear_combination,
    no_grad,
    remove_allocation_hook,
    set_op_hook,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "linear_combination",
    "contract_channels",
    "no_grad",
    "is_grad_enabled",
    "add_allocation_hook",
    "remove_allocation_hook",
    "set_op_hook",
    "spmm",
    "spmm_numpy",
    "functional",
    "init",
    "optim",
]
