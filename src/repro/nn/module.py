"""Module / Parameter abstractions mirroring the familiar ``torch.nn`` API.

A :class:`Module` owns named :class:`Parameter` leaves and child modules,
walks them recursively for optimizer construction, and carries a
training/eval flag consumed by dropout. Parameter discovery works through
attribute assignment, the same convention as PyTorch, so model code in
:mod:`repro.models` reads like the paper's reference implementation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..autodiff.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data: np.ndarray):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural components with recursive parameter discovery."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training: bool = True

    # ------------------------------------------------------------------
    # attribute-based registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a flat list."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (controls dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot parameter arrays by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        for name, value in state.items():
            own[name].data = np.asarray(value, dtype=own[name].data.dtype).copy()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of sub-modules."""

    def __init__(self, modules: Optional[list] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self.register_module(str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
