"""A small reverse-mode automatic differentiation engine over numpy.

This module is the stand-in for the PyTorch autograd substrate the paper's
artifact builds on. It provides a :class:`Tensor` wrapping a numpy array
together with a dynamically-built computation graph and a topological-order
backward pass. Only what the benchmark needs is implemented, but everything
implemented is exact: gradients are validated against finite differences in
the test suite.

Design notes
------------
- Tensors are immutable from the graph's point of view: ops return new
  tensors; ``data`` should not be mutated after a tensor participates in a
  graph (optimizers mutate leaf parameters between graph builds, which is
  fine).
- The graph is made of :class:`_Node` vertices, not of tensors. A node
  holds its backward closure, its parent nodes (``None`` for a constant
  parent) and its op name; only a leaf's node points back at its tensor,
  so ``.grad`` can land there. Each closure captures only the arrays its
  backward reads (the other operand of a product, its own output, a
  mask), so an activation no backward reads dies as soon as the code that
  made it lets go of it, as under PyTorch autograd.
- :meth:`Tensor.backward` releases each node once it has run, so a step's
  graph is gone when its backward returns; a second backward through it
  raises :class:`~repro.errors.AutodiffError`.
- Broadcasting follows numpy semantics; gradients are un-broadcast by
  summing over the broadcast axes.
- An optional allocation hook lets the runtime layer meter every array the
  engine materializes, which is how the simulated device accounts "GPU"
  memory without a GPU.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import AutodiffError

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True
#: Registered allocation subscribers, dispatched in registration order.
#: A tuple (not a list) so dispatch iterates over an immutable snapshot:
#: a hook that adds/removes hooks mid-notification cannot shear the loop.
_allocation_hooks: tuple = ()
_op_hook: Optional[Callable[[str, int, int], None]] = None

#: Signature of a registered allocation hook:
#: ``hook(nbytes, array, op)`` — the byte size, the freshly materialized
#: numpy array itself (so subscribers can register weakref-based free
#: detection), and the op name that produced it (``"leaf"`` for arrays
#: wrapped directly in a :class:`Tensor`).
AllocationHook = Callable[[int, np.ndarray, str], None]


def add_allocation_hook(hook: AllocationHook) -> AllocationHook:
    """Subscribe ``hook(nbytes, array, op)`` to every engine allocation.

    Multiple subscribers compose: :class:`repro.runtime.device.DeviceModel`
    meters simulated device memory per step while the telemetry allocation
    ledger attributes the same bytes to the open span tree — neither
    displaces the other. Adding an already-registered hook is a no-op;
    returns ``hook`` so it can be captured for later removal.
    """
    global _allocation_hooks
    if hook not in _allocation_hooks:
        _allocation_hooks = _allocation_hooks + (hook,)
    return hook


def remove_allocation_hook(hook: AllocationHook) -> None:
    """Unsubscribe one allocation hook (no-op when not registered).

    Compares by equality, not identity, so bound methods work: each
    ``obj.method`` access creates a fresh bound-method object, but they
    compare equal, letting ``add(self._on_alloc)`` / ``remove(self.
    _on_alloc)`` pair up naturally.
    """
    global _allocation_hooks
    _allocation_hooks = tuple(h for h in _allocation_hooks if h != hook)


def set_op_hook(hook: Optional[Callable[[str, int, int], None]]) -> None:
    """Install ``hook(op, flops, nbytes)`` called per compute-heavy op.

    Fired by dense matmuls here and sparse propagation in
    :mod:`repro.autodiff.sparse` with the op's FLOP estimate and output
    byte count. Used by :mod:`repro.telemetry` for op-level counters; pass
    ``None`` to remove the hook.
    """
    global _op_hook
    _op_hook = hook


def _notify_alloc(arr: np.ndarray, op: str = "leaf") -> None:
    for hook in _allocation_hooks:
        hook(arr.nbytes, arr, op)


def _notify_op(op: str, flops: int, nbytes: int) -> None:
    if _op_hook is not None:
        _op_hook(op, flops, nbytes)


def _notify_ewise(data: np.ndarray) -> None:
    """Meter one elementwise op: ~1 FLOP and one output write per element.

    Routed through the same hook as matmul/spmm so elementwise arithmetic
    (activations, filter combinations, cache-induced deltas) shows up in
    ``ops.ewise.*`` instead of being invisible to FLOP accounting.
    """
    if _op_hook is not None:
        _op_hook("ewise", data.size, data.nbytes)


@contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether new ops will be recorded on the autodiff graph."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """One vertex of the autodiff graph, apart from the data it was built on.

    ``_backward`` maps the node's gradient to one gradient per entry of
    ``_parents``; a gradient may be a deferred ``(grad, weight)`` pair whose
    product the engine forms where it first reads it. ``tensor`` is set on a
    leaf's node only.
    """

    __slots__ = ("_backward", "_parents", "_op", "tensor")

    def __init__(self, backward: Optional[Callable], parents: tuple, op: str,
                 tensor: Optional["Tensor"] = None):
        self._backward = backward
        self._parents = parents
        self._op = op
        self.tensor = tensor


def _resolve(grad):
    """Form a deferred ``(grad, weight)`` gradient; pass arrays through."""
    if type(grad) is tuple:
        return np.multiply(*grad)
    return grad


def _accumulate_leaf(tensor: "Tensor", grad: np.ndarray) -> None:
    tensor.grad = grad.copy() if tensor.grad is None else tensor.grad + grad


class Tensor:
    """A numpy array with an optional gradient and autodiff history.

    Parameters
    ----------
    data:
        Array-like payload; converted to a float numpy array.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor during :meth:`backward`.
    dtype:
        Optional dtype override. Defaults to ``float32`` for fresh arrays
        (matching common GNN practice) while preserving float64 inputs so
        gradient checks can run in double precision.
    """

    __slots__ = ("data", "grad", "requires_grad", "_op", "_node")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ):
        if isinstance(data, Tensor):
            raise AutodiffError("wrap raw arrays, not Tensors")
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._op: str = "leaf"
        self._node: Optional[_Node] = None
        _notify_alloc(self.data, "leaf")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        nodes = tuple(p._graph_node() for p in parents) if _grad_enabled else ()
        return Tensor._attach(data, nodes, backward, op)

    @staticmethod
    def _attach(
        data: np.ndarray,
        nodes: Sequence[Optional[_Node]],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """An op output over parents already reduced to graph nodes, so
        an op that streams its operands need not hold them."""
        requires = _grad_enabled and any(node is not None for node in nodes)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires
        out._op = op
        out._node = _Node(backward, tuple(nodes), op) if requires else None
        _notify_alloc(data, op)
        return out

    def _graph_node(self) -> Optional[_Node]:
        """This tensor's graph vertex, or ``None`` for a constant; a
        leaf's node is made the first time an op reads the leaf."""
        if not self.requires_grad:
            return None
        if self._node is None:
            self._node = _Node(None, (), "leaf", self)
        return self._node

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise AutodiffError(f"item() requires a single-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autodiff graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._op = "detach"
        out._node = None
        return out

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to ones, which for the usual scalar loss
            is the conventional seed of 1.0.
        """
        if not self.requires_grad:
            raise AutodiffError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise AutodiffError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        root = self._graph_node()
        order: list[_Node] = []
        seen: set[_Node] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node in seen:
                continue
            if node._backward is None and node.tensor is None:
                raise AutodiffError(
                    f"backward() through a released {node._op!r} node: a "
                    "graph's backward runs once")
            seen.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent is not None and parent not in seen:
                    stack.append((parent, False))

        grads: dict[_Node, object] = {root: grad}
        for node in reversed(order):
            node_grad = grads.pop(node, None)
            if node.tensor is not None:
                if node_grad is not None:
                    _accumulate_leaf(node.tensor, _resolve(node_grad))
                continue
            if node_grad is not None:
                Tensor._accumulate_parent_grads(node, _resolve(node_grad), grads)
            # Released: the closure's saved arrays die here, not with the
            # last reference to the loss.
            node._backward = None
            node._parents = ()

    @staticmethod
    def _accumulate_parent_grads(
        node: _Node, node_grad: np.ndarray, grads: dict
    ) -> None:
        """Run ``node``'s backward and route each parent's gradient: into
        a leaf's ``.grad``, else summed into ``grads`` (a deferred pair is
        formed on its first add)."""
        parent_grads = node._backward(node_grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        if len(parent_grads) != len(node._parents):
            raise AutodiffError(
                f"op {node._op!r} returned {len(parent_grads)} grads for "
                f"{len(node._parents)} parents"
            )
        for parent, pgrad in zip(node._parents, parent_grads):
            if pgrad is None or parent is None:
                continue
            if parent.tensor is not None:
                _accumulate_leaf(parent.tensor, _resolve(pgrad))
            elif parent in grads:
                grads[parent] = _resolve(grads[parent]) + _resolve(pgrad)
            else:
                grads[parent] = pgrad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data + b.data
        _notify_ewise(data)
        a_shape, b_shape = a.shape, b.shape
        need_a, need_b = a.requires_grad, b.requires_grad

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, a_shape) if need_a else None,
                _unbroadcast(grad, b_shape) if need_b else None,
            )

        return Tensor._make(data, (a, b), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data - b.data
        _notify_ewise(data)
        a_shape, b_shape = a.shape, b.shape
        need_a, need_b = a.requires_grad, b.requires_grad

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, a_shape) if need_a else None,
                _unbroadcast(-grad, b_shape) if need_b else None,
            )

        return Tensor._make(data, (a, b), backward, "sub")

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data * b.data
        _notify_ewise(data)
        a_shape, b_shape = a.shape, b.shape
        # Each side's gradient reads the other side only.
        a_data = a.data if b.requires_grad else None
        b_data = b.data if a.requires_grad else None

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * b_data, a_shape) if b_data is not None else None,
                _unbroadcast(grad * a_data, b_shape) if a_data is not None else None,
            )

        return Tensor._make(data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data / b.data
        _notify_ewise(data)
        a_shape, b_shape = a.shape, b.shape
        need_a = a.requires_grad
        a_data = a.data if b.requires_grad else None
        b_data = b.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / b_data, a_shape) if need_a else None,
                _unbroadcast(-grad * a_data / (b_data * b_data), b_shape)
                if a_data is not None else None,
            )

        return Tensor._make(data, (a, b), backward, "div")

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self
        data = -a.data
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(data, (a,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise AutodiffError("tensor exponents are not supported; use exp/log")
        x = self.data
        data = x ** exponent
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * exponent * x ** (exponent - 1),)

        return Tensor._make(data, (self,), backward, "pow")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        if a.ndim > 2 or b.ndim > 2:
            return _batched_matmul(a, b)
        data = a.data @ b.data
        if _op_hook is not None:
            inner = a.data.shape[-1] if a.ndim else 1
            _op_hook("matmul", 2 * data.size * inner, data.nbytes)
        a_data = a.data if b.requires_grad else None
        b_data = b.data if a.requires_grad else None

        def backward(grad: np.ndarray):
            grad_a = grad @ b_data.T if b_data is not None else None
            grad_b = a_data.T @ grad if a_data is not None else None
            return (grad_a, grad_b)

        return Tensor._make(data, (a, b), backward, "matmul")

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._make(data, (a,), backward, "exp")

    def log(self) -> "Tensor":
        x = self.data
        data = np.log(x)
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad / x,)

        return Tensor._make(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / data,)

        return Tensor._make(data, (a,), backward, "sqrt")

    def abs(self) -> "Tensor":
        x = self.data
        data = np.abs(x)
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * np.sign(x),)

        return Tensor._make(data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data * data),)

        return Tensor._make(data, (a,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        a = self
        # Numerically stable logistic.
        data = np.where(
            a.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(a.data, -60, 60))),
            np.exp(np.clip(a.data, -60, 60)) / (1.0 + np.exp(np.clip(a.data, -60, 60))),
        )
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (a,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0
        data = np.where(mask, a.data, 0.0)
        _notify_ewise(data)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(data, (a,), backward, "relu")

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        data = np.clip(a.data, low, high)
        _notify_ewise(data)
        mask = (a.data >= low) & (a.data <= high)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(data, (a,), backward, "clip")

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, tuple]] = None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(np.asarray(data), (self,), backward, "sum")

    def mean(self, axis: Optional[Union[int, tuple]] = None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([shape[i] for i in axis]))
        else:
            count = shape[axis]

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape) / count,)

        return Tensor._make(np.asarray(data), (self,), backward, "mean")

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        x = self.data
        data = x.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                d = np.expand_dims(d, axis)
            mask = x == d
            # Split gradient evenly among ties (matches subgradient choice).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (mask * g / counts,)

        return Tensor._make(np.asarray(data), (self,), backward, "max")

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        source_shape = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(source_shape),)

        return Tensor._make(data, (self,), backward, "reshape")

    def transpose(self, axes: Optional[tuple] = None) -> "Tensor":
        a = self
        data = a.data.transpose(axes)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return Tensor._make(data, (a,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        shape, dtype = self.shape, self.dtype
        data = self.data[index]
        # A basic index selects every element at most once, so a plain
        # assignment scatters the gradient; only integer/boolean array
        # indices can repeat an element and need the unbuffered add.
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray):
            out = np.zeros(shape, dtype=dtype)
            if basic:
                out[index] = grad
            else:
                np.add.at(out, index, grad)
            return (out,)

        return Tensor._make(data, (self,), backward, "getitem")


def _is_basic_index(index) -> bool:
    """Whether ``index`` is ints / slices / ``Ellipsis`` (or a tuple of them)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(item, (int, np.integer, slice, type(Ellipsis)))
               for item in items)


def _batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matmul with numpy broadcasting over batch dimensions (ndim up to 3)."""
    data = a.data @ b.data
    if _op_hook is not None:
        _op_hook("matmul", 2 * data.size * a.data.shape[-1], data.nbytes)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(grad: np.ndarray):
        grad_a = grad @ np.swapaxes(b_data, -1, -2) if b_data is not None else None
        grad_b = np.swapaxes(a_data, -1, -2) @ grad if a_data is not None else None
        if grad_a is not None:
            grad_a = _unbroadcast(grad_a, a_shape)
        if grad_b is not None:
            grad_b = _unbroadcast(grad_b, b_shape)
        return (grad_a, grad_b)

    return Tensor._make(data, (a, b), backward, "bmm")


# ----------------------------------------------------------------------
# free functions over tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    parts = list(tensors)
    data = np.concatenate([t.data for t in parts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in parts])

    def backward(grad: np.ndarray):
        slicer: list = [slice(None)] * grad.ndim
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer[axis] = slice(start, stop)
            grads.append(grad[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(data, parts, backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    parts = list(tensors)
    data = np.stack([t.data for t in parts], axis=axis)
    count = len(parts)

    def backward(grad: np.ndarray):
        return tuple(np.take(grad, i, axis=axis) for i in range(count))

    return Tensor._make(data, parts, backward, "stack")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)
    _notify_ewise(data)
    a_shape, b_shape = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(np.where(cond, grad, 0.0), a_shape) if need_a else None,
            _unbroadcast(np.where(cond, 0.0, grad), b_shape) if need_b else None,
        )

    return Tensor._make(data, (a, b), backward, "where")


def linear_combination(
    terms: Iterable[Tensor], coefficients: Union[Tensor, ArrayLike]
) -> Tensor:
    """``Σ_k c_k · B_k`` over same-shaped terms as one graph node.

    ``terms`` is consumed as an iterator, so a basis recurrence streams
    through one accumulator and one scratch buffer; the ufunc sequence
    (multiply, then add into the accumulator, in term order) is the one
    the unfused ``B_k * c_k`` / ``out + term`` chain executes, so forward
    values are bit-identical to it. ``coefficients`` is a constant 1-D
    array or a 1-D :class:`Tensor` θ. Backward gives ``∂B_k = c_k · grad``
    to the terms that require it, as a deferred ``(grad, c_k)`` pair the
    engine multiplies out where it first reads it, and ``∂θ_k = ⟨grad,
    B_k⟩`` as one dot product per term; only the terms backward reads are
    retained, which is none of them unless θ requires grad.
    """
    theta = coefficients if isinstance(coefficients, Tensor) else None
    track_theta = _grad_enabled and theta is not None and theta.requires_grad
    kept: list[Optional[_Node]] = []     # the terms on the graph, in order
    slots: list[tuple[int, bool]] = []   # (k, ∂B_k wanted) per kept term
    basis: list[np.ndarray] = []         # kept terms' data, read by ∂θ only
    weights = out = scratch = None
    for k, term in enumerate(terms):
        term = as_tensor(term)
        if out is None:
            weights = theta.data if theta is not None \
                else np.asarray(coefficients, dtype=term.dtype)
            if weights.ndim != 1:
                raise AutodiffError(
                    f"coefficients must be 1-D, got shape {weights.shape}")
        if k >= len(weights):
            raise AutodiffError(
                f"more terms than the {len(weights)} coefficients")
        if out is None:
            out = np.multiply(term.data, weights[0])
        else:
            if term.shape != out.shape:
                raise AutodiffError(
                    f"term {k} has shape {term.shape}, expected {out.shape}")
            if scratch is None:
                scratch = np.empty_like(out)
            np.multiply(term.data, weights[k], out=scratch)
            np.add(out, scratch, out=out)
        if track_theta or (_grad_enabled and term.requires_grad):
            kept.append(term._graph_node())
            slots.append((k, term.requires_grad))
            if track_theta:
                basis.append(term.data)
    if out is None:
        raise AutodiffError("linear_combination of no terms")
    if _op_hook is not None:
        _op_hook("ewise", 2 * out.size * (k + 1), out.nbytes)
    has_theta = theta is not None

    def backward(grad: np.ndarray):
        grads = [(grad, weights[k]) if live else None for k, live in slots]
        if not has_theta:
            return tuple(grads)
        grad_theta = None
        if track_theta:
            grad_theta = np.zeros_like(weights)
            flat = grad.reshape(-1)
            for (k, _), data in zip(slots, basis):
                grad_theta[k] = np.dot(flat, data.reshape(-1))
        return (*grads, grad_theta)

    if has_theta:
        kept.append(theta._graph_node())
    return Tensor._attach(out, kept, backward, "combine")


def contract_channels(batch: Tensor, weights: Tensor) -> Tensor:
    """Contract the channel axis: ``(B, C, F) × (C,) | (C, F) → (B, F)``.

    One ``einsum`` in place of ``(batch * weights).sum(axis=1)``: neither
    the ``(B, C, F)`` product nor, when ``batch`` is a constant (the
    mini-batch scheme's precomputed channels), its gradient is built.
    """
    if batch.ndim != 3 or weights.shape not in (batch.shape[1:2], batch.shape[1:]):
        raise AutodiffError(
            f"cannot contract channels of {batch.shape} with weights {weights.shape}")
    w = "c" if weights.ndim == 1 else "cf"
    data = np.einsum(f"bcf,{w}->bf", batch.data, weights.data)
    if _op_hook is not None:
        _op_hook("ewise", 2 * batch.size, data.nbytes)
    batch_data = batch.data if weights.requires_grad else None
    weights_data = weights.data if batch.requires_grad else None

    def backward(grad: np.ndarray):
        grad_batch = grad_weights = None
        if weights_data is not None:
            grad_batch = np.einsum(f"bf,{w}->bcf", grad, weights_data)
        if batch_data is not None:
            grad_weights = np.einsum(f"bf,bcf->{w}", grad, batch_data)
        return (grad_batch, grad_weights)

    return Tensor._make(data, (batch, weights), backward, "contract")


def as_tensor(value: Union[Tensor, ArrayLike], dtype: Optional[np.dtype] = None) -> Tensor:
    """Coerce arrays/scalars to :class:`Tensor`; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)
