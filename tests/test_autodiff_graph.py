"""The autodiff graph holds nodes and the arrays backward reads, never a
tensor: one node per op-building call site, each closure checked."""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autodiff import Tensor, concatenate, stack, where
from repro.autodiff import functional as F
from repro.autodiff import sparse, tensor
from repro.autodiff.sparse import spmm
from repro.autodiff.tensor import contract_channels, linear_combination

MODULES = (tensor, F, sparse)


def _leaf(*shape):
    rng = np.random.default_rng(0)
    return Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=True)


def _operator():
    rng = np.random.default_rng(5)
    return sp.random(4, 4, density=0.5, format="csr", random_state=rng,
                     dtype=np.float32) + sp.eye(4, format="csr")


#: Builders of one node per op; operands require grad wherever that makes
#: the closure capture the most.
CASES = {
    "add": lambda: _leaf(3, 2) + _leaf(2),
    "sub": lambda: _leaf(3, 2) - _leaf(2),
    "mul": lambda: _leaf(3, 2) * _leaf(2),
    "div": lambda: _leaf(3, 2) / _leaf(2),
    "neg": lambda: -_leaf(3),
    "pow": lambda: _leaf(3) ** 2.5,
    "matmul": lambda: _leaf(3, 2) @ _leaf(2, 4),
    "bmm": lambda: _leaf(2, 3, 2) @ _leaf(2, 4),
    "exp": lambda: _leaf(3).exp(),
    "log": lambda: _leaf(3).log(),
    "sqrt": lambda: _leaf(3).sqrt(),
    "abs": lambda: _leaf(3).abs(),
    "relu": lambda: (_leaf(3) - 1.0).relu(),
    "clip": lambda: _leaf(3).clip(0.7, 1.2),
    "sum": lambda: _leaf(3, 2).sum(axis=0),
    "mean": lambda: _leaf(3, 2).mean(axis=1),
    "max": lambda: _leaf(3, 2).max(axis=1),
    "reshape": lambda: _leaf(3, 2).reshape(6),
    "transpose": lambda: _leaf(3, 2).transpose((1, 0)),
    "getitem": lambda: _leaf(4, 2)[np.array([0, 2, 2])],
    "concat": lambda: concatenate([_leaf(2, 2), _leaf(3, 2)], axis=0),
    "stack": lambda: stack([_leaf(2), _leaf(2)], axis=1),
    "where": lambda: where(np.array([True, False]), _leaf(2), _leaf(1)),
    "combine": lambda: linear_combination(
        [_leaf(3), Tensor(np.ones(3)), _leaf(3)], (0.5, 1.0, -2.0)),
    "combine/theta": lambda: linear_combination(
        [_leaf(3), Tensor(np.ones(3)), _leaf(3)],
        Tensor(np.array([0.5, 1.0, -2.0]), requires_grad=True)),
    "contract": lambda: contract_channels(_leaf(2, 3, 2), _leaf(3)),
    "contract/constant-batch": lambda: contract_channels(
        Tensor(np.ones((2, 3, 2))), _leaf(3, 2)),
    "dropout": lambda: F.dropout(_leaf(4, 3), 0.5,
                                 rng=np.random.default_rng(0)),
    "spmm": lambda: spmm(_operator(), _leaf(4, 2), backend="csr"),
    "spmm_coo": lambda: spmm(_operator(), _leaf(4, 2), backend="coo_gather"),
}


def _make_ops() -> set:
    """The op name of every ``Tensor._make`` / ``_attach`` call in the
    engine's modules; an op held in a variable is read off its
    assignments."""
    ops = set()
    for module in MODULES:
        tree = ast.parse(inspect.getsource(module))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for call in ast.walk(function):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("_make", "_attach")):
                    continue
                op = call.args[-1]
                if isinstance(op, ast.Constant):
                    ops.add(op.value)
                else:
                    ops.update(_assigned_strings(function, op.id))
    return ops


def _assigned_strings(function: ast.FunctionDef, name: str) -> set:
    found = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            for lhs, rhs in pairs:
                if (isinstance(lhs, ast.Name) and lhs.id == name
                        and isinstance(rhs, ast.Constant)):
                    found.add(rhs.value)
    return found


def _tensors_reached(value, depth: int = 0) -> list:
    """Tensors ``value`` holds directly, inside a container, or in the
    closure of a function it holds (nested helpers such as spmm's)."""
    if isinstance(value, Tensor):
        return [value]
    if depth > 3:
        return []
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return [t for item in value for t in _tensors_reached(item, depth + 1)]
    if inspect.isfunction(value):
        found = []
        for cell in value.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:  # an unfilled cell
                continue
            found += _tensors_reached(contents, depth + 1)
        return found
    return []


def test_every_make_site_has_a_case():
    covered = {name.split("/")[0] for name in CASES}
    assert _make_ops() <= covered


@pytest.mark.parametrize("name", sorted(CASES))
def test_backward_closure_captures_no_tensor(name):
    out = CASES[name]()
    assert out.requires_grad and out._op == name.split("/")[0]
    assert _tensors_reached(out._node._backward) == []
    # Parents are nodes (None for a constant), never tensors.
    assert not any(isinstance(parent, Tensor) for parent in out._node._parents)
