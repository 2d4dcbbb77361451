"""Composite-graph gradient checks: random expression trees vs finite diff.

The single-op gradient tests catch local mistakes; these catch graph-level
ones (wrong accumulation across shared subexpressions, broadcasting in
deep chains) by building random expressions from a safe op vocabulary and
checking the full Jacobian-vector product numerically.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor

# Each op is (name, callable); all are smooth and bounded on bounded input
# so finite differences behave.
UNARY_OPS = [
    ("logistic", lambda t: 1.0 / ((-t).exp() + 1.0)),
    ("exp_small", lambda t: (t * 0.3).exp()),
    ("softplus", lambda t: ((t.clip(-20, 20)).exp() + 1.0).log()),
    ("square", lambda t: t * t),
    ("affine", lambda t: t * 1.7 - 0.3),
]

BINARY_OPS = [
    ("add", lambda a, b: a + b),
    ("mul", lambda a, b: a * b),
    ("sub", lambda a, b: a - b),
    ("blend", lambda a, b: a * 0.25 + b * 0.75),
]


def build_expression(tensor: Tensor, plan) -> Tensor:
    """Apply a plan of (kind, index) steps, reusing intermediates."""
    values = [tensor]
    for kind, index, left, right in plan:
        if kind == "unary":
            _, op = UNARY_OPS[index % len(UNARY_OPS)]
            values.append(op(values[left % len(values)]))
        else:
            _, op = BINARY_OPS[index % len(BINARY_OPS)]
            values.append(op(values[left % len(values)],
                             values[right % len(values)]))
    return values[-1]


@st.composite
def plans(draw):
    steps = draw(st.integers(min_value=1, max_value=6))
    plan = []
    for _ in range(steps):
        kind = draw(st.sampled_from(["unary", "binary"]))
        plan.append((
            kind,
            draw(st.integers(min_value=0, max_value=10)),
            draw(st.integers(min_value=0, max_value=10)),
            draw(st.integers(min_value=0, max_value=10)),
        ))
    return plan


class TestCompositeGradients:
    @given(plans(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_random_expression_gradient(self, plan, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(3, 2))
        t = Tensor(x.copy(), requires_grad=True, dtype=np.float64)
        out = build_expression(t, plan).sum()
        out.backward()

        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                bumped = x.copy()
                bumped[i, j] += eps
                hi = build_expression(
                    Tensor(bumped, dtype=np.float64), plan).sum().item()
                bumped[i, j] -= 2 * eps
                lo = build_expression(
                    Tensor(bumped, dtype=np.float64), plan).sum().item()
                numeric[i, j] = (hi - lo) / (2 * eps)
        scale = max(np.abs(numeric).max(), 1.0)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-4 * scale)

    def test_deep_chain(self):
        t = Tensor(np.array([0.5]), requires_grad=True, dtype=np.float64)
        out = t
        for _ in range(50):
            out = out.clip(-1.0, 1.0) + out * 0.1
        out.sum().backward()
        assert np.isfinite(t.grad).all()

    def test_wide_fanout(self):
        t = Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
        total = (t * 0.0).sum()
        for i in range(20):
            total = total + (t * float(i)).sum()
        total.backward()
        np.testing.assert_allclose(t.grad, np.full(4, sum(range(20))))
