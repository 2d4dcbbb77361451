"""Every basis recurrence against a golden captured before its rewrite.

``tests/data/basis_golden.json`` holds, for every registry filter at
K ∈ {3, 10}, ρ ∈ {0.5, 0.25} and both spmm backends, sha256 digests of

- the mini-batch ``precompute`` channels, streamed and under a
  :func:`~repro.runtime.plan.plan_scope` (one scope per (K, ρ, backend),
  filters in registry order, so later filters are served from the chains
  of earlier ones);
- the full-batch forward output and its gradient ∂x, for a seeded
  upstream gradient;

and per (filter, K) the digest of ``response`` on a 33-point λ grid.
Besides the registry's defaults, :data:`VARIANTS` covers coefficients the
defaults leave trivial: Jacobi with a ≠ b (its ``T_{k-1}`` weight is 0
at a = b) and Gaussian with a non-unit β and α/J.

It was captured at the commit before the planner's per-family step
kernels became one coefficient rule each (``PYTHONPATH=src python -m
tests.test_basis_golden --capture``), so the rules and their executor
are held to the bits of the code they replaced, not to themselves.

A value whose bits depend on the host is stored as a seeded random
projection with a relative tolerance instead of a digest (see
:data:`HOST_DEPENDENT`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.datasets import synthesize
from repro.filters import FILTER_NAMES, PropagationContext, make_filter
from repro.runtime import plan

GOLDEN_PATH = Path(__file__).parent / "data" / "basis_golden.json"
HOPS = (3, 10)
RHOS = (0.5, 0.25)
BACKENDS = ("csr", "coo_gather")
LAMS = np.linspace(0.0, 2.0, 33)
WIDTH = 6

#: Values downstream of a BLAS product, whose bits follow the host's
#: OpenBLAS kernel: Favard builds its weights with ``S @ r`` and
#: ``Rᵀ @ θ``. Its channels are plain recurrences and keep exact digests.
#: (ChebInterp's ``w = Cθ`` is a term-order sum, so its forward, ∂x and
#: response are exact digests too.)
HOST_DEPENDENT = {
    ("favard", "forward"), ("favard", "grad_x"), ("favard", "response"),
}
RTOL = 1e-5
#: label → (registry name, hyperparameters).
VARIANTS = {
    "jacobi[a=1.5,b=0.5]": ("jacobi", {"a": 1.5, "b": 0.5}),
    "gaussian[alpha=2.5,beta=-0.5]": ("gaussian", {"alpha": 2.5,
                                                   "beta": -0.5}),
}
FILTERS = {**{name: (name, {}) for name in FILTER_NAMES}, **VARIANTS}


def _graph_and_signal():
    graph = synthesize("cora", scale=0.1, seed=3)
    x = np.random.default_rng(0).normal(
        size=(graph.num_nodes, WIDTH)).astype(np.float32)
    return graph, x


def _fingerprint(name: str, what: str, value) -> object:
    data = np.ascontiguousarray(np.asarray(value))
    if (name, what) in HOST_DEPENDENT:
        flat = data.astype(np.float64).reshape(-1)
        projection = np.random.default_rng(1).normal(size=(4, flat.size))
        return {"projection": [float(v) for v in projection @ flat],
                "rtol": RTOL}
    digest = hashlib.sha256(repr((data.dtype.str, data.shape)).encode())
    digest.update(data.tobytes())
    return digest.hexdigest()


def _params(filter_, rng):
    """The filter's initial parameters, perturbed so no weight is trivial."""
    return {name: spec.init + rng.normal(
                scale=0.1, size=spec.init.shape).astype(np.float32)
            for name, spec in sorted(filter_.parameter_spec().items())}


def capture() -> dict:
    """Fingerprints of every golden value, keyed ``filter/K/...``."""
    graph, x = _graph_and_signal()
    out = {}
    for hops in HOPS:
        for label, (name, overrides) in FILTERS.items():
            filter_ = make_filter(name, num_hops=hops, num_features=WIDTH,
                                  **overrides)
            out[f"{label}/K{hops}/response"] = _fingerprint(
                name, "response", filter_.response(LAMS))
        for rho in RHOS:
            for backend in BACKENDS:
                tag = f"K{hops}/rho{rho}/{backend}"
                rng = np.random.default_rng(2)
                for label, (name, overrides) in FILTERS.items():
                    filter_ = make_filter(name, num_hops=hops,
                                          num_features=WIDTH, **overrides)
                    out[f"{label}/{tag}/precompute_stream"] = _fingerprint(
                        name, "precompute_stream",
                        filter_.precompute(graph, x, rho, backend))
                    signal = Tensor(x.copy(), requires_grad=True)
                    params = {key: Tensor(value, requires_grad=True)
                              for key, value in _params(filter_, rng).items()}
                    ctx = PropagationContext.for_graph(graph, rho, backend)
                    result = filter_.forward(ctx, signal, params)
                    result.backward(rng.normal(
                        size=result.shape).astype(np.float32))
                    out[f"{label}/{tag}/forward"] = _fingerprint(
                        name, "forward", result.data)
                    out[f"{label}/{tag}/grad_x"] = _fingerprint(
                        name, "grad_x", signal.grad)
                with plan.plan_scope(fresh=True):
                    for label, (name, overrides) in FILTERS.items():
                        filter_ = make_filter(name, num_hops=hops,
                                              num_features=WIDTH,
                                              **overrides)
                        out[f"{label}/{tag}/precompute_plan"] = _fingerprint(
                            name, "precompute_plan",
                            filter_.precompute(graph, x, rho, backend))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def observed():
    return capture()


@pytest.mark.parametrize("label", list(FILTERS))
def test_filter_matches_golden(golden, observed, label):
    keys = sorted(key for key in golden if key.split("/")[0] == label)
    assert keys == sorted(key for key in observed
                          if key.split("/")[0] == label)
    for key in keys:
        expected, got = golden[key], observed[key]
        if isinstance(expected, str):
            assert got == expected, key
        else:
            assert got["projection"] == pytest.approx(
                expected["projection"], rel=expected["rtol"]), key


def test_golden_covers_the_grid(golden):
    per_filter = len(HOPS) * (1 + len(RHOS) * len(BACKENDS) * 4)
    assert len(golden) == len(FILTERS) * per_filter


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name} from this tree")
    args = parser.parse_args()
    values = capture()
    if args.capture:
        GOLDEN_PATH.write_text(json.dumps(values, indent=1, sort_keys=True)
                               + "\n")
        print(f"wrote {len(values)} fingerprints to {GOLDEN_PATH}")
    else:
        print(json.dumps(values, indent=1, sort_keys=True))
