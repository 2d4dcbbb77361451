"""Figure 7 — effect of propagation hops K.

Sweeps K for representative fixed and variable filters on homophilous and
heterophilous datasets. Asserts the paper's over-smoothing shape: the
effectiveness of pure low-pass filters (Impulse) decays with K, while
decaying (PPR) and orthogonal-basis (Chebyshev) filters stay stable.
"""

from __future__ import annotations


from repro.bench import hop_sweep_experiment
from repro.training import TrainConfig

from .conftest import emit, env_epochs, run_once


def test_fig7_hop_sweep(benchmark):
    config = TrainConfig(epochs=env_epochs(40), patience=20)
    rows = run_once(
        benchmark, hop_sweep_experiment,
        filters=("impulse", "ppr", "chebyshev"),
        dataset_names=("cora", "chameleon"),
        hops=(2, 6, 10, 16),
        config=config,
        seeds=(0, 1),
    )
    emit(rows, title="Fig 7: accuracy vs propagation hops K")

    def series(dataset, filter_display):
        points = [(r["K"], r["accuracy"]) for r in rows
                  if r["dataset"] == dataset and r["filter"] == filter_display]
        return [acc for _, acc in sorted(points)]

    # Over-smoothing: Impulse decays from K=2 to K=16 on both graph types.
    for dataset in ("cora", "chameleon"):
        impulse = series(dataset, "Impulse")
        assert impulse[-1] < impulse[0]

    # Stability: PPR's decay factor shields it — its K=16 accuracy stays
    # within a few points of its best.
    for dataset in ("cora", "chameleon"):
        ppr = series(dataset, "PPR")
        assert ppr[-1] > max(ppr) - 0.12

    # Orthogonal variable basis is the most K-robust on the hetero graph.
    cheb = series("chameleon", "Chebyshev")
    assert min(cheb) > max(cheb) - 0.15
