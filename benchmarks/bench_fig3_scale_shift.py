"""Figure 3 — shift of filter effectiveness across graph scales.

Regenerates the relative-accuracy-vs-n series: one homophilous dataset per
scale class (S/M/L), each filter's accuracy normalized to the per-dataset
best. The paper's observation: the spread between suitable and unsuitable
filters widens as n grows.
"""

from __future__ import annotations


from repro.bench import scale_shift_experiment
from repro.training import TrainConfig

from .conftest import emit, env_epochs, run_once


def test_fig3_scale_shift(benchmark):
    config = TrainConfig(epochs=env_epochs(40), patience=20, batch_size=512)
    rows = run_once(
        benchmark, scale_shift_experiment,
        filters=("linear", "impulse", "monomial", "ppr", "monomial_var",
                 "chebyshev"),
        dataset_names=("cora", "arxiv", "products"),
        seeds=(0, 1),
        config=config,
    )
    emit(rows, title="Fig 3: relative accuracy vs graph scale")

    spreads = {}
    for dataset in ("cora", "arxiv", "products"):
        rel = [r["relative_accuracy"] for r in rows if r["dataset"] == dataset]
        spreads[dataset] = 1.0 - min(rel)
    # Divergence grows with scale: the large graph separates filters at
    # least as much as the small one (the paper's Figure 3 trend).
    assert spreads["products"] >= spreads["cora"] - 0.02
    sizes = {r["dataset"]: r["n"] for r in rows}
    assert sizes["cora"] < sizes["arxiv"] < sizes["products"]
