"""Table 5 — effectiveness of all filter types under full-batch training.

Regenerates the paper's accuracy matrix (filters × datasets, mean±std
cells) on one homophilous and two heterophilous synthetic datasets, and
asserts the paper's headline effectiveness shapes:

- under homophily, graph filters beat the Identity/MLP baseline and most
  filters bunch near the top (RQ3);
- under heterophily, pure low-pass filters (Impulse) collapse — sometimes
  below Identity — while filters with high-frequency components recover
  (RQ3/RQ4).
"""

from __future__ import annotations


from repro.bench import REPRESENTATIVE_FILTERS, effectiveness_experiment, pivot
from repro.training import TrainConfig

from .conftest import emit, env_epochs, run_once

DATASETS = ("cora", "citeseer", "chameleon", "roman")


def test_table5_fullbatch_effectiveness(benchmark):
    config = TrainConfig(epochs=env_epochs(40), patience=20)
    rows = run_once(
        benchmark, effectiveness_experiment,
        dataset_names=DATASETS,
        filters=REPRESENTATIVE_FILTERS,
        scheme="full_batch",
        seeds=(0, 1),
        config=config,
    )
    wide = pivot(rows, index="filter", column="dataset", value="cell")
    emit(wide, title="Table 5: full-batch effectiveness (mean±std %)")

    score = {(r["dataset"], r["filter"]): r["mean"] for r in rows}

    # Homophily: structure helps — the best graph filter clearly beats MLP.
    for dataset in ("cora", "citeseer"):
        best_graph = max(v for (d, f), v in score.items()
                         if d == dataset and f != "Identity")
        assert best_graph > score[(dataset, "Identity")] + 0.03

    # Heterophily: K-hop low-pass (Impulse) loses badly to the best filter,
    # and ranks at (or near) the bottom.
    for dataset in ("chameleon", "roman"):
        dataset_scores = {f: v for (d, f), v in score.items() if d == dataset}
        best = max(dataset_scores.values())
        assert dataset_scores["Impulse"] < best - 0.10
        order = sorted(dataset_scores, key=dataset_scores.get)
        assert "Impulse" in order[:4]
