"""Quickstart: train one spectral filter on a synthetic cora and inspect it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations


from repro.bench import render_table
from repro.datasets import synthesize
from repro.graph import node_homophily
from repro.spectral import response_on_grid
from repro.tasks import run_node_classification
from repro.training import TrainConfig


def main() -> None:
    # 1. A cora-like graph (the registry mirrors the paper's Table 3).
    graph = synthesize("cora", scale=0.5, seed=0)
    print(f"graph: {graph}")
    print(f"node homophily: {node_homophily(graph):.3f} (target 0.83)\n")

    # 2. Train the PPR filter (APPNP's kernel) under both learning schemes.
    config = TrainConfig(epochs=60, patience=30, seed=0)
    rows = []
    for scheme in ("full_batch", "mini_batch"):
        result = run_node_classification(graph, "ppr", scheme=scheme,
                                         config=config, filter_hp={"alpha": 0.1})
        rows.append(
            {
                "scheme": scheme,
                "test_acc": f"{result.test_score:.3f}",
                "epochs": result.epochs_run,
                "precompute_s": f"{result.precompute_seconds:.2f}",
                "train_ms_per_epoch": f"{result.train_seconds_per_epoch * 1e3:.1f}",
                "device_MB": f"{result.device_peak_bytes / 2**20:.1f}",
                "ram_MB": f"{result.ram_peak_bytes / 2**20:.1f}",
            }
        )
    print(render_table(rows, title="PPR filter, full-batch vs mini-batch"))

    # 3. The same filter object answers spectral questions exactly.
    from repro.filters import make_filter

    lams, response = response_on_grid(make_filter("ppr", alpha=0.1),
                                      num_points=9)
    print("\nPPR frequency response g(λ):")
    for lam, value in zip(lams, response):
        bar = "#" * int(40 * value / response.max())
        print(f"  λ={lam:4.2f}  {value:6.3f}  {bar}")


if __name__ == "__main__":
    main()
