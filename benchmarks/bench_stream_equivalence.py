"""Paired-seed equivalence gate for changes that move a seeded stream.

Runs ``SEEDS`` × {ppr, chebyshev, fbgnn2} × {full_batch, mini_batch} on
one homophilous (cora) and one heterophilous (roman) S dataset at
``EPOCHS`` epochs, and compares each cell's per-seed ``test_score``
against ``benchmarks/golden/stream_reference.json`` with
:func:`repro.bench.equivalence.paired_equivalence`: the 95 % CI of the
mean paired difference must lie inside ±δ, δ being 2.5 times the
reference's own between-seed spread, pooled over the dataset's cells.
Seed ``s`` draws split ``s`` and trains with ``TrainConfig(seed=s)`` on
both sides, so a pair differs only in what the code under test does with
its random streams.

Two self-checks keep the gate honest:

- the current code, captured through the ``--capture`` writer and read
  back, passes against itself in every cell;
- a planted deviation (``dropout=PLANTED_DROPOUT`` in the candidate's
  config) fails at least one cell against the reference.

Capture a reference at the commit a stream-moving change starts from::

    PYTHONPATH=src python -m benchmarks.bench_stream_equivalence --capture

The scores are not comparable across epoch counts, so this bench ignores
``REPRO_BENCH_EPOCHS``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path

from repro.bench import load_dataset
from repro.bench.equivalence import margin, paired_equivalence
from repro.datasets import get_spec
from repro.tasks import run_seeds
from repro.telemetry.manifest import git_sha
from repro.training import TrainConfig

from .conftest import emit, run_once

REFERENCE = Path(__file__).parent / "golden" / "stream_reference.json"
DATASETS = ("cora", "roman")
FILTERS = ("ppr", "chebyshev", "fbgnn2")
SCHEMES = ("full_batch", "mini_batch")
SEEDS = tuple(range(10))
EPOCHS = 40
CONFIG = TrainConfig(epochs=EPOCHS, patience=20)
#: The planted bug: a dropout rate the reference did not train with.
PLANTED_DROPOUT = 0.9


def scores(config: TrainConfig = CONFIG) -> dict:
    """``{"dataset/scheme/filter": [test_score per seed]}`` over the grid."""
    out = {}
    for dataset in DATASETS:
        graph = load_dataset(dataset, seed=0)
        run_config = replace(config, metric=get_spec(dataset).metric)
        for scheme in SCHEMES:
            for filter_name in FILTERS:
                summary = run_seeds(graph, filter_name, scheme=scheme,
                                    config=run_config, seeds=SEEDS)
                assert len(summary.scores) == len(SEEDS), "a seed did not finish"
                out[f"{dataset}/{scheme}/{filter_name}"] = summary.scores
    return out


def capture(path: Path, cell_scores: dict) -> None:
    """Write a reference: the scores plus what they were measured under."""
    payload = {"git_sha": git_sha(), "epochs": EPOCHS, "patience": CONFIG.patience,
               "seeds": list(SEEDS), "scores": cell_scores}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_reference(path: Path = REFERENCE) -> dict:
    payload = json.loads(path.read_text())
    assert (payload["epochs"], payload["patience"], payload["seeds"]) == \
        (EPOCHS, CONFIG.patience, list(SEEDS)), "reference grid differs"
    return payload["scores"]


def verdicts(reference: dict, candidate: dict) -> dict:
    """Each cell's verdict, δ pooled over the reference cells of its dataset."""
    assert set(reference) == set(candidate)
    delta = {dataset: margin([scores for cell, scores in reference.items()
                              if cell.startswith(f"{dataset}/")])
             for dataset in DATASETS}
    return {cell: paired_equivalence(reference[cell], candidate[cell],
                                     delta[cell.split("/")[0]])
            for cell in sorted(reference)}


def _rows(result: dict) -> list:
    return [{"cell": cell, "mean_diff": v.mean, "ci_low": v.low,
             "ci_high": v.high, "delta": v.delta,
             "verdict": "pass" if v.passed else "FAIL"}
            for cell, v in result.items()]


def test_stream_equivalence(benchmark, tmp_path):
    reference = load_reference()
    current = run_once(benchmark, scores)
    result = verdicts(reference, current)
    emit(_rows(result), title="Stream equivalence: current vs reference "
                              "(paired test_score, 95 % CI vs ±δ)")

    capture(tmp_path / "self.json", current)
    itself = verdicts(load_reference(tmp_path / "self.json"), current)
    assert all(v.passed for v in itself.values())

    failed = [cell for cell, v in result.items() if not v.passed]
    assert not failed, f"not equivalent to the reference: {failed}"


def test_planted_deviation_fails(benchmark):
    planted = run_once(benchmark, scores,
                       replace(CONFIG, dropout=PLANTED_DROPOUT))
    result = verdicts(load_reference(), planted)
    emit(_rows(result), title=f"Planted deviation: dropout={PLANTED_DROPOUT} "
                              "vs reference")
    assert any(not v.passed for v in result.values())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help=f"run the grid and write {REFERENCE.name}")
    if parser.parse_args().capture:
        capture(REFERENCE, scores())
        print(f"wrote {REFERENCE}")
