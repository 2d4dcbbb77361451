"""Table 5 at ``scale=1.0``: a full-size size-S row, measured not extrapolated.

The paper's efficiency/memory tables are defined on full-size graphs.
This bench runs one Table 5-shaped slice — chameleon (size S, 890 nodes,
F=2325: the largest feature volume of the S class) at the paper's full
scale, three monomial-family filters under all three training schemes —
through ``--blocked --ram-budget 64``, where the 32 MiB term-store share
cannot hold one ~91 MB variable-filter basis chain, so the planner
demonstrably spills at full scale. (The same slice also runs in core,
without ``--blocked``: 3 epochs, all 9 cells ``ok``, the whole CLI
process in under 5 s on a 2-vCPU VM; the tier is what bounds the
planner's resident terms, not what makes the slice fit.)

Gates (the ISSUE 10 acceptance criteria):

- every (filter, scheme) cell completes with ``status == "ok"`` — the
  full-scale run is *measured*, no OOM and no extrapolation;
- the GP scheme reports cut-edge expressiveness accounting;
- the blocked tier actually spilled;
- the accounted ``memory.peak_bytes`` stays under a pinned ceiling.

Artifacts persist under ``benchmarks/results/table5_fullscale/``.
"""

from __future__ import annotations

import shutil

from repro.bench.__main__ import main as bench_main
from repro.bench.io import load_rows
from repro.telemetry.registry import RunRegistry

from .conftest import RESULTS_DIR, emit, env_epochs, run_once

EPOCHS_DEFAULT = 3
FULLSCALE_DIR = RESULTS_DIR / "table5_fullscale"

#: Tier budget (MiB). Term-store share = 32 MiB < one full-scale
#: chameleon basis chain (~8.3 MB/term x K+1 terms) — spills at scale.
RAM_BUDGET_MIB = 64

#: Pinned ceiling for the run's accounted memory peak: the blocked tier
#: must keep the full-scale slice's engine allocations bounded.
PEAK_BYTES_CEILING = 1024 * 2 ** 20

DATASET = "chameleon"
FILTERS = ("ppr", "chebyshev", "monomial")
SCHEMES = ("full_batch", "mini_batch", "graph_partition")


def _fullscale_run(epochs: int) -> dict:
    if FULLSCALE_DIR.exists():
        shutil.rmtree(FULLSCALE_DIR)
    exit_code = bench_main([
        "efficiency", "--datasets", DATASET, "--filters", *FILTERS,
        "--schemes", *SCHEMES,
        "--scale", "1.0", "--epochs", str(epochs),
        "--blocked", "--ram-budget", str(RAM_BUDGET_MIB),
        "--spill-dir", str(FULLSCALE_DIR / "spill"),
        "--registry-dir", str(FULLSCALE_DIR),
        "--trace", str(FULLSCALE_DIR / "run.jsonl"),
        "--output", str(FULLSCALE_DIR / "run.json"),
    ])
    rows = load_rows(FULLSCALE_DIR / "run.json")
    record = RunRegistry(FULLSCALE_DIR).load()[-1]
    return {"exit_code": exit_code, "rows": rows, "record": record}


def test_table5_fullscale(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _fullscale_run, epochs)
    rows, record = report["rows"], report["record"]
    tier = record.memory.get("blocked") or {}

    emit(rows, title=f"Table 5 shape: {DATASET} @ scale=1.0 "
                     f"(blocked, {RAM_BUDGET_MIB} MiB budget)")
    emit([{"check": "blocked.spill_terms", "value": tier.get("spill_terms")},
          {"check": "blocked.spill_bytes", "value": tier.get("spill_bytes")},
          {"check": "memory.peak_bytes",
           "value": record.memory.get("peak_bytes")}],
         title="full-scale blocked accounting")

    assert report["exit_code"] == 0
    assert record.schema.endswith("/v6")

    # --- every cell of the grid is a measured row, not an OOM cell.
    assert len(rows) == len(FILTERS) * len(SCHEMES)
    assert all(row["status"] == "ok" for row in rows), \
        [f"{r['filter']}/{r['scheme']}: {r['status']}" for r in rows
         if r["status"] != "ok"]
    assert all(row["n"] >= 800 for row in rows), \
        "scale=1.0 must produce the paper-sized graph"

    # --- GP expressiveness accounting at full scale.
    gp_rows = [r for r in rows if r["scheme"] == "graph_partition"]
    assert gp_rows
    for row in gp_rows:
        assert row["cut_edges"] > 0
        assert 0.0 < row["cut_edge_fraction"] <= 1.0

    # --- the tier engaged and went out of core.
    assert tier, "full-scale record lacks the v6 'blocked' sub-block"
    assert tier["spill_terms"] >= 1, \
        "a 64 MiB budget must spill at least one full-scale term"

    # --- pinned memory gate: full scale, bounded peak.
    peak = record.memory.get("peak_bytes") or 0
    assert 0 < peak <= PEAK_BYTES_CEILING, \
        f"memory.peak_bytes {peak} exceeds pinned {PEAK_BYTES_CEILING}"
