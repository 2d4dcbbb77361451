"""Blocked-tier smoke gate: out of core, under budget, not a bit moved.

Two real CLI runs of a tiny efficiency slice (cora at scale 0.05, three
monomial-family filters, MB + GP schemes):

- **in-core** — the plain path, no blocked tier.
- **blocked** — ``--blocked --ram-budget 2`` (MiB): an artificially low
  budget whose 1 MiB term-store share cannot hold one ~0.8 MB basis
  chain next to another, forcing the planner to spill ≥1 whole term to
  disk and reload it for the filter that re-requests the chain.

Gates:

- Both runs exit 0 and their canonical result payloads are
  **byte-identical** — spilling never moves a result bit.
- The blocked run's registry record (schema v6) carries a ``blocked``
  memory sub-block with ``spill_terms ≥ 1`` and ``spill_loads ≥ 1``;
  the in-core record has no such key (v5-shaped when the tier is off).
- The blocked run's ``memory.peak_bytes`` stays under a pinned ceiling.
- GP rows carry the cut-edge expressiveness accounting, identically in
  both runs.

Artifacts persist under ``benchmarks/results/blocked_smoke/`` for the
``bench-blocked`` CI job.
"""

from __future__ import annotations

import shutil

from repro.bench.__main__ import main as bench_main
from repro.bench.io import canonical_payload, load_rows
from repro.telemetry.registry import RunRegistry

from .conftest import RESULTS_DIR, emit, env_epochs, run_once

EPOCHS_DEFAULT = 2
BLOCKED_DIR = RESULTS_DIR / "blocked_smoke"

#: Artificially low tier budget (MiB): the 50% term-store share is 1 MiB,
#: below two resident ~0.8 MB cora@0.05 basis chains — guarantees spills.
RAM_BUDGET_MIB = 2

#: Pinned ceiling for the blocked run's accounted memory peak. The slice
#: allocates ~15 MB of engine tensors; 256 MiB is ~16x headroom that
#: still catches an accidental full-scale materialization.
PEAK_BYTES_CEILING = 256 * 2 ** 20

#: Filter order matters: ppr fills the shared monomial-adjacency chain,
#: chebyshev's distinct chain evicts-and-spills it under the tiny term
#: budget, monomial re-requests the same fingerprint and must reload.
FILTERS = ("ppr", "chebyshev", "monomial")


def _cli_run(tag: str, epochs: int, blocked: bool) -> int:
    argv = [
        "efficiency", "--datasets", "cora", "--filters", *FILTERS,
        "--schemes", "mini_batch", "graph_partition",
        "--scale", "0.05", "--epochs", str(epochs),
        "--registry-dir", str(BLOCKED_DIR),
        "--trace", str(BLOCKED_DIR / f"{tag}.jsonl"),
        "--output", str(BLOCKED_DIR / f"{tag}.json"),
    ]
    if blocked:
        argv += ["--blocked", "--ram-budget", str(RAM_BUDGET_MIB),
                 "--spill-dir", str(BLOCKED_DIR / "spill")]
    return bench_main(argv)


def _blocked_smoke(epochs: int) -> dict:
    if BLOCKED_DIR.exists():
        shutil.rmtree(BLOCKED_DIR)

    exit_codes = [_cli_run("incore", epochs, blocked=False),
                  _cli_run("blocked", epochs, blocked=True)]

    rows = {tag: load_rows(BLOCKED_DIR / f"{tag}.json")
            for tag in ("incore", "blocked")}
    payloads = {tag: canonical_payload(r) for tag, r in rows.items()}

    records = RunRegistry(BLOCKED_DIR).load()
    incore_rec, blocked_rec = records[-2], records[-1]

    return {
        "exit_codes": exit_codes,
        "rows": rows,
        "payloads": payloads,
        "entries": len(records),
        "incore": incore_rec,
        "blocked": blocked_rec,
        "spill_dir_entries": sorted(
            p.name for p in (BLOCKED_DIR / "spill").glob("*")),
    }


def test_blocked_smoke_gate(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _blocked_smoke, epochs)
    blocked_rec, incore_rec = report["blocked"], report["incore"]
    tier = blocked_rec.memory.get("blocked") or {}

    emit([{"check": "blocked.spill_terms", "value": tier.get("spill_terms")},
          {"check": "blocked.spill_loads", "value": tier.get("spill_loads")},
          {"check": "blocked.spill_bytes", "value": tier.get("spill_bytes")},
          {"check": "blocked.mmap_bytes", "value": tier.get("mmap_bytes")},
          {"check": "memory.peak_bytes",
           "value": blocked_rec.memory.get("peak_bytes")}],
         title="blocked tier smoke")

    # --- both verticals ran end to end and were indexed.
    assert report["exit_codes"] == [0, 0]
    assert report["entries"] == 2
    assert blocked_rec.schema.endswith("/v6")

    # --- byte-identity: out-of-core execution never moves a result bit.
    assert report["payloads"]["incore"] == report["payloads"]["blocked"], \
        "blocked-tier payload diverged from the in-core path"

    # --- the tier actually went out of core under the low budget.
    assert tier, "blocked run's memory block lacks the v6 'blocked' sub-block"
    assert tier["spill_terms"] >= 1, "low budget must spill ≥1 planner term"
    assert tier["spill_loads"] >= 1, \
        "a re-requested spilled chain must reload from disk"
    assert tier["spill_bytes"] > 0
    assert tier["mmap_bytes"] > 0

    # --- tier-off records stay v5-shaped: no 'blocked' key at all.
    assert "blocked" not in incore_rec.memory

    # --- pinned memory gate.
    peak = blocked_rec.memory.get("peak_bytes") or 0
    assert 0 < peak <= PEAK_BYTES_CEILING, \
        f"memory.peak_bytes {peak} exceeds pinned {PEAK_BYTES_CEILING}"

    # --- spill-dir hygiene: the run purges its payloads on close.
    assert report["spill_dir_entries"] == [], \
        f"stale spill files: {report['spill_dir_entries']}"

    # --- GP rows carry cut-edge accounting, identically across paths.
    for tag in ("incore", "blocked"):
        gp_rows = [r for r in report["rows"][tag]
                   if r.get("scheme") == "graph_partition"]
        assert gp_rows, f"{tag}: no graph_partition rows"
        for row in gp_rows:
            assert row.get("status") == "ok"
            assert row.get("cut_edges", 0) > 0
            assert 0.0 < row.get("cut_edge_fraction", 0.0) <= 1.0
            assert row.get("num_parts", 0) >= 2
