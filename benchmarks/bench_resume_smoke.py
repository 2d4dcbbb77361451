"""Crash/resume byte-identity gate for the cell artifact store.

Simulates the workflow the store exists for — a sweep that dies partway —
through the real CLI, and holds :mod:`repro.runtime.artifacts` +
:mod:`repro.runtime.pool` to the resumable-sweep contract:

1. ``--fresh`` populates the store: one small efficiency sweep (2
   datasets × 2 filters × 1 scheme = 4 grid cells) runs live and
   persists all 4 cell artifacts.
2. Half the artifacts are deleted — the on-disk state an interrupted
   sweep leaves behind (cells commit atomically, so a kill leaves some
   complete artifacts and nothing else).
3. ``--resume`` reruns the same configuration: the surviving cells are
   served from the store (``artifacts.hit == 2``), only the remainder
   executes (``miss == stored == 2``), and ``pool.stats`` reports
   ``cached`` + ``ok`` summing to the grid size.
4. **The gate**: after stripping execution-dependent fields
   (:func:`repro.bench.io.canonical_rows`), the resumed run's payload is
   *byte-identical* to the uninterrupted ``--fresh`` run's — a hit
   substitutes exactly the bytes a live execution would have produced.
5. Both run records (``fresh.run.json``, ``resume.run.json``) share one
   config fingerprint; the resume mode and store traffic live in the
   ``artifacts`` block outside it.

The normalized payloads are persisted under
``benchmarks/results/resume_smoke/`` so the ``bench-resume`` CI job can
upload them for post-mortem diffing.
"""

from __future__ import annotations

import shutil

from repro.bench.__main__ import main as bench_main
from repro.bench.io import canonical_payload, load_rows
from repro.runtime.artifacts import ArtifactStore
from repro.telemetry import RUN_SCHEMA

from .conftest import RESULTS_DIR, emit, env_epochs, read_run_record, run_once

EPOCHS_DEFAULT = 3
RESUME_DIR = RESULTS_DIR / "resume_smoke"
STORE_DIR = RESUME_DIR / "artifacts"
GRID_CELLS = 4   # 2 datasets x 2 filters x 1 scheme
DELETED = 2      # artifacts removed to simulate the mid-sweep kill


def _one_cli_run(mode: str, epochs: int) -> int:
    return bench_main([
        "efficiency", "--datasets", "cora", "citeseer",
        "--filters", "ppr", "chebyshev", "--schemes", "mini_batch",
        "--epochs", str(epochs), "--workers", "2",
        f"--{mode}", "--artifact-dir", str(STORE_DIR),
        "--output", str(RESUME_DIR / f"{mode}.json"),
    ])


def _resume_smoke(epochs: int) -> dict:
    if RESUME_DIR.exists():
        shutil.rmtree(RESUME_DIR)
    RESUME_DIR.mkdir(parents=True)

    exit_codes = {"fresh": _one_cli_run("fresh", epochs)}

    store = ArtifactStore(STORE_DIR)
    populated = len(store)
    for address in store.addresses()[:DELETED]:
        store.discard(address)
    survivors = len(store)

    exit_codes["resume"] = _one_cli_run("resume", epochs)

    payloads, records = {}, {}
    for mode in ("fresh", "resume"):
        payload = canonical_payload(load_rows(RESUME_DIR / f"{mode}.json"))
        payloads[mode] = payload
        (RESUME_DIR / f"payload_{mode}.json").write_bytes(payload)
        records[mode] = read_run_record(RESUME_DIR / f"{mode}.json")

    return {
        "exit_codes": exit_codes,
        "populated": populated,
        "survivors": survivors,
        "payloads": payloads,
        "schemas": {mode: record["schema"]
                    for mode, record in records.items()},
        "records": {mode: record["measured"]
                    for mode, record in records.items()},
    }


def test_resume_smoke_gate(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _resume_smoke, epochs)

    emit([{"mode": mode,
           **{k: record["artifacts"].get(k)
              for k in ("hit", "miss", "stored", "cells")},
           "pool_ok": record["pool"]["stats"]["ok"],
           "pool_cached": record["pool"]["stats"]["cached"]}
          for mode, record in sorted(report["records"].items())],
         title="artifact-store traffic, fresh vs resumed")

    # Both CLI invocations completed and each record parsed (reading it
    # raises otherwise) and was written by the run of its mode.
    assert report["exit_codes"] == {"fresh": 0, "resume": 0}
    assert {mode: record["artifacts"].get("mode")
            for mode, record in report["records"].items()} \
        == {"fresh": "fresh", "resume": "resume"}

    # The fresh run stored every cell; the deletion left exactly half.
    assert report["populated"] == GRID_CELLS
    assert report["survivors"] == GRID_CELLS - DELETED

    # --- store traffic: survivors hit, the remainder re-executed.
    fresh, resumed = report["records"]["fresh"], report["records"]["resume"]
    assert fresh["artifacts"]["hit"] == 0
    assert fresh["artifacts"]["stored"] == GRID_CELLS
    assert resumed["artifacts"]["hit"] == GRID_CELLS - DELETED
    assert resumed["artifacts"]["hit"] > 0, "resume gate is vacuous: no hits"
    assert resumed["artifacts"]["miss"] == DELETED
    assert resumed["artifacts"]["stored"] == DELETED, \
        "re-executed cells must repopulate the store"

    # --- pool accounting: cached + ok == grid size.
    stats = resumed["pool"]["stats"]
    assert stats["cached"] == GRID_CELLS - DELETED
    assert stats["ok"] == DELETED
    assert stats["cached"] + stats["ok"] == stats["cells"] == GRID_CELLS
    assert stats["failed"] == 0

    # --- the byte gate: resumed == uninterrupted after normalization.
    assert report["payloads"]["fresh"], "fresh run produced an empty payload"
    assert report["payloads"]["fresh"] == report["payloads"]["resume"], (
        "resumed sweep diverged from the uninterrupted run; diff "
        f"{RESUME_DIR / 'payload_fresh.json'} against "
        f"{RESUME_DIR / 'payload_resume.json'}")

    # --- records: one config, two modes.
    assert fresh["config_fingerprint"] == resumed["config_fingerprint"], \
        "resume mode leaked into the config fingerprint"
    assert report["schemas"]["fresh"] == RUN_SCHEMA
    assert resumed["artifacts"]["mode"] == "resume"
