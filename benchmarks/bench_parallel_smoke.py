"""Serial ≡ parallel determinism gate — now with the planner ON.

Runs one small efficiency sweep (2 datasets × 3 chain-sharing filters ×
1 scheme = 6 grid cells) three times through the real CLI:

- ``--workers 1`` — serial, the planner shares basis chains across
  cells in-process (the historical best case);
- ``--workers 4`` — pooled with the cross-process shared term store
  (:mod:`repro.runtime.shm`, on by default for pooled sweeps);
- ``--workers 4 --no-shared-terms`` — pooled with per-worker
  recomputation, the pre-shm baseline that quantifies the gap.

and holds the executor + store to their joint contract:

- **payload determinism**: after stripping execution-dependent fields
  (:func:`repro.bench.io.canonical_rows`), all three result files are
  *byte-identical*. Shared-memory term views must be bit-equal to
  locally computed chains — worker scheduling and claim adoption can
  never perturb a result bit.
- **schedule-invariant counters**: ``ops.{matmul,ewise}.*`` and
  ``pool.cells.ok`` match exactly across all three runs. ``ops.spmm.*``
  is *schedule-variant* with the planner on (serial sweeps share chains
  across cells; isolated workers cannot), so it gets a ratio gate
  instead:
- **spmm ratio**: the shared-store pooled run's ``ops.spmm.calls`` must
  come in at ≤ ``SPMM_RATIO_LIMIT`` × the serial count (the store
  actually closes the cross-worker gap), while the ``--no-shared-terms``
  baseline must sit *above* that limit (the gate is not vacuous —
  filters ppr/hk/monomial share one monomial chain per dataset, so the
  unshared pool pays for it once per worker).
- **record annotation**: each run's record (``<label>.run.json``)
  names its own result file, all three share one config fingerprint
  (workers/shared-terms are execution strategy, not configuration)
  while the pooled records' ``pool.shared_terms`` flag tells the two
  pool modes apart.

The normalized payloads, the counter table, and a ``counter_delta.json``
report (per-mode counters + both spmm ratios) are persisted under
``benchmarks/results/parallel_smoke/`` so the ``bench-parallel`` CI job
can upload them as artifacts for post-mortem diffing.
"""

from __future__ import annotations

import json
import shutil

from repro.bench.__main__ import main as bench_main
from repro.bench.io import canonical_payload, deterministic_counters, load_rows
from repro.telemetry import RUN_SCHEMA

from .conftest import RESULTS_DIR, emit, env_epochs, read_run_record, run_once

EPOCHS_DEFAULT = 3
PARALLEL_DIR = RESULTS_DIR / "parallel_smoke"
GRID_CELLS = 6  # 2 datasets x 3 filters x 1 scheme
#: Pooled-with-store ops.spmm.calls must stay within this factor of the
#: serial count (ISSUE 9 acceptance criterion).
SPMM_RATIO_LIMIT = 1.25

#: label -> extra CLI flags; each run writes ``<label>.json`` and its
#: record ``<label>.run.json``.
RUN_MODES = (
    ("serial", ["--workers", "1"]),
    ("pooled_shared", ["--workers", "4"]),
    ("pooled_unshared", ["--workers", "4", "--no-shared-terms"]),
)


def _one_cli_run(label: str, flags: list, epochs: int) -> int:
    return bench_main([
        "efficiency", "--datasets", "cora", "citeseer",
        "--filters", "ppr", "hk", "monomial", "--schemes", "mini_batch",
        "--epochs", str(epochs), *flags,
        "--output", str(PARALLEL_DIR / f"{label}.json"),
        "--trace", str(PARALLEL_DIR / f"{label}.jsonl"),
    ])


def _parallel_smoke(epochs: int) -> dict:
    if PARALLEL_DIR.exists():
        shutil.rmtree(PARALLEL_DIR)
    PARALLEL_DIR.mkdir(parents=True)

    exit_codes, payloads = {}, {}
    for label, flags in RUN_MODES:
        exit_codes[label] = _one_cli_run(label, flags, epochs)
        payload = canonical_payload(load_rows(PARALLEL_DIR / f"{label}.json"))
        payloads[label] = payload
        (PARALLEL_DIR / f"payload_{label}.json").write_bytes(payload)

    records = {label: read_run_record(PARALLEL_DIR / f"{label}.json")
               for label, _ in RUN_MODES}
    measured = {label: record["measured"]
                for label, record in records.items()}
    counters = {
        label: deterministic_counters(block["metrics"].get("counters", {}))
        for label, block in measured.items()
    }

    serial_spmm = counters["serial"].get("ops.spmm.calls", 0)
    delta = {
        "grid_cells": GRID_CELLS,
        "spmm_ratio_limit": SPMM_RATIO_LIMIT,
        "counters": counters,
        "spmm_ratio_shared": (
            counters["pooled_shared"].get("ops.spmm.calls", 0) / serial_spmm
            if serial_spmm else None),
        "spmm_ratio_unshared": (
            counters["pooled_unshared"].get("ops.spmm.calls", 0) / serial_spmm
            if serial_spmm else None),
        "shm": measured["pooled_shared"]["pool"].get("shm"),
    }
    (PARALLEL_DIR / "counter_delta.json").write_text(
        json.dumps(delta, indent=2, sort_keys=True))

    return {
        "exit_codes": exit_codes,
        "payloads": payloads,
        "schemas": {label: record["schema"]
                    for label, record in records.items()},
        "records": measured,
        "counters": counters,
        "delta": delta,
    }


def test_parallel_smoke_gate(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _parallel_smoke, epochs)
    labels = [label for label, _ in RUN_MODES]
    counters = report["counters"]

    emit([{"counter": name,
           **{label: counters[label].get(name) for label in labels}}
          for name in sorted(counters["serial"])],
         title="deterministic counters, serial vs pooled shared/unshared")

    # All three CLI invocations completed, each record parsed (reading
    # it raises otherwise) and names its own run's result file.
    assert report["exit_codes"] == {label: 0 for label in labels}
    assert report["schemas"] == {label: RUN_SCHEMA for label in labels}
    for label in labels:
        assert report["records"][label]["result_path"] \
            == str(PARALLEL_DIR / f"{label}.json"), \
            f"the {label} record belongs to another run"

    # --- payload determinism: byte-identical after normalization.
    assert report["payloads"]["serial"], \
        "serial run produced an empty payload"
    for label in labels[1:]:
        assert report["payloads"]["serial"] == report["payloads"][label], (
            f"serial and {label} sweeps diverged after normalization; diff "
            f"{PARALLEL_DIR / 'payload_serial.json'} against "
            f"{PARALLEL_DIR / f'payload_{label}.json'}")

    # --- schedule-invariant counters: exact across every mode.
    def invariant(label):
        return {name: value for name, value in counters[label].items()
                if not name.startswith("ops.spmm.")}

    for label in labels[1:]:
        assert invariant("serial") == invariant(label), \
            f"schedule-invariant counters drifted between serial and {label}"
    assert counters["serial"].get("ops.matmul.calls", 0) > 0, \
        "determinism gate is vacuous: no matmul ops were counted"
    assert counters["serial"].get("pool.cells.ok") == GRID_CELLS

    # --- spmm ratio: the shared store closes the cross-worker gap.
    serial_spmm = counters["serial"].get("ops.spmm.calls", 0)
    assert serial_spmm > 0, "spmm ratio gate is vacuous: no spmm counted"
    ratio_shared = report["delta"]["spmm_ratio_shared"]
    ratio_unshared = report["delta"]["spmm_ratio_unshared"]
    assert ratio_shared <= SPMM_RATIO_LIMIT, (
        f"pooled ops.spmm.calls is {ratio_shared:.2f}x serial with the "
        f"shared term store on (limit {SPMM_RATIO_LIMIT}x); see "
        f"{PARALLEL_DIR / 'counter_delta.json'}")
    assert ratio_unshared > SPMM_RATIO_LIMIT, (
        "the --no-shared-terms baseline no longer exceeds the ratio "
        "limit; the smoke slice stopped exercising cross-worker chain "
        "sharing and the gate above is vacuous")

    # --- the store actually served terms in the shared pooled run.
    shared_counters = (report["records"]["pooled_shared"]
                       ["metrics"].get("counters", {}))
    assert shared_counters.get("shm.terms.hit", 0) > 0, \
        "shared run served no terms from the cross-process store"
    assert shared_counters.get("shm.terms.publish", 0) > 0, \
        "shared run published no terms to the cross-process store"

    # --- record annotation: one config, three execution strategies.
    records = report["records"]
    fingerprints = {record["config_fingerprint"]
                    for record in records.values()}
    assert len(fingerprints) == 1, \
        "workers/shared-terms leaked into the config fingerprint"
    assert records["serial"]["workers"] == 1
    for label in labels[1:]:
        assert records[label]["workers"] == 4
    assert records["pooled_shared"]["pool"].get("shared_terms") is True
    assert records["pooled_unshared"]["pool"].get("shared_terms") is False
    shm_block = records["pooled_shared"]["pool"].get("shm") or {}
    assert shm_block.get("segments_unlinked", 0) > 0, \
        "store scope exit unlinked no segments"
