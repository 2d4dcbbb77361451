"""Memory-observatory smoke gate: the ledger must *account* and *record*.

Exercises the full memory vertical on a small efficiency slice:

- **Accounting sanity** (controlled, not workload-noise-driven): a single
  64 MiB engine allocation inside a span is accounted byte-exactly by the
  ledger, attributed to the right span path, and the ledger peak never
  exceeds the measured RSS peak (accounted ⊆ measured).
- **CLI vertical**: two identical real CLI runs both append registry
  records whose schema-v5 ``memory`` block carries the ledger peak and
  the accounting-coverage ratios. Their allocation totals
  (``total_alloc_bytes``, ``alloc_count``) are equal: the ledger counts
  the same arrays on every run.
- **Payload isolation**: the canonical result payloads of the two runs
  are byte-identical — the observatory is observability, never payload.

Artifacts (registry, traces) persist under
``benchmarks/results/memory_smoke/`` for the ``bench-memory`` CI job.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro import telemetry
from repro.autodiff import Tensor
from repro.bench.__main__ import main as bench_main
from repro.bench.io import canonical_payload, load_rows
from repro.telemetry.registry import RunRegistry

from .conftest import RESULTS_DIR, emit, env_epochs, run_once

EPOCHS_DEFAULT = 4
MEMORY_DIR = RESULTS_DIR / "memory_smoke"

#: The controlled allocation: large enough that allocator reuse and
#: interpreter noise cannot hide it, small enough for any CI runner.
PROBE_BYTES = 64 * 2 ** 20


def _controlled_accounting() -> dict:
    """One 64 MiB allocation, accounted end to end."""
    telemetry.shutdown()
    telemetry.configure()
    with telemetry.span("probe"):
        # Written pages (not calloc'd zeros) so the probe is resident.
        tensor = Tensor(np.ones(PROBE_BYTES // 4, dtype=np.float32))
    ledger = telemetry.get_ledger()
    out = {
        "peak_bytes": ledger.peak_bytes,
        "peak_path": ledger.peak_path,
        "live_bytes": ledger.live_bytes,
        "rss_peak_bytes": telemetry.peak_rss_bytes(),
    }
    del tensor
    events = telemetry.shutdown()
    out["span_mem_bytes"] = next(
        e["mem_bytes"] for e in events if e.get("name") == "probe")
    return out


def _cli_run(index: int, epochs: int) -> int:
    return bench_main([
        "efficiency", "--datasets", "cora", "--filters", "ppr",
        "--schemes", "mini_batch", "--epochs", str(epochs),
        "--registry-dir", str(MEMORY_DIR),
        "--trace", str(MEMORY_DIR / f"run{index}.jsonl"),
        "--output", str(MEMORY_DIR / f"run{index}.json"),
    ])


def _memory_smoke(epochs: int) -> dict:
    if MEMORY_DIR.exists():
        shutil.rmtree(MEMORY_DIR)
    probe = _controlled_accounting()

    # The pair doubles as the payload-isolation check and the registry's
    # (baseline, candidate).
    exit_codes = [_cli_run(1, epochs), _cli_run(2, epochs)]

    payloads = [canonical_payload(load_rows(MEMORY_DIR / f"run{i}.json"))
                for i in (1, 2)]

    registry = RunRegistry(MEMORY_DIR)
    records = registry.load()
    baseline, candidate = registry.resolve_pair(
        records[-1].config_fingerprint)

    return {
        "probe": probe,
        "exit_codes": exit_codes,
        "payloads": payloads,
        "entries": len(records),
        "baseline": baseline,
        "candidate": candidate,
    }


def test_memory_smoke_gate(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _memory_smoke, epochs)
    probe = report["probe"]
    baseline, candidate = report["baseline"], report["candidate"]

    emit([{"check": "probe.peak_bytes", "value": probe["peak_bytes"]},
          {"check": "probe.rss_peak_bytes", "value": probe["rss_peak_bytes"]},
          {"check": "candidate.memory.peak_bytes",
           "value": candidate.memory.get("peak_bytes")},
          {"check": "candidate.memory.coverage.ledger_vs_rss",
           "value": (candidate.memory.get("coverage") or {})
           .get("ledger_vs_rss")},
          {"check": "candidate.memory.device_peak_bytes",
           "value": candidate.memory.get("device_peak_bytes")}],
         title="memory observatory smoke")

    # --- accounting sanity: the controlled 64 MiB probe is byte-exact.
    assert probe["peak_bytes"] >= PROBE_BYTES
    assert probe["span_mem_bytes"] >= PROBE_BYTES
    assert probe["peak_path"] == "probe"
    # Accounted memory can never exceed what the OS actually measured.
    assert probe["peak_bytes"] <= probe["rss_peak_bytes"]

    # --- CLI vertical: both runs indexed, memory blocks populated.
    assert report["exit_codes"] == [0, 0]
    assert report["entries"] == 2
    for record in (baseline, candidate):
        assert record.schema.endswith("/v6")
        assert record.memory["peak_bytes"] > 0
        assert record.memory["total_alloc_bytes"] \
            >= record.memory["peak_bytes"]
        coverage = record.memory["coverage"]
        assert coverage["ledger_vs_rss"] is not None
        assert 0.0 < coverage["ledger_vs_rss"] <= 1.0
    # Allocation totals are schedule-invariant, so the paired runs agree.
    assert baseline.memory["total_alloc_bytes"] \
        == candidate.memory["total_alloc_bytes"]
    assert baseline.memory["alloc_count"] == candidate.memory["alloc_count"]

    # --- payload isolation: the ledger must not move a single result
    # byte (the observatory is observability, never payload).
    assert report["payloads"][0] == report["payloads"][1]
