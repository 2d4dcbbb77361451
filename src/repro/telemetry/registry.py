"""Run registry: one record per bench invocation.

A single ``--trace`` run leaves one JSONL trace and one manifest sidecar;
this module keeps what the run itself measured beside them. Every bench
invocation appends one :class:`RunRecord` — manifest hash, config
fingerprint, git rev, metric/counter snapshot, per-stage span aggregates,
and the ``memory`` / ``pool`` / ``artifacts`` blocks — to an append-only
JSONL file (``runs.jsonl`` under ``benchmarks/results/registry/`` by
default, overridable via the ``REPRO_REGISTRY_DIR`` environment variable
or an explicit path). The smoke gates read those records back with
:meth:`RunRegistry.load`; timings across commits are the perf harness's
job (``benchmarks/perf/run.py``), not this file's.

The *config fingerprint* is the identity of a run's configuration: a
hash over the manifest fields that define **what** was measured
(experiment, config, seed, datasets, cache mode) and deliberately
**not** over the fields that define *which code* measured it (git SHA,
platform, library versions) or how it was executed (workers, shared
terms, resume). Runs of one configuration share a fingerprint, which is
what the artifact store addresses cells by and what the parallel, plan
and resume gates check across their runs.

Durability discipline: appends are single ``write()`` calls of one
newline-terminated line (interleaved writers cannot shear each other's
records), a missing trailing newline left by a crashed writer is repaired
before the next append, and :meth:`RunRegistry.load` skips undecodable
lines (the truncated tail of a crash) instead of raising.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

PathLike = Union[str, Path]

#: Record schema. v2 (PR 4) added the ``workers`` count and the ``pool``
#: execution-policy block for parallel sweeps; v3 (PR 6) added two
#: pointers to live-telemetry artifacts, ``live_path`` and
#: ``chrome_trace_path``, which are no longer written (lines that carry
#: them still load; :meth:`RunRecord.from_dict` drops unknown keys);
#: v4 (PR 7) added the ``artifacts`` block — resume mode and
#: artifact-store hit/miss/store accounting, deliberately outside the
#: config fingerprint (serving cells from the store must not change
#: *what* was measured); v5 (PR 8) added the ``memory`` block — the
#: allocation ledger's peak/live accounting, peak attribution, and the
#: DeviceModel-vs-ledger-vs-RSS accounting-coverage ratios, also outside
#: the fingerprint (how memory was *observed* must not change what was
#: measured); v6 (PR 10) added the ``blocked`` sub-block inside
#: ``memory`` — spill accounting of the blocked tier (spill bytes,
#: spilled/reloaded planner terms, and ``mmap_bytes``: the bytes mapped
#: back from spill files, summed over every load), present only when
#: the tier spilled so tier-off records stay v5-shaped. Records written
#: before the tier stopped tiling products also carry ``spmm_calls`` and
#: ``tiles`` there, and v1–v6 records written before the registry stopped
#: answering history queries carry a ``summary`` block of result-column
#: means, which is dropped on load like any unknown key.
#: Older lines (no such keys) still load —
#: :meth:`RunRecord.from_dict` fills the serial/None/empty defaults.
REGISTRY_SCHEMA = "repro.telemetry.registry/v6"

#: File name of the append-only index inside the registry directory.
REGISTRY_FILENAME = "runs.jsonl"

#: Default registry location, resolved relative to the working directory
#: (the repo root in every documented workflow).
DEFAULT_REGISTRY_DIR = Path("benchmarks") / "results" / "registry"

#: Environment variable overriding the default registry directory.
REGISTRY_DIR_ENV = "REPRO_REGISTRY_DIR"

#: Manifest keys that define a run's *configuration identity*. Everything
#: else (git SHA, platform, versions, argv, free-form metadata) varies
#: across commits/hosts and must not perturb the fingerprint.
FINGERPRINT_KEYS = ("experiment", "artifact", "config", "seed", "datasets",
                    "cache", "schema")


def default_registry_dir(override: Optional[PathLike] = None) -> Path:
    """Resolve the registry directory: explicit > env var > repo default."""
    if override is not None:
        return Path(override)
    env = os.environ.get(REGISTRY_DIR_ENV)
    if env:
        return Path(env)
    return DEFAULT_REGISTRY_DIR


def _stable_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def config_fingerprint(manifest: Mapping) -> str:
    """Deterministic 12-hex-digit identity of a run configuration.

    Hashes the :data:`FINGERPRINT_KEYS` subset of a run manifest, so runs
    of the same experiment/config/seed/datasets share a fingerprint across
    commits and platforms.
    """
    subset = {key: manifest.get(key) for key in FINGERPRINT_KEYS}
    return hashlib.sha256(_stable_json(subset).encode()).hexdigest()[:12]


def manifest_sha(manifest: Mapping) -> str:
    """Full-content hash of a manifest (changes with code/platform too)."""
    return hashlib.sha256(_stable_json(dict(manifest)).encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """One bench invocation as the registry remembers it."""

    config_fingerprint: str
    timestamp: float
    run_id: str = ""
    schema: str = REGISTRY_SCHEMA
    manifest_sha: str = ""
    git_sha: Optional[str] = None
    experiment: Optional[str] = None
    seed: Optional[int] = None
    #: Process-pool width the sweep ran with (1 = serial; pre-v2 records
    #: load as 1). Deliberately outside the config fingerprint: worker
    #: count must not change *what* was measured, and the determinism
    #: gate relies on serial/parallel runs sharing a fingerprint.
    workers: int = 1
    #: Pool execution policy + outcome accounting (empty for serial runs
    #: and pre-v2 records): workers, cell_timeout, max_retries, and any
    #: :func:`repro.runtime.pool.pool_stats` fields the caller attached.
    pool: Dict = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)
    stages: Dict = field(default_factory=dict)
    trace_path: Optional[str] = None
    result_path: Optional[str] = None
    #: Resumable-sweep accounting (schema v4; empty for runs without the
    #: artifact store and pre-v4 records): the resume mode
    #: (``resume``/``fresh``), the store directory, and the store's
    #: :meth:`~repro.runtime.artifacts.ArtifactStore.stats` traffic
    #: (cells/hit/miss/stored/torn). Outside the config fingerprint by design —
    #: a resumed run and a fresh run of one config share a fingerprint.
    artifacts: Dict = field(default_factory=dict)
    #: Memory observatory block (schema v5; empty for pre-v5 records and
    #: runs without telemetry): the allocation ledger summary
    #: (:func:`repro.telemetry.memory.memory_block`) — accounted
    #: peak/live/total bytes, per-path and per-op peak attribution, top
    #: allocations — plus the DeviceModel peak and the accounting
    #: coverage ratios (ledger vs measured RSS, device vs ledger).
    #: Outside the config fingerprint by design.
    memory: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def build_record(
    manifest: Mapping,
    metrics: Optional[Mapping] = None,
    stages: Optional[Mapping] = None,
    trace_path: Optional[PathLike] = None,
    result_path: Optional[PathLike] = None,
    timestamp: Optional[float] = None,
    workers: int = 1,
    pool: Optional[Mapping] = None,
    artifacts: Optional[Mapping] = None,
    memory: Optional[Mapping] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from a manifest plus run snapshots.

    ``metrics`` is a :meth:`MetricsRegistry.snapshot` dict and ``stages``
    a :func:`repro.telemetry.report.aggregate_spans` dict.
    ``workers``/``pool`` annotate parallel sweeps (schema v2): the pool
    width and its execution policy / retry accounting.
    ``artifacts`` is the resumable-sweep block (schema v4): resume mode,
    store directory, and artifact-store traffic. ``memory`` is the
    memory-observatory block (schema v5): the allocation ledger summary
    with peak attribution and accounting-coverage ratios.
    """
    timestamp = time.time() if timestamp is None else float(timestamp)
    fingerprint = config_fingerprint(manifest)
    content_sha = manifest_sha(manifest)
    run_id = hashlib.sha256(
        f"{content_sha}:{timestamp:.6f}:{os.getpid()}".encode()
    ).hexdigest()[:12]
    return RunRecord(
        config_fingerprint=fingerprint,
        timestamp=timestamp,
        run_id=run_id,
        manifest_sha=content_sha,
        git_sha=manifest.get("git_sha"),
        experiment=manifest.get("experiment"),
        seed=manifest.get("seed"),
        workers=int(workers),
        pool=dict(pool or {}),
        metrics=dict(metrics or {}),
        stages={str(k): dict(v) for k, v in (stages or {}).items()},
        trace_path=str(trace_path) if trace_path is not None else None,
        result_path=str(result_path) if result_path is not None else None,
        artifacts=dict(artifacts or {}),
        memory=dict(memory or {}),
    )


class RunRegistry:
    """Append-only, crash-tolerant JSONL index of bench runs.

    Parameters
    ----------
    root:
        Registry directory (created on first append). ``None`` resolves
        through :func:`default_registry_dir`.
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.root = default_registry_dir(root)
        self.path = self.root / REGISTRY_FILENAME
        self.corrupt_lines = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record as a single atomic line write."""
        line = _stable_json(record.to_dict()) + "\n"
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            # Repair a truncated tail (crashed writer) so the new record
            # starts on its own line instead of extending the broken one.
            if self.path.exists() and self.path.stat().st_size > 0:
                with self.path.open("rb") as handle:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        line = "\n" + line
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        return record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load(self) -> List[RunRecord]:
        """All decodable records in history order (timestamp, append order).

        Undecodable lines — the truncated last line of a crashed append —
        are skipped and tallied on :attr:`corrupt_lines`.
        """
        self.corrupt_lines = 0
        records: List[RunRecord] = []
        if not self.path.exists():
            return records
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    records.append(RunRecord.from_dict(payload))
                except (json.JSONDecodeError, TypeError):
                    self.corrupt_lines += 1
        # Appends are chronological, so file order is the tiebreak for
        # identical timestamps (sorted() is stable).
        records.sort(key=lambda r: r.timestamp)
        return records


def record_run(
    manifest: Mapping,
    events: Sequence[Mapping] = (),
    trace_path: Optional[PathLike] = None,
    result_path: Optional[PathLike] = None,
    registry_dir: Optional[PathLike] = None,
    workers: int = 1,
    pool: Optional[Mapping] = None,
    artifacts: Optional[Mapping] = None,
) -> RunRecord:
    """One-call indexing: fold a finished run's artifacts into the registry.

    Extracts the final metrics snapshot, the per-stage span aggregate, and
    the memory-observatory block (ledger summary + coverage ratios) from
    ``events``, builds the record, and appends it to the registry at
    ``registry_dir``.
    """
    from .memory import memory_block
    from .report import aggregate_spans

    metrics = {}
    for event in events:
        if event.get("type") == "metrics":
            metrics = event.get("metrics") or {}
    record = build_record(
        manifest,
        metrics=metrics,
        stages=aggregate_spans(events),
        trace_path=trace_path,
        result_path=result_path,
        workers=workers,
        pool=pool,
        artifacts=artifacts,
        memory=memory_block(events, metrics),
    )
    RunRegistry(registry_dir).append(record)
    return record
