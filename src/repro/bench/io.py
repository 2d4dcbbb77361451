"""Persisting experiment results: numpy-safe JSON round trips.

Benchmark sweeps are minutes long; this module lets the CLI and notebooks
save experiment rows and reload them for later comparison against the
paper (EXPERIMENTS.md workflow). The CLI writes each result file's run
record (``<name>.run.json``, :mod:`repro.telemetry.manifest`) beside it,
so any saved table row can be traced back to the exact code and
configuration that produced it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

import numpy as np

from ..errors import ReproError

PathLike = Union[str, Path]


def jsonify(value):
    """Numpy-safe JSON encoding of a result value.

    Numpy scalars widen to Python numbers, arrays become tagged
    ``{"__ndarray__": ..., "dtype": ...}`` dicts, tuples become lists.
    This is the one encoding shared by saved result files, JSONL traces,
    and the artifact store (:mod:`repro.runtime.artifacts`) — a value
    that survives :func:`jsonify` → JSON → :func:`unjsonify` compares
    byte-identical under :func:`canonical_payload`, which is the
    resumable-sweep correctness contract. Raises
    :class:`~repro.errors.ReproError` for unserializable types.
    """
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ReproError(f"cannot serialize value of type {type(value).__name__}")


def unjsonify(value):
    """Inverse of :func:`jsonify`: rebuild tagged ndarrays, recurse dicts."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {k: unjsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [unjsonify(v) for v in value]
    return value


def save_rows(rows: Sequence[Mapping], path: PathLike,
              metadata: Mapping | None = None) -> None:
    """Write experiment rows (plus optional metadata) as JSON."""
    payload = {
        "metadata": jsonify(dict(metadata or {})),
        "rows": [jsonify(dict(row)) for row in rows],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_rows(path: PathLike) -> List[Dict]:
    """Read rows written by :func:`save_rows`."""
    payload = json.loads(Path(path).read_text())
    if "rows" not in payload:
        raise ReproError(f"{path} is not a saved experiment file")
    return [unjsonify(row) for row in payload["rows"]]


#: Row keys that measure *this execution* rather than the configuration:
#: wall-clock timings (``*_s``, ``*_s_per_epoch``, ``*seconds*``), host
#: RSS peaks (``ram_bytes`` — :func:`resource.getrusage` is process- and
#: scheduling-dependent), file paths, and timestamps. Everything else in
#: a result row — scores, statuses, graph sizes, modeled device bytes,
#: FLOP counts — is a deterministic function of the configuration and
#: must be identical across worker counts.
_NONDETERMINISTIC_KEY_RE = re.compile(
    r"(_s$|_s_per_epoch$|seconds|_path$|^ram_bytes$|^timestamp)")

#: Telemetry counters that are invariant to caching and scheduling: the
#: engine op counters (every matmul/spmm/elementwise the model executes)
#: plus the pool's completed-cell count. Cache-traffic counters
#: (``cache.*``, ``ops.spmm.transpose_*``, ``ops.eig.*``, ``plan.*``) are
#: excluded — per-process memos legitimately hit/miss differently between
#: serial and parallel execution without perturbing a single result bit.
#: Note ``ops.spmm.calls`` is schedule-invariant only at a fixed planner
#: sharing topology: the basis planner (:mod:`repro.runtime.plan`) shares
#: chains *across* cells in a serial sweep but per-worker in a pool, so
#: the serial≡parallel gate holds it to a *ratio* against the serial
#: count (pooled ≤ 1.25× serial with the shared term store,
#: :mod:`repro.runtime.shm`, closing the cross-worker gap) instead of
#: exact equality — see ``benchmarks/bench_parallel_smoke.py``.
_DETERMINISTIC_COUNTER_RE = re.compile(
    r"^(ops\.(matmul|spmm|ewise)\.(calls|flops|bytes)|pool\.cells\.ok)$")


def canonical_rows(rows: Sequence[Mapping]) -> List[Dict]:
    """Strip execution-dependent fields, keeping the deterministic payload.

    The serial≡parallel gate (``bench-parallel`` CI job) compares sweeps
    run with different ``--workers`` after this normalization: two runs
    of one configuration must agree byte-for-byte on everything left.
    """
    return [
        {key: jsonify(value) for key, value in row.items()
         if not _NONDETERMINISTIC_KEY_RE.search(key)}
        for row in rows
    ]


def canonical_payload(rows: Sequence[Mapping]) -> bytes:
    """Stable bytes of :func:`canonical_rows` (sorted keys, no whitespace)."""
    return json.dumps(canonical_rows(rows), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def deterministic_counters(counters: Mapping) -> Dict[str, float]:
    """The schedule-invariant subset of a run's telemetry counters.

    Serial and parallel runs of one configuration must agree exactly on
    these (op calls/FLOPs/bytes); see :data:`_DETERMINISTIC_COUNTER_RE`
    for why cache-traffic counters are not held to that standard.
    """
    return {name: value for name, value in sorted(counters.items())
            if _DETERMINISTIC_COUNTER_RE.match(name)}
