"""Run manifests: the reproducibility record next to every result file.

A manifest pins everything needed to re-run the row: the exact config and
seed, the git commit of the code, the platform (interpreter, OS, numpy /
scipy versions), and content fingerprints of the datasets consumed. It is
deliberately free of timestamps and hostnames so that two runs of the same
code with the same seed produce byte-identical manifests — determinism the
test suite asserts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np
import scipy

PathLike = Union[str, Path]

MANIFEST_SUFFIX = ".manifest.json"


def git_sha(cwd: Optional[PathLike] = None) -> Optional[str]:
    """Current git commit hash, or ``None`` outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def platform_info() -> Dict[str, str]:
    """Interpreter / OS / core-dependency versions (no hostnames)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os": platform.system(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def hardware_info(workers: int = 1) -> Dict[str, int]:
    """Host capacity snapshot: logical CPU count, total RAM in bytes and
    the spmm thread budget the run derives from the host — inline
    (``spmm_threads``) and in each of ``workers`` pool workers
    (``spmm_threads_per_worker``; :mod:`repro.runtime.blocked`).

    Makes registry diffs across machines interpretable — a 2× stage
    slowdown means something different on a 4-core laptop than on the
    64-core bench host. Stable on one machine (so manifests stay
    deterministic there) and deliberately excluded from the config
    fingerprint, like the rest of the platform block. Unknown values
    report 0 rather than failing the manifest build.
    """
    from ..runtime import context

    run = context.current()
    info = {"cpu_count": os.cpu_count() or 0, "total_ram_bytes": 0,
            "spmm_threads": run.spmm_threads,
            "spmm_threads_per_worker": run.worker_threads(workers)}
    try:
        info["total_ram_bytes"] = (int(os.sysconf("SC_PHYS_PAGES"))
                                   * int(os.sysconf("SC_PAGE_SIZE")))
    except (AttributeError, ValueError, OSError):
        pass  # non-POSIX or sysconf key missing
    return info


def dataset_fingerprint(graph) -> str:
    """Content hash of a :class:`~repro.graph.graph.Graph` (sha256, hex).

    Covers topology (CSR index arrays + values), features, and labels, so
    any change to the synthesized data — scale, seed, generator — changes
    the fingerprint.
    """
    digest = hashlib.sha256()
    adjacency = graph.adjacency.tocsr()
    digest.update(np.ascontiguousarray(adjacency.indptr).tobytes())
    digest.update(np.ascontiguousarray(adjacency.indices).tobytes())
    digest.update(np.ascontiguousarray(adjacency.data).tobytes())
    for array in (graph.features, graph.labels):
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _plain(value):
    """Reduce configs to JSON-stable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def build_manifest(
    config: Optional[object] = None,
    seed: Optional[int] = None,
    datasets: Optional[Mapping[str, str]] = None,
    extra: Optional[Mapping] = None,
    workers: int = 1,
) -> Dict:
    """Assemble the deterministic manifest dict.

    Parameters
    ----------
    config:
        Any mapping or dataclass (e.g. :class:`repro.training.TrainConfig`).
    seed:
        The run's master seed, surfaced at top level for grepability.
    datasets:
        ``name -> fingerprint`` map from :func:`dataset_fingerprint`.
    extra:
        Free-form additions (experiment name, CLI argv, artifact label).
    workers:
        The run's pool workers, for the hardware block's per-worker
        thread budget.
    """
    from .. import __version__

    manifest: Dict = {
        "schema": "repro.telemetry.manifest/v1",
        "repro_version": __version__,
        "git_sha": git_sha(Path(__file__).resolve().parent),
        "platform": platform_info(),
        "hardware": hardware_info(workers),
        "seed": None if seed is None else int(seed),
        "config": _plain(config) if config is not None else None,
        "datasets": dict(sorted((datasets or {}).items())),
    }
    if extra:
        manifest.update({str(k): _plain(v) for k, v in extra.items()})
    return manifest


def manifest_path_for(result_path: PathLike) -> Path:
    """``results/eff.json`` → ``results/eff.manifest.json`` sidecar path."""
    path = Path(result_path)
    return path.with_name(path.stem + MANIFEST_SUFFIX)


def write_manifest(path: PathLike, manifest: Mapping) -> Path:
    """Write a manifest dict as stable, sorted-key JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path: PathLike) -> Dict:
    """Load a manifest written by :func:`write_manifest`."""
    return json.loads(Path(path).read_text())
