"""Run manifests and the run record that carries one beside each result.

A manifest pins everything needed to re-run the row: the exact config and
seed, the git commit of the code, and the platform (interpreter, OS,
numpy / scipy versions). Its ``datasets`` map is always empty; it stays
because config fingerprints hash it, so dropping it would re-address
every stored artifact. A manifest is deliberately free of timestamps and
hostnames so that two runs of the same code with the same seed produce
byte-identical manifests — determinism the test suite asserts.

The *config fingerprint* is the identity of a run's configuration: a
hash over the manifest fields that define **what** was measured
(experiment, config, seed, datasets, cache mode) and deliberately
**not** over the fields that define *which code* measured it (git SHA,
platform, library versions) or how it was executed (workers, shared
terms, resume). Runs of one configuration share a fingerprint, which is
what the artifact store addresses cells by and what the parallel, plan
and resume gates check across their runs.

A bench run leaves one *run record*, ``<stem>.run.json`` beside its
result file (or its trace): the manifest plus, when telemetry ran, a
``measured`` block of what the run itself observed (stage aggregates,
counters, the ``memory`` / ``pool`` / ``artifacts`` blocks). The record
lands whole or not at all (:func:`repro.runtime.files.land`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np
import scipy

PathLike = Union[str, Path]

#: Schema of a run record: ``{"schema", "manifest", "measured"}``.
RUN_SCHEMA = "repro.telemetry.run/v1"

#: Manifest keys that define a run's *configuration identity*. Everything
#: else (git SHA, platform, versions, argv, free-form metadata) varies
#: across commits/hosts and must not perturb the fingerprint.
FINGERPRINT_KEYS = ("experiment", "artifact", "config", "seed", "datasets",
                    "cache", "schema")


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


def simd_dispatch() -> str:
    """numpy's version and the SIMD targets its ufuncs dispatch to here,
    e.g. ``numpy-2.4.6:X86_V3,X86_V4,AVX512_ICL,AVX512_SPR``.

    float64 ufunc results depend on the kernel numpy picks at run time
    (``NPY_DISABLE_CPU_FEATURES`` or a host without AVX-512 picks
    another and rounds differently), so two hosts with one git SHA can
    still compute different bits. The BLAS kernel (OpenBLAS core type)
    is not covered.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    targets = [target for target in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(target)]
    return f"numpy-{np.__version__}:{','.join(targets)}"


def hardware_info(workers: int = 1) -> Dict[str, Union[int, str]]:
    """Host capacity snapshot: logical CPU count, total RAM in bytes,
    the spmm thread budget the run derives from the host — inline
    (``spmm_threads``) and in each of ``workers`` pool workers
    (``spmm_threads_per_worker``; :mod:`repro.runtime.blocked`) — and
    numpy's SIMD dispatch (``simd_dispatch``, :func:`simd_dispatch`).

    Makes run records from different machines comparable — a 2× stage
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
            "spmm_threads_per_worker": run.worker_threads(workers),
            "simd_dispatch": simd_dispatch()}
    try:
        info["total_ram_bytes"] = (int(os.sysconf("SC_PHYS_PAGES"))
                                   * int(os.sysconf("SC_PAGE_SIZE")))
    except (AttributeError, ValueError, OSError):
        pass  # non-POSIX or sysconf key missing
    return info


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
        "datasets": {},
    }
    if extra:
        manifest.update({str(k): _plain(v) for k, v in extra.items()})
    return manifest


def config_fingerprint(manifest: Mapping) -> str:
    """Deterministic 12-hex-digit identity of a run configuration.

    Hashes the :data:`FINGERPRINT_KEYS` subset of a run manifest, so runs
    of the same experiment/config/seed/datasets share a fingerprint across
    commits and platforms.
    """
    subset = {key: manifest.get(key) for key in FINGERPRINT_KEYS}
    text = json.dumps(subset, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def record_path_for(path: PathLike) -> Path:
    """``results/eff.json`` → ``results/eff.run.json``, the run record."""
    path = Path(path)
    return path.with_name(path.stem + ".run.json")


def write_run_record(path: PathLike, manifest: Mapping,
                     measured: Optional[Mapping] = None) -> Path:
    """Write a run's record as stable, sorted-key JSON; returns the path.

    ``measured`` is what the run observed beyond its manifest; it is
    left out for a run without telemetry. A killed writer leaves no
    torn record: the file is replaced whole.
    """
    from ..runtime.files import land

    record = {"schema": RUN_SCHEMA, "manifest": dict(manifest)}
    if measured is not None:
        record["measured"] = dict(measured)
    text = json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    land(path, lambda handle: handle.write(text.encode("utf-8")),
         exclusive=False)
    return path
