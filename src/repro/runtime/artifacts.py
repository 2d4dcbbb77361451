"""repro.runtime.artifacts — content-addressed cell results for resumable sweeps.

A killed 500-cell sweep used to restart from zero even though every cell
is deterministic: seeds derive from grid coordinates
(:func:`repro.runtime.pool.derive_cell_seed`) and runs are
config-fingerprinted (:mod:`repro.telemetry.registry`). This module adds
the missing piece — a small on-disk store keyed by a *content address*,
so a rerun serves completed cells from disk and executes only the
remainder.

**Content address.** Each cell's address is a SHA-256 over everything
that could change its result:

- the run's *config fingerprint* (experiment, config, seed, datasets,
  cache mode — :func:`repro.telemetry.registry.config_fingerprint`),
- the cell's *grid coordinates* (its ``Cell.key``),
- the cell's *derived seed(s)* (the ``seed``/``seeds`` kwargs),
- the *code-relevant rev* (git SHA, falling back to the package
  version — new code never trusts old bytes — plus numpy's SIMD
  dispatch, so a store filled on a host whose ufuncs round differently
  is not served here),
- a fingerprint of the cell's full kwargs and function identity
  (:func:`repro.runtime.cache.data_token`), which catches knobs like
  ``scale_override`` that travel in kwargs rather than the run config.

Any change to any component flips the address, which the staleness test
suite (``tests/test_runtime_artifacts.py``) holds as an invariant.

**Store layout and durability.** One ``<address>.json`` document per
cell — value, telemetry shard and metadata together — landed through the
file tier (:mod:`repro.runtime.files`), so it exists whole or not at all.
Torn or truncated files read as misses, mirroring the run registry's
crash discipline. A write the directory refuses (``ENOSPC``, ``EACCES``)
skips persisting that cell: the sweep completes, and the cell
re-executes on resume.

**Correctness contract.** The store is a *cache of deterministic
computations*: a hit substitutes bytes that a live execution would have
produced. Cell values round-trip through the same numpy-safe JSON
encoding as saved result files (:mod:`repro.bench.io`), so
``canonical_payload`` of a resumed sweep is byte-identical to an
uninterrupted one — CI-gated by ``bench-resume``. Each artifact also
carries the cell's telemetry shard (span events + metrics state), so a
cached cell folds into the parent run's registry record exactly like a
live one. Failed cells (``failed:*`` rows) are never persisted.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import telemetry
from .cache import data_token
from .files import ArrayFiles

PathLike = Union[str, Path]

#: Artifact payload schema; bumped on any incompatible layout change so a
#: new reader never misinterprets old bytes (a mismatch reads as a miss).
ARTIFACT_SCHEMA = "repro.runtime.artifacts/v1"

#: Environment variable overriding the default artifact-store directory.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Default store location, resolved relative to the working directory
#: (the repo root in every documented workflow).
DEFAULT_ARTIFACT_DIR = Path("benchmarks") / "results" / "artifacts"

#: A cell's file name: its 64-hex content address. Any other file in the
#: store directory (a scratch file, a stray ``*.json``) is not a cell,
#: and only a scratch file of a cell is the store's to purge.
_ADDRESS = re.compile(r"[0-9a-f]{64}")


def default_artifact_dir(override: Optional[PathLike] = None) -> Path:
    """Resolve the store directory: explicit > env var > repo default."""
    if override is not None:
        return Path(override)
    env = os.environ.get(ARTIFACT_DIR_ENV)
    if env:
        return Path(env)
    return DEFAULT_ARTIFACT_DIR


def default_code_rev() -> str:
    """The code-relevant revision baked into every content address.

    The current git SHA when available — any commit invalidates the
    store, the conservative end of the staleness trade-off — falling back
    to the package version outside a checkout, joined with numpy's SIMD
    dispatch (:func:`repro.telemetry.manifest.simd_dispatch`): float64
    ufunc bits differ between dispatch targets, so a host without
    AVX-512 never reads cells an AVX-512 host computed.
    """
    from .. import __version__
    from ..telemetry.manifest import git_sha, simd_dispatch

    sha = git_sha(Path(__file__).resolve().parent)
    return f"{sha or f'repro-{__version__}'}+{simd_dispatch()}"


def cell_address(config_fingerprint: str, coordinates: Sequence,
                 seed: Any, code_rev: str,
                 cell_token: Optional[str] = None) -> str:
    """SHA-256 content address of one grid cell's result (64 hex chars).

    A pure function of (config fingerprint, grid coordinates, derived
    cell seed, code rev, optional cell-kwargs token): flip any component
    and the address — hence the store key — changes.
    """
    payload = json.dumps(
        {
            "config": str(config_fingerprint),
            "coords": [str(part) for part in coordinates],
            "seed": data_token(seed),
            "rev": str(code_rev),
            "cell": cell_token,
        },
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CellArtifact:
    """One persisted cell result, decoded: value + telemetry shard."""

    address: str
    value: Any
    events: List[Dict] = field(default_factory=list)
    metrics_state: Optional[Dict] = None
    meta: Dict = field(default_factory=dict)


class ArtifactStore:
    """On-disk, content-addressed store of completed sweep cells.

    ``root`` is the store directory (created on first put); ``None``
    resolves through :func:`default_artifact_dir`. Its traffic is the
    run's telemetry counters (``artifacts.{hit,miss,store,torn}``), so
    the CLI line, registry records and traces show what the store did.
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.root = default_artifact_dir(root)
        self.files = ArrayFiles(self.root)

    def payload_path(self, address: str) -> Path:
        return self.root / f"{address}.json"

    def addresses(self) -> List[str]:
        """Sorted addresses of every stored cell."""
        return sorted(path.stem for path in self.root.glob("*.json")
                      if _ADDRESS.fullmatch(path.stem))

    def __len__(self) -> int:
        return len(self.addresses())

    def get(self, address: str) -> Optional[CellArtifact]:
        """Decode one artifact, or ``None`` on any miss.

        A miss is: no file, a torn/truncated file (crashed writer —
        counted as ``artifacts.torn`` and the broken file dropped so the
        rerun overwrites it cleanly), or a schema/address mismatch.
        """
        try:
            payload = self.files.get_json(address)
        except (ValueError, OSError):
            telemetry.inc_counter("artifacts.torn")
            payload = {}
        if not (isinstance(payload, dict)
                and payload.get("schema") == ARTIFACT_SCHEMA
                and payload.get("address") == address):
            if payload is not None:
                self.discard(address)
            self._count_miss()
            return None
        from ..bench.io import unjsonify  # lazy: bench imports runtime

        telemetry.inc_counter("artifacts.hit")
        return CellArtifact(
            address=address,
            value=unjsonify(payload.get("value")),
            events=[dict(event) for event in payload.get("events") or ()],
            metrics_state=payload.get("metrics"),
            meta=payload.get("meta") or {},
        )

    def _count_miss(self) -> None:
        telemetry.inc_counter("artifacts.miss")

    def put(self, address: str, value: Any,
            events: Optional[Sequence[Dict]] = None,
            metrics_state: Optional[Dict] = None,
            meta: Optional[Dict] = None) -> Path:
        """Persist one cell, replacing any earlier file; returns its path.

        Raises ``ReproError`` for a value the JSON encoding cannot take
        and ``OSError`` when the directory refuses the write.
        """
        from ..bench.io import jsonify  # lazy: bench imports runtime

        # Insertion order, not sort_keys: a cached row must decode with
        # the same key order a live execution produced, so downstream
        # tables and saved result files match a never-cached run exactly.
        payload = {
            "schema": ARTIFACT_SCHEMA,
            "address": address,
            "value": jsonify(value),
            "events": jsonify(list(events or ())),
            "metrics": jsonify(metrics_state) if metrics_state else None,
            "meta": dict(meta or {}),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.files.put_json(address, payload)
        telemetry.inc_counter("artifacts.store")
        return path

    def discard(self, address: str) -> None:
        """Drop one cell if present."""
        self.payload_path(address).unlink(missing_ok=True)

    def purge(self) -> int:
        """Drop every cell and the scratch files of crashed writes
        (``--fresh``); returns the count of cells dropped. Any other file
        in the directory is not the store's and stays."""
        dropped = len(self)
        self.files.purge(_ADDRESS.pattern + r"\.json")
        return dropped


@dataclass
class SweepArtifacts:
    """One sweep's view of the store: addressing + load/save of cells.

    Parameters
    ----------
    store:
        The underlying :class:`ArtifactStore`.
    config_fingerprint:
        The run's config fingerprint
        (:func:`repro.telemetry.registry.config_fingerprint`), computed
        *before* the sweep from the same manifest fields the registry
        hashes after it.
    consult:
        When ``False`` (``--fresh``), every cell executes live — loads
        are counted as misses without touching disk — while successful
        results still persist, repopulating the store.

    ``code_rev`` is the code's own revision (:func:`default_code_rev`).
    """

    store: ArtifactStore
    config_fingerprint: str
    code_rev: str = field(default_factory=default_code_rev, init=False)
    consult: bool = True

    def address_for(self, cell) -> str:
        """Content address of one :class:`repro.runtime.pool.Cell`."""
        kwargs = dict(cell.kwargs)
        seed = kwargs.get("seed", kwargs.get("seeds"))
        fn = cell.fn
        cell_token = data_token({
            "fn": f"{getattr(fn, '__module__', '?')}."
                  f"{getattr(fn, '__qualname__', repr(fn))}",
            "kwargs": kwargs,
        })
        return cell_address(self.config_fingerprint, cell.key, seed,
                            self.code_rev, cell_token)

    def load(self, cell) -> Optional[CellArtifact]:
        """The cell's persisted artifact, or ``None`` when it must run."""
        if not self.consult:
            self.store._count_miss()
            return None
        return self.store.get(self.address_for(cell))

    def save(self, cell, value: Any,
             events: Optional[Sequence[Dict]] = None,
             metrics_state: Optional[Dict] = None) -> Optional[Path]:
        """Persist one *successful* cell; returns the file's path.

        ``None`` (counted as ``artifacts.unstorable``) when the value
        cannot take the JSON round trip or the directory refuses the
        write: the sweep still completes, and the cell re-executes on
        resume.
        """
        from ..errors import ReproError

        address = self.address_for(cell)
        meta = {
            "config_fingerprint": self.config_fingerprint,
            "coordinates": [str(part) for part in cell.key],
            "code_rev": self.code_rev,
            "cell": cell.label,
        }
        try:
            return self.store.put(address, value, events=events,
                                  metrics_state=metrics_state, meta=meta)
        except (ReproError, OSError):
            telemetry.inc_counter("artifacts.unstorable")
            return None
