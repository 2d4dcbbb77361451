"""repro.runtime.context — the one owner of what is active for a run.

The paper's efficiency and memory numbers compare only when every run's
execution settings are fixed and recorded. Those settings are one frozen
:class:`RunConfig` — a field per execution flag of the bench CLI, checked
once by :meth:`RunConfig.validate` — and what a run builds from them is
one :class:`RunContext`:

- ``config`` — the switches the caches (``cache``) and the basis planner
  (``plan``) consult at serve time;
- ``planner`` — the :class:`~repro.runtime.plan.BasisPlanner` of the open
  :func:`~repro.runtime.plan.plan_scope`;
- ``store`` / ``handle`` — the shared term store a pooled sweep owns
  (parent side) and the client that serves from it (worker side);
- ``tier`` — the out-of-core blocked tier (``--blocked``);
- ``sweep`` — the resumable sweep's artifact view (``--resume``/``--fresh``);
- ``spmm_threads`` — how many threads one large CSR product may use
  (:func:`repro.runtime.blocked.spmm_csr`). It is derived, never set by a
  flag: every CPU the process may run on inline, an equal share of them
  in a pool worker (:meth:`RunContext.worker_threads`).

Exactly one context is current (:func:`current`, a plain module global;
outside any run it is the default one: caches and planner on, nothing
built). :meth:`RunConfig.open` builds a CLI run's context and tears it
down; :func:`using` runs a body under the current context with some
fields replaced (``using(cache=False)``, ``using(sweep=...)``); a pool
worker installs the :class:`WorkerContext` its parent shipped, so a
switch reaches ``spawn`` workers the way it reaches ``fork`` ones.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional,
                    Sequence)

from ..errors import ReproError
from .pool import PoolConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .artifacts import SweepArtifacts
    from .blocked import BlockedTier
    from .plan import BasisPlanner
    from .shm import SharedTermStore, StoreHandle

#: The experiments whose grids run through the process pool: the only
#: ones the pool, resume and shared-terms options apply to.
GRID_SWEEPS = ("efficiency", "effectiveness", "hops", "scale-shift")

#: ``RunConfig.shared_terms``: never share, share whenever a pooled sweep
#: can (the default), or share and fail when the store is unavailable.
SHARED_TERMS_MODES = ("off", "default", "required")


@dataclass(frozen=True)
class RunConfig:
    """A run's execution settings: one field per bench-CLI flag.

    ``plan``/``cache``/``telemetry`` are ``--no-plan``/``--no-cache``/
    ``--no-telemetry`` inverted, ``shared_terms`` is a
    :data:`SHARED_TERMS_MODES` value (``--no-shared-terms`` / default /
    ``--shared-terms``), ``ram_budget_mib`` is ``--ram-budget`` and
    ``pool`` carries ``--workers``, ``--cell-timeout`` and
    ``--max-retries``; every other field is the flag of the same name.
    """

    plan: bool = True
    cache: bool = True
    shared_terms: str = "default"
    blocked: bool = False
    ram_budget_mib: Optional[float] = None
    spill_dir: Optional[str] = None
    resume: bool = False
    fresh: bool = False
    artifact_dir: Optional[str] = None
    telemetry: bool = True
    trace: Optional[str] = None
    pool: PoolConfig = PoolConfig()

    @property
    def planning(self) -> bool:
        """Whether the planner serves: ``--no-cache`` implies ``--no-plan``."""
        return self.plan and self.cache

    @property
    def shares_terms(self) -> bool:
        """Whether the run builds a shared term store: a pooled sweep
        with sharing not off, the cache layer on, and a writable
        ``/dev/shm``."""
        from . import shm

        return (self.pool.workers > 1 and self.shared_terms != "off"
                and self.cache and shm.supported())

    def validate(self, experiment: str,
                 epochs: Optional[int] = None) -> "RunConfig":
        """Return ``self``, or raise :class:`~repro.errors.ReproError`
        naming the first rejected combination for ``experiment``
        (``epochs`` is the run's epoch override, if any)."""
        from . import artifacts, shm

        grid = experiment in GRID_SWEEPS
        sweeps = f"the grid sweeps only ({', '.join(GRID_SWEEPS)})"
        resume = self.resume or self.fresh
        store_dir = artifacts.default_artifact_dir(self.artifact_dir)
        pooled = self.pool.workers > 1
        required = self.shared_terms == "required"
        pool_requested = (self.pool.workers != 1
                          or self.pool.cell_timeout is not None
                          or self.pool.max_retries != 1)
        rules = (
            (self.shared_terms not in SHARED_TERMS_MODES,
             f"shared_terms must be one of {SHARED_TERMS_MODES}"),
            (self.trace is not None and not self.telemetry,
             "--trace requires telemetry; drop --no-telemetry"),
            (self.ram_budget_mib is not None and not self.blocked,
             "--ram-budget requires --blocked"),
            (self.spill_dir is not None and not self.blocked,
             "--spill-dir requires --blocked"),
            (self.ram_budget_mib is not None
             and not (math.isfinite(self.ram_budget_mib)
                      and self.ram_budget_mib > 0),
             f"--ram-budget must be a positive MiB count, "
             f"got {self.ram_budget_mib}"),
            (self.blocked and self.spill_dir is not None
             and _not_a_directory(self.spill_dir),
             f"--spill-dir {self.spill_dir} is not a directory"),
            (self.blocked and pooled,
             "--blocked is serial-only (the tier is process-local); "
             "drop --workers"),
            (pool_requested and not grid,
             f"--workers/--cell-timeout/--max-retries apply to {sweeps}"),
            (required and not grid, f"--shared-terms applies to {sweeps}"),
            (required and not pooled,
             "--shared-terms requires --workers > 1 (a serial sweep "
             "already shares chains in-process)"),
            (required and not self.cache,
             "--shared-terms conflicts with --no-cache (the store is part "
             "of the cache layer)"),
            (required and not shm.supported(),
             "--shared-terms requires a writable /dev/shm"),
            (self.resume and self.fresh,
             "--resume and --fresh are mutually exclusive"),
            (self.artifact_dir is not None and not resume,
             "--artifact-dir requires --resume or --fresh"),
            (resume and not self.telemetry,
             "--resume/--fresh require telemetry; drop --no-telemetry"),
            (resume and not grid, f"--resume/--fresh apply to {sweeps}"),
            (resume and _not_a_directory(store_dir),
             f"artifact store {store_dir} is not a directory"),
            (epochs is not None and epochs < 1,
             f"--epochs must be >= 1, got {epochs}"),
        )
        for rejected, message in rules:
            if rejected:
                raise ReproError(message)
        return self

    def manifest_extra(self, experiment: str, artifact: str,
                       argv: Sequence[str]) -> Dict[str, Any]:
        """The run manifest's ``extra`` block: what ran, and the settings
        it ran under (only ``cache`` enters the config fingerprint)."""
        return {"experiment": experiment, "artifact": artifact,
                "cache": self.cache, "argv": list(argv),
                "workers": self.pool.workers, "plan": self.planning,
                "shared_terms": self.shares_terms, "blocked": self.blocked,
                "ram_budget_mib": self.ram_budget_mib}

    @contextmanager
    def open(self, manifest: Optional[Mapping] = None
             ) -> Iterator["RunContext"]:
        """Build the run, make it the current context, tear it down.

        Builds the artifact sweep (whose cells are addressed by
        ``manifest``'s config fingerprint), the shared term store and the
        blocked tier that this config asks for. On exit, crash or not,
        the store is closed (stats snapshotted, directory removed), then
        the tier's spill files; each object stays on the yielded context
        for the run's report.
        The spmm thread budget is the enclosing context's.
        """
        from .. import telemetry
        from . import artifacts, blocked, cache, shm

        run = RunContext(config=self,
                         spmm_threads=current().spmm_threads)
        try:
            with ExitStack() as stack:
                if self.resume or self.fresh:
                    store = artifacts.ArtifactStore(self.artifact_dir)
                    if self.fresh:
                        print(f"artifacts: purged {store.purge()} stored "
                              f"cell(s) from {store.root}", file=sys.stderr)
                    run.sweep = artifacts.SweepArtifacts(
                        store=store,
                        config_fingerprint=telemetry.config_fingerprint(
                            manifest),
                        consult=not self.fresh)
                if self.shares_terms:
                    run.store = shm.SharedTermStore()
                    stack.callback(run.store.close)
                if self.blocked:
                    run.tier = blocked.BlockedTier(
                        ram_budget_bytes=(
                            int(self.ram_budget_mib * 2 ** 20)
                            if self.ram_budget_mib is not None else None),
                        spill_dir=self.spill_dir)
                if not self.cache:
                    from ..spectral.decomposition import clear_eig_cache

                    cache.clear_transpose_cache()
                    clear_eig_cache()
                yield stack.enter_context(_installed(run))
        finally:
            if run.tier is not None:
                run.tier.close()


def _not_a_directory(path: str) -> bool:
    """Whether no directory can be made at ``path``: it, or its nearest
    existing ancestor, is something other than a directory."""
    existing = Path(path).absolute()
    while not existing.exists():
        existing = existing.parent
    return not existing.is_dir()


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which a
    container's cpuset or ``taskset`` narrows below ``os.cpu_count()``."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


@dataclass
class RunContext:
    """What is active for one run: its config and what was built from it.

    ``None`` means "not part of this run" for every object field.
    """

    config: RunConfig = RunConfig()
    planner: Optional["BasisPlanner"] = None
    store: Optional["SharedTermStore"] = None
    handle: Optional["StoreHandle"] = None
    tier: Optional["BlockedTier"] = None
    sweep: Optional["SweepArtifacts"] = None
    spmm_threads: int = field(default_factory=available_cpus)

    @property
    def active_planner(self) -> Optional["BasisPlanner"]:
        """The serving planner; ``None`` outside a plan scope or when the
        planner is off (``--no-plan``, implied by ``--no-cache``)."""
        return self.planner if self.config.planning else None

    @property
    def active_handle(self) -> Optional["StoreHandle"]:
        """The serving shared-store client; ``None`` when sharing is off
        or the cache layer is (``--no-cache``)."""
        return self.handle if self.config.cache else None

    def worker_threads(self, workers: int) -> int:
        """Each of ``workers`` pool workers' share of :attr:`spmm_threads`,
        so that the pool's threads never outnumber the CPUs."""
        return max(1, self.spmm_threads // workers)

    def for_worker(self, workers: int) -> "WorkerContext":
        """What each of ``workers`` pool workers runs this context's cells
        under."""
        from .. import telemetry

        return WorkerContext(
            config=self.config,
            handle=None if self.store is None else self.store.worker_handle(),
            telemetry=telemetry.enabled(),
            spmm_threads=self.worker_threads(workers))


@dataclass(frozen=True)
class WorkerContext:
    """The picklable part of a run context that a pool worker runs under:
    the switches, a client of the sweep's shared store, whether the parent
    collects telemetry and the worker's spmm thread budget."""

    config: RunConfig
    handle: Optional["StoreHandle"] = None
    telemetry: bool = False
    spmm_threads: int = 1

    @contextmanager
    def install(self) -> Iterator[RunContext]:
        """Make this the current context — replacing whatever ``fork``
        inherited — and close the store client on exit, which reports its
        traffic to the store's owner."""
        try:
            with _installed(RunContext(config=self.config,
                                       handle=self.handle,
                                       spmm_threads=self.spmm_threads)
                            ) as run:
                yield run
        finally:
            if self.handle is not None:
                self.handle.close()


_current = RunContext()


def current() -> RunContext:
    """The context running code is under."""
    return _current


@contextmanager
def _installed(run: RunContext) -> Iterator[RunContext]:
    global _current
    previous, _current = _current, run
    try:
        yield run
    finally:
        _current = previous


_CONFIG_FIELDS = frozenset(field.name
                           for field in dataclasses.fields(RunConfig))


@contextmanager
def using(**changes: Any) -> Iterator[RunContext]:
    """Run the body under the current context with ``changes`` applied:
    :class:`RunConfig` field names (``cache=False``, ``plan=False``)
    change the config, the others (``tier=...``, ``sweep=None``) replace
    the context's objects. The previous context is restored on exit."""
    run = current()
    config = dataclasses.replace(
        run.config, **{key: value for key, value in changes.items()
                       if key in _CONFIG_FIELDS})
    objects = {key: value for key, value in changes.items()
               if key not in _CONFIG_FIELDS}
    with _installed(dataclasses.replace(run, config=config,
                                        **objects)) as installed:
        yield installed


__all__ = [
    "GRID_SWEEPS",
    "RunConfig",
    "RunContext",
    "SHARED_TERMS_MODES",
    "WorkerContext",
    "available_cpus",
    "current",
    "using",
]
