"""Execution-environment simulation: device memory, profiling, hardware,
the instrumented sparse-compute cache layer, the basis-term propagation
planner, the process-pool grid executor for parallel benchmark sweeps,
the content-addressed cell artifact store that makes sweeps resumable,
and the run context that owns what is active for a run."""

from .artifacts import (
    ARTIFACT_DIR_ENV,
    ARTIFACT_SCHEMA,
    DEFAULT_ARTIFACT_DIR,
    ArtifactStore,
    CellArtifact,
    SweepArtifacts,
    cell_address,
    default_artifact_dir,
    default_code_rev,
)
from .cache import (
    MISSING,
    NORM_MEMO_ENTRIES,
    TRANSPOSE_CACHE_ENTRIES,
    LRUCache,
    clear_transpose_cache,
    data_token,
    matrix_token,
    norm_memo,
    transpose_build_count,
    transpose_csr,
)
from .context import RunConfig, RunContext
from .device import GIBIBYTE, DeviceModel, nbytes_of
from .hardware import PROFILES, S1, S2, HardwareProfile
from .plan import (
    PLAN_CHAIN_ENTRIES,
    BasisPlanner,
    chain_bases,
    plan_scope,
)
from .pool import (
    Cell,
    CellResult,
    PoolConfig,
    derive_cell_seed,
    execute_cells,
    last_run_stats,
    pool_stats,
)
from .profiler import StageProfiler, StageStats
from .shm import (
    SharedTermStore,
    store_scope as shm_store_scope,
    supported as shm_supported,
    sweep_leaked_segments,
)

__all__ = [
    "DeviceModel",
    "nbytes_of",
    "GIBIBYTE",
    "StageProfiler",
    "StageStats",
    "HardwareProfile",
    "S1",
    "S2",
    "PROFILES",
    # cache layer
    "LRUCache",
    "MISSING",
    "NORM_MEMO_ENTRIES",
    "TRANSPOSE_CACHE_ENTRIES",
    "clear_transpose_cache",
    "data_token",
    "matrix_token",
    "norm_memo",
    "transpose_build_count",
    "transpose_csr",
    # basis-term planner
    "BasisPlanner",
    "PLAN_CHAIN_ENTRIES",
    "chain_bases",
    "plan_scope",
    # parallel sweep executor
    "Cell",
    "CellResult",
    "PoolConfig",
    "derive_cell_seed",
    "execute_cells",
    "last_run_stats",
    "pool_stats",
    # cross-process shared term store
    "SharedTermStore",
    "shm_supported",
    "shm_store_scope",
    "sweep_leaked_segments",
    # resumable-sweep artifact store
    "ARTIFACT_DIR_ENV",
    "ARTIFACT_SCHEMA",
    "DEFAULT_ARTIFACT_DIR",
    "ArtifactStore",
    "CellArtifact",
    "SweepArtifacts",
    "cell_address",
    "default_artifact_dir",
    "default_code_rev",
    # run context
    "RunConfig",
    "RunContext",
]
