"""Process-pool grid executor for embarrassingly parallel sweeps.

Every (dataset, filter, scheme) cell of the paper's sweep grids is an
independent train/eval run, so the benchmark harness fans them out to
``multiprocessing`` workers. The executor is built around three
guarantees the benchmark methodology depends on:

- **Determinism** — a cell's randomness is a pure function of *what* the
  cell is, never of *where or when* it runs. Cells carry explicit seeds
  (or derive them via :func:`derive_cell_seed`, a stable hash of the root
  seed and the cell coordinates), results are assembled in cell-list
  order regardless of completion order, and telemetry shards are folded
  in that same order. ``workers=N`` therefore produces results
  bit-identical to ``workers=1``, which the ``bench-parallel`` CI job
  enforces on every PR.
- **Crash isolation** — each cell attempt runs in its own worker process.
  A raising, segfaulting, or hanging worker marks *its* cell failed
  (after a bounded number of retries) without aborting sibling cells; the
  sweep completes and reports partial results.
- **Telemetry fold-in** — each worker runs under its own tracer and
  :class:`~repro.telemetry.metrics.MetricsRegistry`; the shard (span
  events + metrics state) ships back through the result pipe and the
  parent merges it via :func:`repro.telemetry.fold_shard`, so op
  counters, gauges, and the trace file describe the whole sweep as
  one coherent run. Only the *successful* attempt of a cell contributes
  telemetry — a retried attempt's partial counters are discarded, which
  is what keeps merged totals equal to a serial run's. The worker's
  allocation-ledger summary (:mod:`repro.telemetry.memory`) rides the
  same shard as an ordinary ``{"type": "memory"}`` event: the worker's
  telemetry shutdown emits it, and the parent's ``fold_shard`` merges it
  into the parent ledger (allocation totals add; peaks take the max and
  adopt that shard's attribution) — so pooled alloc totals equal serial
  totals with no executor-level plumbing.

In-memory memos (each an :class:`~repro.runtime.cache.LRUCache`) are
per-process — a worker inherits (fork) or rebuilds (spawn) its own, and
a hit only ever substitutes a bit-identical value — while what crosses
processes travels as files (:mod:`repro.runtime.files`): the shared term
store and the cell artifact store.

With ``workers=1`` (the default) no subprocess machinery is involved at
all: cells run inline, in order, in the calling process — the exact
serial path, where a raising cell propagates like any other exception.

Resumable sweeps: when the run context carries a
:class:`repro.runtime.artifacts.SweepArtifacts` (``--resume``/``--fresh``
on the bench CLI), the executor
consults the content-addressed store *before* launching anything. Hits
come back as :data:`CACHED` results — value and persisted telemetry
shard decoded from disk, folded in grid order exactly like a live
cell's — and only misses execute; their successful results (never
``failed:*`` ones) persist on completion. Because cells are
deterministic, a cache-served sweep's canonical payload is byte-identical
to an uninterrupted one, which the ``bench-resume`` CI job enforces.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Terminal cell statuses.
OK = "ok"
CACHED = "cached"      # served from the artifact store; nothing executed
ERROR = "error"        # the cell function raised inside the worker
CRASHED = "crashed"    # the worker died without reporting (segfault, _exit)
TIMEOUT = "timeout"    # the attempt exceeded ``cell_timeout`` seconds

FAILURE_STATUSES = (ERROR, CRASHED, TIMEOUT)

#: Seeds stay within the range every numpy BitGenerator accepts.
_SEED_MODULUS = 2 ** 31 - 1


def derive_cell_seed(root_seed: int, *coordinates) -> int:
    """Deterministic per-cell seed: a pure function of root seed + cell.

    Hashes ``(root_seed, *coordinates)`` — e.g. ``(0, "cora", "ppr", 2)``
    for repeat 2 of the (cora, ppr) cell — with SHA-256 and folds the
    digest into ``[0, 2**31 - 1)``. The derivation never sees worker ids,
    scheduling order, or wall-clock time, so a cell draws the same seed
    whether the sweep runs serially, on 4 workers, or resumes after a
    retry; distinct coordinates get (with overwhelming probability)
    distinct seeds.
    """
    payload = json.dumps([int(root_seed), *[str(c) for c in coordinates]],
                         separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep grid.

    ``fn`` must be a module-level callable (picklable under the spawn
    start method) and fully self-contained: everything the cell needs —
    dataset name, filter, config, seed — travels in ``kwargs`` so the
    cell computes the same value in any process.
    """

    key: Tuple
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "/".join(str(part) for part in self.key)


@dataclass(frozen=True)
class PoolConfig:
    """Execution policy for :func:`execute_cells`.

    Parameters
    ----------
    workers:
        Process count (≥ 1). ``1`` (default) runs cells inline in the
        calling process — the exact serial path, no subprocesses.
    cell_timeout:
        Per-attempt wall-clock budget in seconds (> 0); an attempt past it
        is terminated and counts as a :data:`TIMEOUT` failure. ``None``
        disables the limit. Ignored in inline mode.
    max_retries:
        Additional attempts after a failed one (≥ 0), so a cell runs at
        most ``1 + max_retries`` times. Ignored in inline mode.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap, inherits loaded modules) and falls back to ``spawn``.
    poll_interval_s:
        Scheduler sleep between liveness sweeps when nothing completed.

    Out-of-range values raise :class:`~repro.errors.ReproError`.
    """

    workers: int = 1
    cell_timeout: Optional[float] = None
    max_retries: int = 1
    start_method: Optional[str] = None
    poll_interval_s: float = 0.02

    def __post_init__(self):
        from ..errors import ReproError

        if self.workers < 1:
            raise ReproError(f"--workers must be >= 1, got {self.workers}")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ReproError(f"--cell-timeout must be > 0 seconds, got "
                             f"{self.cell_timeout:g}")
        if self.max_retries < 0:
            raise ReproError(f"--max-retries must be >= 0, got "
                             f"{self.max_retries}")


@dataclass
class CellResult:
    """Outcome of one cell, in terminal state (succeeded or retries spent).

    A :data:`CACHED` result carries the persisted value and telemetry
    shard from the artifact store with ``attempts=0`` — nothing executed.
    """

    key: Tuple
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    seconds: float = 0.0
    worker_pid: Optional[int] = None
    events: List[Dict] = field(default_factory=list)
    metrics_state: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        """Whether the cell has a usable value (ran live or cache-served)."""
        return self.status in (OK, CACHED)

    @property
    def label(self) -> str:
        return "/".join(str(part) for part in self.key)


#: How many slowest cells :func:`pool_stats` ranks as stragglers.
STRAGGLER_TOP_N = 5


def pool_stats(results: Sequence[CellResult],
               top_n: int = STRAGGLER_TOP_N) -> Dict[str, Any]:
    """Retry/failure accounting over a finished sweep (registry ``pool``).

    Besides the flat counts, ``stragglers`` ranks the ``top_n`` slowest
    cells (label, status, attempts, seconds; slowest first, grid order on
    ties) — the cells that bound the sweep's wall clock and the first
    place to look when a parallel run stops scaling.

    ``ok`` counts live executions only; cells served from the artifact
    store count under ``cached`` (``ok + cached + failed == cells``).
    """
    stats: Dict[str, Any] = {
        "cells": len(results),
        "ok": sum(1 for r in results if r.status == OK),
        "cached": sum(1 for r in results if r.status == CACHED),
        "failed": sum(1 for r in results if not r.ok),
        "attempts": sum(r.attempts for r in results),
        "retries": sum(max(0, r.attempts - 1) for r in results),
        "timeouts": sum(1 for r in results if r.status == TIMEOUT),
    }
    slowest = sorted(results, key=lambda r: r.seconds, reverse=True)
    stats["stragglers"] = [
        {"cell": r.label, "status": r.status, "attempts": r.attempts,
         "seconds": round(r.seconds, 6)}
        for r in slowest[:max(0, int(top_n))]
    ]
    return stats


#: Stats of the most recent :func:`execute_cells` sweep in this process,
#: for callers (the bench CLI) that persist them after results are
#: consumed. ``per_cell`` holds one dict per cell in grid order.
_last_run_stats: Optional[Dict[str, Any]] = None


def last_run_stats() -> Optional[Dict[str, Any]]:
    """Full accounting of the most recent sweep: :func:`pool_stats`
    totals plus per-cell status/attempt/seconds detail (registry
    ``pool.stats``), or ``None`` before any sweep has run."""
    return _last_run_stats


def _record_run_stats(results: Sequence[CellResult]) -> None:
    global _last_run_stats
    stats: Dict[str, Any] = dict(pool_stats(results))
    stats["per_cell"] = [
        {"cell": result.label, "status": result.status,
         "attempts": result.attempts,
         "seconds": round(result.seconds, 6)}
        for result in results
    ]
    _last_run_stats = stats


# ======================================================================
# worker side
# ======================================================================
def _cell_entry(conn, cell: Cell, attempt: int, context) -> None:
    """Worker-process entry: run one cell, ship value + telemetry shard.

    The worker reconfigures telemetry from scratch (dropping any tracer
    state inherited through fork) so its shard contains exactly this
    cell's spans and counters. Failures are reported as data — the
    parent decides on retries; nothing propagates across the pipe as an
    exception. ``context`` is the parent's
    :class:`~repro.runtime.context.WorkerContext`: the run's switches
    (``--no-plan`` / ``--no-cache``, which a ``spawn`` worker would not
    otherwise see), the sweep's shared term-store client and whether the
    parent collects telemetry. It replaces whatever context ``fork``
    inherited.
    """
    import os

    from . import plan

    payload: Dict[str, Any] = {"pid": os.getpid()}
    try:
        # A fresh planner scope per attempt: chains never leak in via
        # fork, so a cell computes the same value under any start method.
        with context.install():
            if context.telemetry:
                from .. import telemetry

                telemetry.shutdown()  # discard fork-inherited tracer state
                tracer = telemetry.configure()
                with telemetry.span("cell", cell=cell.label), \
                        plan.plan_scope(fresh=True):
                    value = cell.fn(**cell.kwargs)
                metrics_state = tracer.metrics.to_state()
                events = telemetry.shutdown()
                payload.update(ok=True, value=value, events=events,
                               metrics=metrics_state)
            else:
                with plan.plan_scope(fresh=True):
                    payload.update(ok=True, value=cell.fn(**cell.kwargs))
    except BaseException as exc:  # noqa: BLE001 - crash isolation boundary
        payload = {"pid": payload.get("pid"), "ok": False,
                   "error": f"{type(exc).__name__}: {exc}"}
    try:
        conn.send(payload)
    except Exception:
        pass  # parent gone or payload unpicklable; parent sees a crash
    finally:
        conn.close()


# ======================================================================
# parent side
# ======================================================================
@dataclass
class _Attempt:
    proc: Any
    conn: Any
    attempt: int
    deadline: Optional[float]
    started: float


def _default_start_method() -> str:
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def execute_cells(cells: Sequence[Cell],
                  config: Optional[PoolConfig] = None) -> List[CellResult]:
    """Run a cell list under the given policy; results in cell-list order.

    ``workers=1`` executes inline (serial semantics: exceptions
    propagate); ``workers>1`` fans out to worker processes with timeout,
    bounded retry, and crash isolation, then folds each successful cell's
    telemetry shard into the active run in deterministic cell order.

    When the run context (:mod:`repro.runtime.context`) carries a
    :class:`~repro.runtime.artifacts.SweepArtifacts`, every cell's
    content address is consulted first: hits become
    :data:`CACHED` results (persisted value + telemetry shard, folded in
    grid order like any live cell's), and only misses execute — their
    successful results persisting back to the store.
    """
    from . import context

    config = config or PoolConfig()
    cells = list(cells)
    sweep = context.current().sweep
    cached: Dict[int, CellResult] = {}
    if sweep is not None:
        for index, cell in enumerate(cells):
            artifact = sweep.load(cell)
            if artifact is not None:
                cached[index] = CellResult(
                    key=cell.key, status=CACHED, value=artifact.value,
                    attempts=0, seconds=0.0,
                    events=list(artifact.events),
                    metrics_state=artifact.metrics_state)
    if config.workers <= 1:
        results = _run_inline_all(cells, cached, sweep)
    else:
        results = _run_pooled(cells, config, cached=cached, sweep=sweep)
    _record_run_stats(results)
    return results


def _run_inline_all(cells: Sequence[Cell], cached: Dict[int, CellResult],
                    sweep) -> List[CellResult]:
    """Inline (workers=1) sweep: cached cells fold, misses run serially.

    Folding happens in cell-list order here too — a cached cell's
    persisted shard and a live cell's captured shard interleave exactly
    as the grid reads.
    """
    from .. import telemetry

    results: List[CellResult] = []
    for index, cell in enumerate(cells):
        result = cached.get(index)
        if result is not None:
            telemetry.fold_shard(result.events, result.metrics_state,
                                 label=result.label)
            telemetry.inc_counter("pool.cells.cached")
            results.append(result)
            continue
        results.append(_run_inline(cell, sweep=sweep))
    return results


def _run_inline(cell: Cell, sweep=None) -> CellResult:
    from .. import telemetry

    # Capture this cell's spans/metrics in an isolated shard (mirroring
    # a worker's from-scratch tracer) so the artifact store can persist
    # it and fold-in is identical whether the cell ran live or cached.
    shard: Dict[str, Any] = {}
    started = time.perf_counter()
    with telemetry.shard_capture(shard), \
            telemetry.span("cell", cell=cell.label):
        value = cell.fn(**cell.kwargs)
    seconds = time.perf_counter() - started
    events = list(shard.get("events") or ())
    metrics_state = shard.get("metrics")
    telemetry.fold_shard(events, metrics_state, label=cell.label)
    telemetry.inc_counter("pool.cells.ok")
    if sweep is not None:
        sweep.save(cell, value, events, metrics_state)
    return CellResult(key=cell.key, status=OK, value=value, attempts=1,
                      seconds=seconds, events=events,
                      metrics_state=metrics_state)


def _run_pooled(cells: List[Cell], config: PoolConfig,
                cached: Optional[Dict[int, CellResult]] = None,
                sweep=None) -> List[CellResult]:
    import multiprocessing as mp

    from . import context
    from .. import telemetry

    ctx = mp.get_context(config.start_method or _default_start_method())
    # Switches, a store client (a path and a run id) and two scalars: it
    # pickles into a worker under any start method.
    worker = context.current().for_worker(config.workers)
    cached = cached or {}
    results: List[Optional[CellResult]] = [None] * len(cells)
    for index, result in cached.items():
        telemetry.inc_counter("pool.cells.cached")
        results[index] = result
    pending = deque((index, 1) for index in range(len(cells))
                    if index not in cached)
    active: Dict[int, _Attempt] = {}

    def retire(index: int, attempt: _Attempt) -> None:
        try:
            attempt.conn.close()
        except OSError:
            pass
        attempt.proc.join()
        del active[index]

    def fail_or_retry(index: int, attempt: _Attempt, status: str,
                      error: str) -> None:
        if attempt.attempt <= config.max_retries:
            telemetry.inc_counter("pool.cells.retried")
            pending.append((index, attempt.attempt + 1))
            return
        results[index] = CellResult(
            key=cells[index].key, status=status, error=error,
            attempts=attempt.attempt,
            seconds=time.monotonic() - attempt.started)
        telemetry.inc_counter("pool.cells.failed")
        telemetry.inc_counter(f"pool.cells.{status}")

    while pending or active:
        while pending and len(active) < config.workers:
            index, attempt_no = pending.popleft()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_cell_entry,
                args=(child_conn, cells[index], attempt_no, worker),
                daemon=True)
            proc.start()
            child_conn.close()
            now = time.monotonic()
            deadline = now + config.cell_timeout \
                if config.cell_timeout is not None else None
            active[index] = _Attempt(proc=proc, conn=parent_conn,
                                     attempt=attempt_no, deadline=deadline,
                                     started=now)

        progressed = False
        for index, attempt in list(active.items()):
            has_message = attempt.conn.poll(0)
            if not has_message and not attempt.proc.is_alive():
                # Exited between polls: grant a grace poll for a message
                # that was in flight when the process finished.
                has_message = attempt.conn.poll(0.2)
            if has_message:
                try:
                    payload = attempt.conn.recv()
                except (EOFError, OSError):
                    payload = None  # pipe sheared mid-message: a crash
                progressed = True
                if payload is not None and payload.get("ok"):
                    results[index] = CellResult(
                        key=cells[index].key, status=OK,
                        value=payload.get("value"),
                        attempts=attempt.attempt,
                        seconds=time.monotonic() - attempt.started,
                        worker_pid=payload.get("pid"),
                        events=list(payload.get("events") or ()),
                        metrics_state=payload.get("metrics"))
                    telemetry.inc_counter("pool.cells.ok")
                    if sweep is not None:
                        sweep.save(cells[index], results[index].value,
                                   results[index].events,
                                   results[index].metrics_state)
                    retire(index, attempt)
                elif payload is not None:
                    error = payload.get("error") or "cell raised"
                    retire(index, attempt)
                    fail_or_retry(index, attempt, ERROR, error)
                else:
                    exitcode = attempt.proc.exitcode
                    retire(index, attempt)
                    fail_or_retry(index, attempt, CRASHED,
                                  "worker sheared its result pipe "
                                  f"(exitcode {exitcode})")
            elif not attempt.proc.is_alive():
                exitcode = attempt.proc.exitcode
                progressed = True
                retire(index, attempt)
                fail_or_retry(index, attempt, CRASHED,
                              f"worker died without reporting "
                              f"(exitcode {exitcode})")
            elif attempt.deadline is not None \
                    and time.monotonic() > attempt.deadline:
                attempt.proc.terminate()
                progressed = True
                retire(index, attempt)
                fail_or_retry(index, attempt, TIMEOUT,
                              f"cell exceeded {config.cell_timeout:g}s "
                              f"timeout")
        if not progressed:
            time.sleep(config.poll_interval_s)

    # Fold telemetry shards in cell-list order — never completion order —
    # so the merged trace is schedule-independent.
    finished = [result for result in results if result is not None]
    for result in finished:
        if result.ok and (result.events or result.metrics_state):
            telemetry.fold_shard(result.events, result.metrics_state,
                                 label=result.label)
    return finished
