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
- **Crash isolation** — cell attempts run in worker processes, each
  worker running cell after cell. A raising, segfaulting, or hanging
  attempt marks *its* cell failed (after a bounded number of retries)
  without aborting sibling cells, and its worker is retired: no later
  cell runs in a process a failure may have left in a bad state. The
  sweep completes and reports partial results; no worker outlives it.
- **Telemetry fold-in** — each cell runs in a telemetry session of its
  own, inline or in a worker; the shard (span events + metrics
  snapshot) ships back through the result pipe and the
  parent merges it via :func:`repro.telemetry.fold_shard`, so op
  counters, gauges, and the trace file describe the whole sweep as
  one coherent run. Only the *successful* attempt of a cell contributes
  telemetry — a retried attempt's partial counters are discarded, which
  is what keeps merged totals equal to a serial run's. The worker's
  allocation-ledger summary (:mod:`repro.telemetry.memory`) rides the
  same shard as an ordinary ``{"type": "memory"}`` event: closing the
  cell's session emits it, and the parent's ``fold_shard`` merges it
  into the parent ledger (allocation totals add; peaks take the max and
  adopt that shard's attribution) — so pooled alloc totals equal serial
  totals with no executor-level plumbing.

In-memory memos (each an :class:`~repro.runtime.cache.LRUCache`) are
per-process — a worker inherits (fork) or rebuilds (spawn) its own and
keeps it across its cells, and a hit only ever substitutes a
bit-identical value — while what crosses
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

import contextlib
import hashlib
import json
import os
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
        Per-attempt wall-clock budget in seconds (> 0); the worker of an
        attempt past it is terminated, and the attempt counts as a
        :data:`TIMEOUT` failure. ``None``
        disables the limit. Ignored in inline mode.
    max_retries:
        Additional attempts after a failed one (≥ 0), so a cell runs at
        most ``1 + max_retries`` times. Ignored in inline mode.

    Workers start with ``fork`` (cheap, inherits loaded modules) where the
    host has it, else with ``spawn``.

    Out-of-range values raise :class:`~repro.errors.ReproError`.
    """

    workers: int = 1
    cell_timeout: Optional[float] = None
    max_retries: int = 1

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


def pool_stats(results: Sequence[CellResult]) -> Dict[str, Any]:
    """Retry/failure accounting over a finished sweep (run record ``pool``).

    Besides the flat counts, ``stragglers`` ranks the
    :data:`STRAGGLER_TOP_N` slowest
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
        for r in slowest[:STRAGGLER_TOP_N]
    ]
    return stats


#: Stats of the most recent :func:`execute_cells` sweep in this process,
#: for callers (the bench CLI) that persist them after results are
#: consumed. ``per_cell`` holds one dict per cell in grid order.
_last_run_stats: Optional[Dict[str, Any]] = None


def last_run_stats() -> Optional[Dict[str, Any]]:
    """Full accounting of the most recent sweep: :func:`pool_stats`
    totals plus per-cell status/attempt/seconds detail (run record
    ``pool.stats``), or ``None`` before any sweep has run."""
    return _last_run_stats


def _set_last_run_stats(results: Sequence[CellResult]) -> None:
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
#: How often an idle worker checks that the process that started it is
#: still there; an orphaned worker (its parent SIGKILLed) then exits.
ORPHAN_CHECK_S = 1.0


def _worker_loop(conn) -> None:
    """Worker-process entry: run the cells the parent sends, one after
    another, until it sends ``None`` or goes away.

    Each message is ``(cell, context)`` and each gets one reply, the
    payload of :func:`_run_cell`. What is per-process — the graph memo,
    the normalisation and transpose caches, the heap — carries over from
    cell to cell; a hit there only ever substitutes a bit-identical value.
    A failed attempt is the worker's last: it replies, then exits, so no
    later cell runs in a process a failure may have left in a bad state.
    An idle worker whose parent has died exits too — under ``fork`` its
    siblings hold copies of its pipe, so it would never see EOF.
    """
    parent = os.getppid()
    try:
        while True:
            while not conn.poll(ORPHAN_CHECK_S):
                if os.getppid() != parent:
                    return
            job = conn.recv()
            if job is None:
                return
            payload = _run_cell(*job)
            payload["pid"] = os.getpid()
            conn.send(payload)
            if not payload["ok"]:
                return
    except (EOFError, OSError):
        pass  # parent gone
    except Exception:
        pass  # a job or reply that does not pickle; the parent sees a crash
    finally:
        conn.close()


def _run_cell(cell: Cell, context) -> Dict[str, Any]:
    """Run one cell attempt in a worker and return its reply payload.

    When the parent collects telemetry, the cell runs in a session of its
    own, so its shard holds exactly this cell's spans and counters, in the
    shape an inline cell's :func:`repro.telemetry.shard_capture` gives.
    Failures are reported as data — the parent decides on retries;
    nothing propagates across the pipe as an exception. ``context`` is
    the parent's :class:`~repro.runtime.context.WorkerContext`: the run's
    switches (``--no-plan`` / ``--no-cache``, which a ``spawn`` worker
    would not otherwise see), the sweep's shared term-store client and
    whether the parent collects telemetry. It replaces whatever context
    the worker held before.
    """
    from . import plan

    try:
        # A fresh planner scope per attempt: chains never leak in from an
        # earlier cell or via fork, so a cell computes the same value in
        # any worker under any start method.
        with context.install():
            if context.telemetry:
                from .. import telemetry

                telemetry._open()
                try:
                    with telemetry.span("cell", cell=cell.label), \
                            plan.plan_scope(fresh=True):
                        value = cell.fn(**cell.kwargs)
                finally:
                    shard = telemetry._close()
                return {"ok": True, "value": value, **shard}
            with plan.plan_scope(fresh=True):
                return {"ok": True, "value": cell.fn(**cell.kwargs)}
    except BaseException as exc:  # noqa: BLE001 - crash isolation boundary
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ======================================================================
# parent side
# ======================================================================
@dataclass
class _Worker:
    """One worker process of a sweep, and the attempt it is running
    (``index`` is ``None`` while it is idle)."""

    proc: Any
    conn: Any
    index: Optional[int] = None
    attempt: int = 0
    deadline: Optional[float] = None
    started: float = 0.0


#: How long a worker told to stop gets to exit before it is terminated.
STOP_GRACE_S = 5.0


def _stop(workers: Sequence[_Worker]) -> None:
    """End workers and reap them: an idle one is asked to exit, a busy
    one is terminated; all are told before any is waited for."""
    for worker in workers:
        if worker.index is None:
            with contextlib.suppress(OSError):
                worker.conn.send(None)
        else:
            worker.proc.terminate()
        worker.conn.close()
    for worker in workers:
        worker.proc.join(STOP_GRACE_S)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join()


def _default_start_method() -> str:
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def execute_cells(cells: Sequence[Cell],
                  config: Optional[PoolConfig] = None,
                  reads: Optional[Callable[[Cell], Tuple]] = None
                  ) -> List[CellResult]:
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

    ``reads(cell)`` gives a cell's label and the basis chains it reads
    (see :func:`repro.runtime.plan.read_schedule`). With it, an inline
    sweep under an active planner releases each chain after the last
    live cell that reads it; pooled workers open a fresh planner per
    cell and never call it.
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
        results = _run_inline_all(cells, cached, sweep, reads)
    else:
        results = _run_pooled(cells, config, cached=cached, sweep=sweep)
    _set_last_run_stats(results)
    return results


def _run_inline_all(cells: Sequence[Cell], cached: Dict[int, CellResult],
                    sweep, reads: Optional[Callable[[Cell], Tuple]]
                    ) -> List[CellResult]:
    """Inline (workers=1) sweep: cached cells fold, misses run serially.

    Folding happens in cell-list order here too — a cached cell's
    persisted shard and a live cell's captured shard interleave exactly
    as the grid reads. Given ``reads`` and an active planner, each live
    cell runs under :meth:`~repro.runtime.plan.BasisPlanner.reading`,
    which releases the chains no later live cell reads; a cached cell
    reads nothing.
    """
    from .. import telemetry
    from . import context, plan

    planner = context.current().active_planner
    schedule: Dict[int, Tuple] = {}
    if planner is not None and reads is not None:
        live = [index for index in range(len(cells)) if index not in cached]
        schedule = dict(zip(live, plan.read_schedule(
            [reads(cells[index]) for index in live])))
    results: List[CellResult] = []
    for index, cell in enumerate(cells):
        result = cached.get(index)
        if result is not None:
            telemetry.fold_shard(result.events, result.metrics_state,
                                 label=result.label)
            telemetry.inc_counter("pool.cells.cached")
            results.append(result)
            continue
        with planner.reading(*schedule[index]) if index in schedule \
                else contextlib.nullcontext():
            results.append(_run_inline(cell, sweep=sweep))
    return results


def _run_inline(cell: Cell, sweep=None) -> CellResult:
    from .. import telemetry

    # Capture this cell's spans/metrics in a session of its own (as a
    # worker does) so the artifact store can persist the shard and
    # fold-in is identical whether the cell ran live or cached.
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
    """Run the uncached cells on ``config.workers`` long-lived workers.

    The parent sleeps in :func:`multiprocessing.connection.wait` on the
    busy workers' pipes and sentinels, until a reply, a death or the
    nearest cell deadline. Every worker is reaped before this returns or
    raises.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    from . import context
    from .. import telemetry

    ctx = mp.get_context(_default_start_method())
    # Switches, a store client (a path and a run id) and two scalars: it
    # pickles into a worker under any start method, once per cell.
    worker_context = context.current().for_worker(config.workers)
    cached = cached or {}
    results: List[Optional[CellResult]] = [None] * len(cells)
    for index, result in cached.items():
        telemetry.inc_counter("pool.cells.cached")
        results[index] = result
    pending = deque((index, 1) for index in range(len(cells))
                    if index not in cached)
    workers: List[_Worker] = []

    def dispatch(worker: _Worker) -> None:
        index, attempt = pending.popleft()
        now = time.monotonic()
        worker.index, worker.attempt, worker.started = index, attempt, now
        worker.deadline = now + config.cell_timeout \
            if config.cell_timeout is not None else None
        with contextlib.suppress(OSError):
            # A worker killed from outside while idle: its sentinel
            # reports the death as this attempt's crash.
            worker.conn.send((cells[index], worker_context))

    def start() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_loop, args=(child_conn,),
                           daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=parent_conn)
        workers.append(worker)
        return worker

    def succeed(worker: _Worker, payload: Dict[str, Any]) -> None:
        index = worker.index
        worker.index = None
        results[index] = CellResult(
            key=cells[index].key, status=OK, value=payload.get("value"),
            attempts=worker.attempt,
            seconds=time.monotonic() - worker.started,
            worker_pid=payload.get("pid"),
            events=list(payload.get("events") or ()),
            metrics_state=payload.get("metrics"))
        telemetry.inc_counter("pool.cells.ok")
        if sweep is not None:
            sweep.save(cells[index], results[index].value,
                       results[index].events, results[index].metrics_state)

    def fail(worker: _Worker, status: str, error: Optional[str]) -> None:
        index, attempt = worker.index, worker.attempt
        seconds = time.monotonic() - worker.started
        # Retire the worker before another cell can run in it: one that
        # replied or died exits by itself, a hung one is terminated.
        if status != TIMEOUT:
            worker.index = None
        workers.remove(worker)
        _stop([worker])
        if error is None:
            error = (f"worker died without reporting "
                     f"(exitcode {worker.proc.exitcode})")
        if attempt <= config.max_retries:
            telemetry.inc_counter("pool.cells.retried")
            pending.append((index, attempt + 1))
            return
        results[index] = CellResult(key=cells[index].key, status=status,
                                    error=error, attempts=attempt,
                                    seconds=seconds)
        telemetry.inc_counter("pool.cells.failed")
        telemetry.inc_counter(f"pool.cells.{status}")

    try:
        while True:
            for worker in workers:
                if worker.index is None and pending:
                    dispatch(worker)
            while pending and len(workers) < config.workers:
                dispatch(start())
            busy = [worker for worker in workers if worker.index is not None]
            if not busy:
                break
            deadlines = [worker.deadline for worker in busy
                         if worker.deadline is not None]
            timeout = max(0.0, min(deadlines) - time.monotonic()) \
                if deadlines else None
            ready = wait([worker.conn for worker in busy]
                         + [worker.proc.sentinel for worker in busy], timeout)
            for worker in busy:
                if worker.conn in ready or worker.proc.sentinel in ready:
                    # A dead worker's pipe reads as EOF once drained.
                    try:
                        payload = worker.conn.recv() \
                            if worker.conn.poll() else None
                    except (EOFError, OSError):
                        payload = None  # pipe sheared mid-message: a crash
                    if payload is None:
                        fail(worker, CRASHED, None)
                    elif payload["ok"]:
                        succeed(worker, payload)
                    else:
                        fail(worker, ERROR, payload["error"])
                elif worker.deadline is not None \
                        and time.monotonic() > worker.deadline:
                    fail(worker, TIMEOUT, f"cell exceeded "
                                          f"{config.cell_timeout:g}s timeout")
    finally:
        _stop(workers)

    # Fold telemetry shards in cell-list order — never completion order —
    # so the merged trace is schedule-independent.
    finished = [result for result in results if result is not None]
    for result in finished:
        if result.ok and (result.events or result.metrics_state):
            telemetry.fold_shard(result.events, result.metrics_state,
                                 label=result.label)
    return finished
