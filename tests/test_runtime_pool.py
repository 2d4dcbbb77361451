"""Process-pool grid executor (:mod:`repro.runtime.pool`) tests.

Covers the three guarantees the parallel sweeps depend on: deterministic
per-cell seeding and grid-order assembly (serial ≡ parallel), crash/
timeout isolation with bounded retries (one bad cell never aborts its
siblings), and telemetry shard fold-in (merged counters, histograms, and
spans match a serial run of the same cells).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.runtime.context import using
from repro.runtime.pool import (
    CACHED,
    CRASHED,
    ERROR,
    OK,
    STRAGGLER_TOP_N,
    TIMEOUT,
    Cell,
    CellResult,
    PoolConfig,
    derive_cell_seed,
    execute_cells,
    last_run_stats,
    pool_stats,
)


# --- module-level cell functions: picklable under any start method ------

def _square(x, seed=0):
    return {"x": x, "seed": seed, "value": x * x}


def _staggered_square(x, delay):
    time.sleep(delay)
    return x * x


def _raise(msg):
    raise ValueError(msg)


def _hard_exit(code):
    os._exit(code)  # no exception, no result message: a genuine crash


def _sleep(seconds):
    time.sleep(seconds)
    return "done"


def _fail_first(marker, value):
    path = Path(marker)
    if not path.exists():
        path.write_text("seen")
        raise RuntimeError("transient failure")
    return value


def _ops_cell(amount):
    with telemetry.span("work", amount=amount):
        telemetry.inc_counter("ops.matmul.calls", amount)
        telemetry.inc_counter("ops.matmul.flops", 100.0 * amount)
        telemetry.observe("epoch.loss", float(amount))
    return amount


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.shutdown()
    yield
    telemetry.shutdown()


def make_cells(count, fn=_square, **extra):
    return [Cell(key=("cell", i), fn=fn, kwargs={"x": i, **extra})
            for i in range(count)]


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

class TestDeriveCellSeed:
    def test_pure_function_of_inputs(self):
        assert derive_cell_seed(0, "cora", "ppr", 2) \
            == derive_cell_seed(0, "cora", "ppr", 2)

    def test_in_bitgenerator_range(self):
        for repeat in range(50):
            seed = derive_cell_seed(7, "cora", "ppr", repeat)
            assert 0 <= seed < 2 ** 31 - 1

    def test_distinct_coordinates_distinct_seeds(self):
        seeds = {derive_cell_seed(0, dataset, flt, repeat)
                 for dataset in ("cora", "citeseer", "pubmed")
                 for flt in ("ppr", "chebyshev")
                 for repeat in range(5)}
        assert len(seeds) == 3 * 2 * 5

    def test_root_seed_and_order_matter(self):
        assert derive_cell_seed(0, "cora", "ppr") \
            != derive_cell_seed(1, "cora", "ppr")
        assert derive_cell_seed(0, "cora", "ppr") \
            != derive_cell_seed(0, "ppr", "cora")


# ---------------------------------------------------------------------------
# inline mode (workers=1): the exact serial path
# ---------------------------------------------------------------------------

class TestInline:
    def test_results_in_cell_order(self):
        results = execute_cells(make_cells(4), PoolConfig(workers=1))
        assert [r.key for r in results] == [("cell", i) for i in range(4)]
        assert all(r.status == OK and r.attempts == 1 for r in results)
        assert [r.value["value"] for r in results] == [0, 1, 4, 9]
        assert all(r.worker_pid is None for r in results)

    def test_exceptions_propagate(self):
        cells = [Cell(key=("bad",), fn=_raise, kwargs={"msg": "inline boom"})]
        with pytest.raises(ValueError, match="inline boom"):
            execute_cells(cells, PoolConfig(workers=1))


# ---------------------------------------------------------------------------
# pooled mode: ordering, isolation, retries
# ---------------------------------------------------------------------------

class TestPooled:
    def test_grid_order_independent_of_completion_order(self):
        # The first cell is the slowest: it *completes* last but must
        # still come back first.
        delays = [0.25, 0.0, 0.0, 0.0]
        cells = [Cell(key=("cell", i), fn=_staggered_square,
                      kwargs={"x": i, "delay": delays[i]})
                 for i in range(4)]
        results = execute_cells(cells, PoolConfig(workers=4))
        assert [r.key for r in results] == [("cell", i) for i in range(4)]
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert all(r.status == OK for r in results)
        assert any(r.worker_pid not in (None, os.getpid()) for r in results)

    def test_raising_cell_is_isolated_and_retry_bounded(self):
        cells = make_cells(3)
        cells[1] = Cell(key=("cell", 1), fn=_raise, kwargs={"msg": "boom"})
        results = execute_cells(cells, PoolConfig(workers=2, max_retries=2))

        assert [r.key for r in results] == [("cell", i) for i in range(3)]
        failed = results[1]
        assert failed.status == ERROR
        assert failed.attempts == 3          # 1 original + 2 retries
        assert "ValueError: boom" in failed.error
        assert results[0].ok and results[2].ok, \
            "a raising cell must not abort its siblings"

        stats = pool_stats(results)
        stragglers = stats.pop("stragglers")
        assert stats == {"cells": 3, "ok": 2, "cached": 0, "failed": 1,
                         "attempts": 5, "retries": 2, "timeouts": 0}
        assert len(stragglers) == 3

    def test_hard_crash_reported_not_raised(self):
        cells = make_cells(2)
        cells[0] = Cell(key=("cell", 0), fn=_hard_exit, kwargs={"code": 17})
        results = execute_cells(cells, PoolConfig(workers=2, max_retries=1))
        assert results[0].status == CRASHED
        assert results[0].attempts == 2
        assert "exitcode" in results[0].error
        assert results[1].ok

    def test_timeout_terminates_and_retries_to_bound(self):
        cells = make_cells(2)
        cells[0] = Cell(key=("cell", 0), fn=_sleep, kwargs={"seconds": 30.0})
        started = time.monotonic()
        results = execute_cells(
            cells, PoolConfig(workers=2, cell_timeout=0.3, max_retries=1))
        elapsed = time.monotonic() - started

        assert results[0].status == TIMEOUT
        assert results[0].attempts == 2
        assert "0.3" in results[0].error
        assert results[1].ok
        assert elapsed < 10.0, "timed-out workers were not terminated"
        assert pool_stats(results)["timeouts"] == 1

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        marker = tmp_path / "attempted"
        cells = [Cell(key=("flaky",), fn=_fail_first,
                      kwargs={"marker": str(marker), "value": 42})]
        results = execute_cells(cells, PoolConfig(workers=2, max_retries=1))
        assert results[0].status == OK
        assert results[0].value == 42
        assert results[0].attempts == 2
        assert pool_stats(results)["retries"] == 1


# ---------------------------------------------------------------------------
# straggler ranking: the slowest cells surface in pool stats
# ---------------------------------------------------------------------------

def _result(label, seconds, status=OK, attempts=1):
    return CellResult(key=(label,), status=status, attempts=attempts,
                      seconds=seconds)


class TestStragglerRanking:
    def test_slowest_first_with_labels_and_attempts(self):
        results = [_result("fast", 0.1), _result("slow", 9.0, attempts=2),
                   _result("mid", 3.0, status=TIMEOUT)]
        stragglers = pool_stats(results)["stragglers"]
        assert [s["cell"] for s in stragglers] == ["slow", "mid", "fast"]
        assert stragglers[0] == {"cell": "slow", "status": OK,
                                 "attempts": 2, "seconds": 9.0}
        assert stragglers[1]["status"] == TIMEOUT

    def test_top_n_bound_and_tie_stability(self):
        results = [_result(f"c{i}", 1.0) for i in range(STRAGGLER_TOP_N + 3)]
        stragglers = pool_stats(results)["stragglers"]
        assert len(stragglers) == STRAGGLER_TOP_N
        # Equal times keep grid order (sorted() is stable).
        assert [s["cell"] for s in stragglers] == \
            [f"c{i}" for i in range(STRAGGLER_TOP_N)]
        assert pool_stats(results, top_n=2)["stragglers"][0]["cell"] == "c0"
        assert pool_stats([], top_n=3)["stragglers"] == []

    def test_stragglers_persisted_in_last_run_stats(self):
        delays = {0: 0.0, 1: 0.2}
        cells = [Cell(key=("cell", i), fn=_staggered_square,
                      kwargs={"x": i, "delay": delays[i]})
                 for i in range(2)]
        execute_cells(cells, PoolConfig(workers=2))
        stats = last_run_stats()
        assert stats is not None
        stragglers = stats["stragglers"]
        assert stragglers[0]["cell"] == "cell/1", \
            "the delayed cell must rank as the top straggler"
        assert all(s["seconds"] >= 0 for s in stragglers)


# ---------------------------------------------------------------------------
# telemetry shard fold-in: pooled run reads like a serial run
# ---------------------------------------------------------------------------

def _run_ops_cells(workers):
    telemetry.configure()
    try:
        cells = [Cell(key=("cell", i), fn=_ops_cell,
                      kwargs={"amount": i + 1}) for i in range(3)]
        with telemetry.span("experiment"):
            results = execute_cells(cells, PoolConfig(workers=workers))
        state = telemetry.get_metrics().to_state()
    finally:
        events = telemetry.shutdown()
    return results, state, events


class TestTelemetryFold:
    def test_merged_counters_match_serial(self):
        _, serial, _ = _run_ops_cells(workers=1)
        _, pooled, _ = _run_ops_cells(workers=3)
        for name in ("ops.matmul.calls", "ops.matmul.flops",
                     "pool.cells.ok"):
            assert pooled["counters"][name] == serial["counters"][name], name
        assert serial["counters"]["ops.matmul.calls"] == 1 + 2 + 3

    def test_merged_histograms_match_serial(self):
        _, serial, _ = _run_ops_cells(workers=1)
        _, pooled, _ = _run_ops_cells(workers=3)
        s, p = (state["histograms"]["epoch.loss"] for state in (serial, pooled))
        assert (p["count"], p["total"], p["min"], p["max"]) \
            == (s["count"], s["total"], s["min"], s["max"])

    def test_folded_spans_are_remapped_into_parent_trace(self):
        _, _, serial_events = _run_ops_cells(workers=1)
        _, _, pooled_events = _run_ops_cells(workers=3)

        def spans(events):
            return [e for e in events if e.get("type") == "span"]

        assert sorted(s["name"] for s in spans(pooled_events)) \
            == sorted(s["name"] for s in spans(serial_events))
        ids = [s["id"] for s in spans(pooled_events)]
        assert len(ids) == len(set(ids)), "folded span ids must not collide"

        folded = [s for s in spans(pooled_events)
                  if s.get("attrs", {}).get("shard")]
        assert len(folded) == 6  # per worker shard: one cell + one work span
        experiment = next(s for s in spans(pooled_events)
                          if s["name"] == "experiment")
        cell_spans = [s for s in spans(pooled_events) if s["name"] == "cell"]
        assert all(s["parent"] == experiment["id"] for s in cell_spans)

    def test_failed_attempt_telemetry_is_discarded(self, tmp_path):
        telemetry.configure()
        try:
            marker = tmp_path / "attempted"
            cells = [Cell(key=("flaky",), fn=_fail_first,
                          kwargs={"marker": str(marker), "value": 1})]
            execute_cells(cells, PoolConfig(workers=2, max_retries=1))
            counters = telemetry.get_metrics().to_state()["counters"]
        finally:
            telemetry.shutdown()
        # Only the successful second attempt contributes a shard, so the
        # merged totals stay equal to what a clean serial run would count.
        assert counters.get("pool.cells.ok") == 1
        assert counters.get("pool.cells.retried") == 1
        assert "pool.cells.failed" not in counters


# ---------------------------------------------------------------------------
# artifact-store integration: cached cells, fold parity, kill-and-resume
# ---------------------------------------------------------------------------

def _flaky_ops_cell(marker, amount):
    # Counts *before* possibly failing: the first attempt's counter must
    # be discarded by retry handling and never reach the store.
    telemetry.inc_counter("ops.matmul.calls", amount)
    path = Path(marker)
    if not path.exists():
        path.write_text("seen")
        raise RuntimeError("transient failure")
    return amount


def _make_sweep(tmp_path, fingerprint="fp-test", rev="rev1", consult=True):
    from repro.runtime.artifacts import ArtifactStore, SweepArtifacts

    store = ArtifactStore(tmp_path / "store")
    return SweepArtifacts(store=store, config_fingerprint=fingerprint,
                          code_rev=rev, consult=consult)


class TestCachedCells:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_second_run_serves_every_cell_from_store(self, tmp_path,
                                                     workers):
        sweep = _make_sweep(tmp_path)
        cells = make_cells(3)
        config = PoolConfig(workers=workers)
        with using(sweep=sweep):
            first = execute_cells(cells, config)
        with using(sweep=_make_sweep(tmp_path)):
            second = execute_cells(cells, config)

        assert all(r.status == OK for r in first)
        assert all(r.status == CACHED and r.attempts == 0 for r in second)
        assert [r.value for r in second] == [r.value for r in first]
        stats = pool_stats(second)
        assert (stats["ok"], stats["cached"], stats["failed"]) == (0, 3, 0)
        assert stats["ok"] + stats["cached"] + stats["failed"] \
            == stats["cells"]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_cached_shards_fold_identically_to_live(self, tmp_path, workers):
        """PR 4 fold parity extended to store-served cells: merged op
        counters/histograms must not depend on whether a cell executed
        or was decoded from disk."""
        cells = [Cell(key=("cell", i), fn=_ops_cell,
                      kwargs={"amount": i + 1}) for i in range(3)]
        config = PoolConfig(workers=workers)

        def run(sweep):
            telemetry.configure()
            try:
                with using(sweep=sweep), telemetry.span("experiment"):
                    execute_cells(cells, config)
                state = telemetry.get_metrics().to_state()
            finally:
                events = telemetry.shutdown()
            return state, events

        live_state, live_events = run(_make_sweep(tmp_path))
        cached_state, cached_events = run(_make_sweep(tmp_path))

        assert cached_state["counters"].get("pool.cells.cached") == 3
        assert "pool.cells.ok" not in cached_state["counters"]
        for name in ("ops.matmul.calls", "ops.matmul.flops"):
            assert cached_state["counters"][name] \
                == live_state["counters"][name], name
        live_hist = live_state["histograms"]["epoch.loss"]
        cached_hist = cached_state["histograms"]["epoch.loss"]
        for field in ("count", "total", "min", "max"):
            assert cached_hist[field] == live_hist[field], field
        # The persisted shard replays the cell's spans into the trace.
        names = sorted(e["name"] for e in cached_events
                       if e.get("type") == "span")
        assert names.count("work") == 3 and names.count("cell") == 3

    def test_retried_attempt_counters_never_reach_the_store(self, tmp_path):
        marker = tmp_path / "attempted"
        cells = [Cell(key=("flaky",), fn=_flaky_ops_cell,
                      kwargs={"marker": str(marker), "amount": 5})]

        telemetry.configure()
        try:
            with using(sweep=_make_sweep(tmp_path)):
                results = execute_cells(
                    cells, PoolConfig(workers=2, max_retries=1))
            live = telemetry.get_metrics().to_state()["counters"]
        finally:
            telemetry.shutdown()
        assert results[0].status == OK and results[0].attempts == 2
        assert live.get("ops.matmul.calls") == 5, \
            "the failed attempt's counters must be discarded live"

        telemetry.configure()
        try:
            with using(sweep=_make_sweep(tmp_path)):
                resumed = execute_cells(
                    cells, PoolConfig(workers=2, max_retries=1))
            cached = telemetry.get_metrics().to_state()["counters"]
        finally:
            telemetry.shutdown()
        assert resumed[0].status == CACHED
        assert cached.get("ops.matmul.calls") == 5, \
            "the persisted shard must hold only the successful attempt"

    def test_failed_cells_are_never_persisted(self, tmp_path):
        sweep = _make_sweep(tmp_path)
        cells = make_cells(2)
        cells[1] = Cell(key=("cell", 1), fn=_raise, kwargs={"msg": "boom"})
        with using(sweep=sweep):
            results = execute_cells(cells, PoolConfig(workers=2,
                                                      max_retries=0))
        assert results[1].status == ERROR
        assert len(sweep.store) == 1
        assert sweep.address_for(cells[1]) not in sweep.store

    def test_no_consult_reexecutes_but_repopulates(self, tmp_path):
        cells = make_cells(2)
        with using(sweep=_make_sweep(tmp_path)):
            execute_cells(cells, PoolConfig(workers=1))
        fresh = _make_sweep(tmp_path, consult=False)
        with using(sweep=fresh):
            results = execute_cells(cells, PoolConfig(workers=1))
        assert all(r.status == OK for r in results), \
            "--fresh mode must execute every cell live"
        assert fresh.store.misses == 2 and fresh.store.stores == 2


@pytest.mark.slow
class TestKillAndResume:
    """SIGKILL a pooled sweep partway; resume must run only the rest."""

    CELLS = 6
    DELAY = 0.4

    def _cell_module(self, tmp_path):
        path = tmp_path / "resume_cells.py"
        path.write_text(
            "import time\n"
            "def slow_cell(x, seed=0, delay=0.0):\n"
            "    time.sleep(delay)\n"
            "    return {'x': x, 'seed': seed, 'value': x * x}\n")
        return path

    def _import_cells(self, path):
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location("resume_cells", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["resume_cells"] = module
        spec.loader.exec_module(module)
        return module

    def _make_cells(self, module, delay):
        return [Cell(key=("cell", i), fn=module.slow_cell,
                     kwargs={"x": i, "seed": derive_cell_seed(0, "cell", i),
                             "delay": delay})
                for i in range(self.CELLS)]

    def test_sigkill_midsweep_then_resume_runs_only_remainder(self, tmp_path):
        import signal
        import subprocess
        import sys

        module_path = self._cell_module(tmp_path)
        store_dir = tmp_path / "store"
        driver = tmp_path / "driver.py"
        driver.write_text(
            f"import sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            f"import resume_cells\n"
            f"from repro import telemetry\n"
            f"from repro.runtime import artifacts, context\n"
            f"from repro.runtime.pool import (Cell, PoolConfig,\n"
            f"                                derive_cell_seed,\n"
            f"                                execute_cells)\n"
            f"telemetry.configure()\n"
            f"sweep = artifacts.SweepArtifacts(\n"
            f"    store=artifacts.ArtifactStore({str(store_dir)!r}),\n"
            f"    config_fingerprint='fp-kill', code_rev='rev1')\n"
            f"cells = [Cell(key=('cell', i), fn=resume_cells.slow_cell,\n"
            f"              kwargs={{'x': i,\n"
            f"                      'seed': derive_cell_seed(0, 'cell', i),\n"
            f"                      'delay': {self.DELAY}}})\n"
            f"         for i in range({self.CELLS})]\n"
            f"with context.using(sweep=sweep):\n"
            f"    execute_cells(cells, PoolConfig(workers=2,\n"
            f"                                    start_method='fork'))\n")

        from repro.runtime.artifacts import ArtifactStore, SweepArtifacts

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen([sys.executable, str(driver)],
                                env={**os.environ, "PYTHONPATH": src},
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # Wait until at least two cells have committed, then SIGKILL the
        # sweep — no cleanup handlers run, exactly like a dead node.
        store = ArtifactStore(store_dir)
        deadline = time.monotonic() + 60.0
        try:
            while len(store) < 2:
                if proc.poll() is not None or time.monotonic() > deadline:
                    pytest.fail("driver exited or stalled before storing "
                                f"2 cells (stored {len(store)})")
                time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        stored = len(store)
        assert 0 < stored < self.CELLS, \
            f"kill must land mid-sweep (stored {stored}/{self.CELLS})"

        module = self._import_cells(module_path)
        cells = self._make_cells(module, self.DELAY)

        # Uninterrupted reference run (no store) for the byte gate.
        reference = execute_cells(cells, PoolConfig(workers=2))

        resumed_sweep = SweepArtifacts(store=ArtifactStore(store_dir),
                                       config_fingerprint="fp-kill",
                                       code_rev="rev1")
        with using(sweep=resumed_sweep):
            resumed = execute_cells(cells, PoolConfig(workers=2))

        stats = pool_stats(resumed)
        assert stats["cached"] == stored, \
            "every committed cell must be served from the store"
        assert stats["ok"] == self.CELLS - stored, \
            "only the remainder may execute"
        assert stats["failed"] == 0
        assert stats["cached"] + stats["ok"] == stats["cells"] == self.CELLS

        from repro.bench.io import canonical_payload
        assert canonical_payload([r.value for r in resumed]) \
            == canonical_payload([r.value for r in reference]), \
            "resumed payload must be byte-identical to a never-killed run"


@pytest.mark.slow
class TestShmKillMidAttach:
    """SIGKILL a worker mid-publish; store cleanup must stay airtight.

    The victim maps a shared blob (a live memory map of a store file),
    claims a chain and dies inside ``np.save`` with the scratch file
    half written and the claim still in place — the worst state a dead
    node leaves behind. Readers must miss the torn file, a sibling must
    adopt the dead claim without waiting, the owner's scope exit must
    remove the run's directory, the driver must exit cleanly, and stderr
    must carry no resource_tracker warnings or tracebacks.
    """

    DRIVER = """\
import multiprocessing as mp
import os
import signal
import sys
import time

import numpy as np

from repro.runtime import context, shm
from repro.runtime.shm import SharedTermStore, blob_fingerprint

assert shm.supported()
ctx = mp.get_context("fork")
store = SharedTermStore()
fp = blob_fingerprint("norm", ("kill-mid-attach",))
chain = "0123456789abcdef"


def victim(handle, ready):
    def stuck_save(file, array):
        file.write(b"torn")
        file.flush()
        ready.send(float(np.asarray(got["a"]).sum()))
        time.sleep(300)

    worker = context.WorkerContext(context.RunConfig(), handle=handle)
    with worker.install() as run:
        active = run.handle
        got, _meta = active.fetch_blob(fp)  # live map of a store file
        _, claimed = active.plan_chain(chain, have=0, want=2)
        assert claimed
        np.save = stuck_save                # die mid-publish, claim held
        active.publish_terms(chain, 1, [np.ones(4), np.ones(4)])


with shm.store_scope(store):
    assert store.publish_blob(fp, {"a": np.arange(6.0)})
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=victim,
                       args=(store.worker_handle(), child_conn))
    proc.start()
    child_conn.close()
    assert parent_conn.poll(30.0), "victim never reached np.save"
    assert parent_conn.recv() == 15.0
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=30.0)
    assert proc.exitcode == -signal.SIGKILL
    names = os.listdir(store.root)
    assert any(name.endswith(".tmp") for name in names), names
    assert not any(name.startswith("c-") and name.endswith(".npy")
                   for name in names), names
    sibling = store.worker_handle()
    started = time.monotonic()
    served, claimed = sibling.plan_chain(chain, have=0, want=2)
    assert served == [] and claimed, "dead claim must be adopted"
    assert time.monotonic() - started < shm.WAIT_TIMEOUT_S / 10
    assert sibling.publish_terms(chain, 1, [np.ones(4), np.ones(4)])
    sibling.close()
stats = store.stats()
assert stats["publishes"] == 3 and stats["segments_unlinked"] > 0, stats
prefix = shm.SEGMENT_PREFIX + store.run_id
leftovers = [name for name in os.listdir("/dev/shm")
             if name.startswith(prefix)]
assert not leftovers, f"leaked store entries: {leftovers}"
print("CLEAN")
"""

    def test_sigkill_mid_publish_never_leaks_or_warns(self, tmp_path):
        import subprocess
        import sys

        from repro.runtime import shm as shm_mod
        if not shm_mod.supported():
            pytest.skip("no writable /dev/shm")
        driver = tmp_path / "kill_mid_attach.py"
        driver.write_text(self.DRIVER)
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, str(driver)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout
        for marker in ("resource_tracker", "Traceback", "leaked"):
            assert marker not in proc.stderr, (
                f"store cleanup emitted {marker!r} on stderr:\n"
                f"{proc.stderr}")
