"""The run context (:mod:`repro.runtime.context`): one config, every legal
combination of execution options gives one answer.

1. **Option matrix** — a 2×2 mini-batch grid at a tiny scale and one
   epoch runs under every combination of plan × cache × shared terms ×
   blocked × resume × workers ∈ {1, 2}. Every legal combination yields the
   default run's canonical payload (a resume run must also be served
   entirely from the store a ``--fresh`` run just filled); every illegal
   one is rejected by :meth:`RunConfig.validate` with its message. The
   rules mirror README's "Legal option combinations" table. Tier-1 runs
   the pooled cells under ``fork``; the slow suite repeats them under
   ``spawn``, which inherits nothing from the parent.
2. **Rejections** — every combination the CLI refuses, and the pool and
   epoch values out of range, fail with a message naming the flag.
3. **Chain names** — two operators one sampled token cannot tell apart
   are never served each other's chain terms.
4. **Threaded products** — with every CSR product on threads, the grid
   still gives the default payload, inline and in ``fork`` workers that
   are started after the parent's helper threads ran.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.bench import experiments
from repro.bench.io import canonical_payload
from repro.errors import ReproError
from repro.filters.base import PropagationContext
from repro.graph import Graph
from repro.runtime import blocked, cache, context, plan, pool, shm
from repro.runtime.context import RunConfig
from repro.runtime.pool import PoolConfig
from repro.training.loop import TrainConfig

DATASETS = ("cora", "chameleon")
FILTERS = ("ppr", "chebyshev")
SCALE = 0.05
CONFIG = TrainConfig(epochs=1, patience=0, eval_every=10 ** 9)
#: A budget small enough that the blocked tier spills.
BLOCKED_BUDGET_MIB = 1 / 16

#: The combinations of matrix options ``RunConfig.validate`` rejects,
#: each as (predicate over one combination, the rejection message).
ILLEGAL = (
    (lambda c: c["blocked"] and c["workers"] > 1,
     "--blocked is serial-only"),
)

MATRIX = [dict(zip(("plan", "cache", "shared_terms", "blocked", "resume",
                    "workers"), values))
          for values in itertools.product(
              (True, False), (True, False), (True, False),
              (False, True), (False, True), (1, 2))]


def _combo_id(combo) -> str:
    return "-".join([
        "plan" if combo["plan"] else "noplan",
        "cache" if combo["cache"] else "nocache",
        "shared_on" if combo["shared_terms"] else "shared_off",
        "blocked" if combo["blocked"] else "incore",
        "resume" if combo["resume"] else "once",
        f"w{combo['workers']}"])


def _rejection(combo):
    return next((message for rejects, message in ILLEGAL if rejects(combo)),
                None)


def _config(combo, **extra) -> RunConfig:
    return RunConfig(
        plan=combo["plan"], cache=combo["cache"],
        shared_terms=combo["shared_terms"], blocked=combo["blocked"],
        ram_budget_mib=BLOCKED_BUDGET_MIB if combo["blocked"] else None,
        pool=PoolConfig(workers=combo["workers"]),
        **extra)


def _grid(cfg: RunConfig, scheme: str = "mini_batch") -> tuple:
    """Run the grid under ``cfg``; (payload digest, artifact-store hits)."""
    manifest = telemetry.build_manifest(
        config=CONFIG, seed=0,
        extra=cfg.manifest_extra("efficiency", "Figure 2", []))
    telemetry.configure()
    try:
        with cfg.open(manifest) as run:
            rows = experiments.efficiency_experiment(
                DATASETS, filters=FILTERS, schemes=(scheme,),
                config=CONFIG, scale_override=SCALE, pool=cfg.pool)
    finally:
        counters = telemetry.final_metrics(telemetry.shutdown()) \
            .get("counters", {})
    assert all(row["status"] == "ok" for row in rows), rows
    hits = counters.get("artifacts.hit", 0) if run.sweep is not None \
        else None
    return hashlib.sha256(canonical_payload(rows)).hexdigest(), hits


@pytest.fixture(scope="module")
def reference() -> str:
    """The default run's payload digest: planner, caches, in core, serial."""
    return _grid(RunConfig())[0]


def _check_combination(combo, reference, tmp_path):
    message = _rejection(combo)
    if message is not None:
        with pytest.raises(ReproError, match=message):
            _config(combo).validate("efficiency")
        return
    if combo["shared_terms"] and combo["workers"] > 1 \
            and combo["cache"] and not shm.supported():
        pytest.skip("no writable /dev/shm")
    if not combo["resume"]:
        cfg = _config(combo).validate("efficiency")
        assert _grid(cfg)[0] == reference
        return
    store = str(tmp_path / "artifacts")
    fresh = _config(combo, fresh=True,
                    artifact_dir=store).validate("efficiency")
    assert _grid(fresh) == (reference, 0)
    resumed = _config(combo, resume=True,
                      artifact_dir=store).validate("efficiency")
    cells = len(DATASETS) * len(FILTERS)
    assert _grid(resumed) == (reference, cells)


class TestOptionMatrix:
    @pytest.mark.parametrize("combo", MATRIX, ids=_combo_id)
    def test_one_payload_for_every_legal_combination(self, combo, reference,
                                                     tmp_path):
        _check_combination(combo, reference, tmp_path)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "combo", [combo for combo in MATRIX if combo["workers"] > 1],
        ids=_combo_id)
    def test_spawn_workers_give_the_same_payload(self, combo, reference,
                                                 tmp_path, monkeypatch):
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        monkeypatch.setattr(pool, "_default_start_method", lambda: "spawn")
        _check_combination(combo, reference, tmp_path)


class TestRejections:
    @pytest.mark.parametrize("experiment,changes,message", [
        ("efficiency", dict(trace="t.jsonl", telemetry=False),
         "--trace requires telemetry"),
        ("efficiency", dict(ram_budget_mib=64.0),
         "--ram-budget requires --blocked"),
        ("efficiency", dict(spill_dir="spill"), "--spill-dir requires --blocked"),
        ("efficiency", dict(blocked=True, ram_budget_mib=0.0),
         "--ram-budget must be a positive MiB count"),
        ("taxonomy", dict(pool=PoolConfig(max_retries=2)),
         "--workers/--cell-timeout/--max-retries apply to the grid"),
        ("regression", dict(pool=PoolConfig(workers=2)),
         "--workers/--cell-timeout/--max-retries apply to the grid"),
        ("efficiency", dict(resume=True, fresh=True),
         "--resume and --fresh are mutually exclusive"),
        ("efficiency", dict(artifact_dir="store"),
         "--artifact-dir requires --resume or --fresh"),
        ("efficiency", dict(fresh=True, telemetry=False),
         "--resume/--fresh require telemetry"),
        ("taxonomy", dict(resume=True), "--resume/--fresh apply to the grid"),
    ])
    def test_validate_names_the_rejected_combination(self, experiment,
                                                     changes, message):
        with pytest.raises(ReproError, match=message):
            RunConfig(**changes).validate(experiment)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_ram_budget_rejected(self, budget):
        with pytest.raises(ReproError,
                           match="--ram-budget must be a positive MiB count"):
            RunConfig(blocked=True, ram_budget_mib=budget).validate(
                "efficiency")

    def test_default_config_is_legal_everywhere(self):
        for experiment in ("taxonomy", "efficiency", "regression"):
            assert RunConfig().validate(experiment) == RunConfig()

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ReproError, match="--epochs must be >= 1"):
            RunConfig().validate("efficiency", epochs=epochs)
        RunConfig().validate("efficiency", epochs=1)

    @pytest.mark.parametrize("changes,message", [
        (dict(workers=0), "--workers must be >= 1"),
        (dict(cell_timeout=0), "--cell-timeout must be > 0"),
        (dict(cell_timeout=-1.5), "--cell-timeout must be > 0"),
        (dict(max_retries=-3), "--max-retries must be >= 0"),
    ])
    def test_pool_values_out_of_range_rejected(self, changes, message):
        with pytest.raises(ReproError, match=message):
            PoolConfig(**changes)

    def test_pool_boundary_values_accepted(self):
        assert PoolConfig(workers=2, cell_timeout=0.5,
                          max_retries=0).max_retries == 0


class TestContextScopes:
    def test_using_replaces_and_restores(self):
        before = context.current()
        with context.using(cache=False, plan=False) as run:
            assert context.current() is run
            assert not run.config.cache and not run.config.plan
            assert run.active_planner is None and run.active_handle is None
        assert context.current() is before
        assert before.config.cache and before.config.plan

    def test_open_tears_down_the_tier(self):
        with RunConfig(blocked=True).open() as run:
            assert context.current() is run and run.tier is not None
            spill = run.tier.spill.root
            assert spill.exists()
        assert run.tier.closed and not spill.exists()
        assert context.current().tier is None


def _ring_and_triangles():
    """Two 6-node unweighted graphs with one sampled operator token and
    the same features: only a full digest tells their chains apart."""
    features = np.arange(12, dtype=np.float32).reshape(6, 2)
    ring = Graph.from_edges(6, np.array([[i, (i + 1) % 6] for i in range(6)]),
                            features=features)
    triangles = Graph.from_edges(
        6, np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]),
        features=features)
    return ring, triangles


def _chains(graphs):
    """Each graph's 4-term adjacency chain through one fresh planner, then
    again: at one chain per planner (``plan.PLAN_CHAIN_ENTRIES = 1``)
    every chain is evicted (spilled, under a blocked tier) by the next
    one and the second pass loads it back."""
    requests = [(PropagationContext(graph.normalized_adjacency(0.5)),
                 np.asarray(graph.features)) for graph in graphs]
    with plan.plan_scope(fresh=True) as planner:
        for ctx, x in requests:
            planner.chain_terms(ctx, x, "monomial_adj", (), 4)
        return [b"".join(np.asarray(term).tobytes() for term in
                         planner.chain_terms(ctx, x, "monomial_adj", (), 4))
                for ctx, x in requests]


class TestChainNames:
    @pytest.fixture()
    def graphs(self):
        ring, triangles = _ring_and_triangles()
        assert cache.matrix_token(ring.normalized_adjacency(0.5)) \
            == cache.matrix_token(triangles.normalized_adjacency(0.5))
        return ring, triangles

    def test_blocked_tier_spills_each_chain_under_its_own_name(
            self, graphs, tmp_path, counters, monkeypatch):
        expected = _chains(graphs)
        assert expected[0] != expected[1]
        blocked = RunConfig(blocked=True, spill_dir=str(tmp_path / "spill"))
        monkeypatch.setattr(plan, "PLAN_CHAIN_ENTRIES", 1)
        with blocked.open():
            assert _chains(graphs) == expected
            assert counters()["plan.terms.spill_load"] > 0

    @pytest.mark.skipif(not shm.supported(), reason="no writable /dev/shm")
    def test_shared_store_serves_each_chain_under_its_own_name(self, graphs):
        expected = _chains(graphs)
        store = shm.SharedTermStore()
        try:
            for graph, want in zip(graphs, expected):
                # One worker per graph, as a pooled sweep would run them.
                worker = context.WorkerContext(RunConfig(),
                                               handle=store.worker_handle())
                with worker.install():
                    assert _chains((graph,)) == [want]
        finally:
            store.close()


class TestThreadedProducts:
    """Threaded spmm is one more execution option: it must not move a
    grid's payload, and no helper thread may cross a fork. Full batch is
    the scheme whose products run on threads."""

    @pytest.fixture(autouse=True)
    def _tile_every_product(self, monkeypatch):
        monkeypatch.setattr(blocked, "THREADED_MIN_WORK", 0)

    @pytest.mark.parametrize("scheme", ["mini_batch", "full_batch"])
    def test_inline_grid_payload_unchanged(self, scheme, reference):
        with context.using(spmm_threads=1):
            serial = _grid(RunConfig(), scheme)[0]
        with context.using(spmm_threads=2):
            assert _grid(RunConfig(), scheme)[0] == serial
        if scheme == "mini_batch":
            assert serial == reference

    def test_worker_threads_split_the_budget(self):
        with context.using(spmm_threads=4):
            assert context.current().for_worker(2).spmm_threads == 2
            assert context.current().worker_threads(3) == 1
        with context.using(spmm_threads=2):
            assert context.current().for_worker(2).spmm_threads == 1

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                        reason="fork start method unavailable")
    def test_forked_workers_tile_after_the_parent_did(self):
        """The parent's helper threads are alive when the pool forks; each
        worker (two threads of a budget of four) must still finish its
        tiled cells inside the timeout, with the inline payload."""
        with context.using(spmm_threads=2):
            inline = _grid(RunConfig(), "full_batch")[0]
        assert any(thread.name.startswith("repro-spmm")
                   for thread in threading.enumerate())
        cfg = RunConfig(pool=PoolConfig(workers=2, cell_timeout=30,
                                        max_retries=0))
        with context.using(spmm_threads=4):
            assert _grid(cfg.validate("efficiency"), "full_batch")[0] \
                == inline
