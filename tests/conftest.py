"""Shared fixtures: small deterministic graphs and signals."""

from __future__ import annotations

import glob
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.datasets import synthesize
from repro.graph import Graph
from repro.runtime import shm
from repro.runtime.artifacts import ARTIFACT_DIR_ENV
from repro.telemetry.registry import REGISTRY_DIR_ENV


def _store_entries() -> set:
    """Shared-store and spill directories on this host, except stores a
    live foreign process owns (someone else's sweep, not our leak)."""
    def foreign(path: str) -> bool:
        try:
            owner = int(Path(path, "owner").read_text())
        except (OSError, ValueError):
            return False
        return owner != os.getpid() and shm._pid_alive(owner)

    stores = {path for path in glob.glob("/dev/shm/rsm*")
              if not foreign(path)}
    return stores | set(glob.glob(
        os.path.join(tempfile.gettempdir(), "repro-spill-*")))


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_store_entries():
    """Fail the session if it leaves a store or spill directory behind.

    Each store test checks its own run id; this checks the suite — a
    path that forgets its scope (or a crash path that skips cleanup)
    shows up here whichever test caused it.
    """
    before = _store_entries()
    yield
    leaked = sorted(_store_entries() - before)
    assert not leaked, f"test session leaked store entries: {leaked}"


@pytest.fixture(autouse=True)
def _isolated_run_registry(tmp_path_factory, monkeypatch):
    """Point the run registry at a per-session tmp dir.

    Unit tests exercise the bench CLI end-to-end; without this they would
    append records to the real ``benchmarks/results/registry`` index.
    """
    monkeypatch.setenv(REGISTRY_DIR_ENV,
                       str(tmp_path_factory.getbasetemp() / "run-registry"))


@pytest.fixture(autouse=True)
def _isolated_artifact_store(tmp_path, monkeypatch):
    """Point the cell artifact store at a per-*test* tmp dir.

    Per-test (not per-session): a stale artifact from one test served as
    a hit in another would make resume tests order-dependent. Tests that
    need a shared store across multiple CLI invocations pass an explicit
    ``--artifact-dir`` instead.
    """
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "artifact-store"))


@pytest.fixture
def counters():
    """Telemetry on for the test; ``counters()`` is its counter snapshot,
    the one record of cache, planner and spill traffic."""
    telemetry.configure()
    try:
        yield lambda: telemetry.get_metrics().snapshot().get("counters", {})
    finally:
        telemetry.shutdown()


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def tiny_graph():
    """A fixed 8-node graph with two triangles and a bridge."""
    edges = np.array([
        [0, 1], [1, 2], [2, 0],      # triangle A
        [3, 4], [4, 5], [5, 3],      # triangle B
        [2, 3],                      # bridge
        [5, 6], [6, 7],              # tail
    ])
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    features = np.eye(8, dtype=np.float32)
    return Graph.from_edges(8, edges, features=features, labels=labels,
                            name="tiny")


@pytest.fixture
def small_graph():
    """A ~270-node cora-like synthetic graph (homophilous)."""
    return synthesize("cora", scale=0.1, seed=3)


@pytest.fixture
def hetero_graph():
    """A chameleon-like heterophilous synthetic graph."""
    return synthesize("chameleon", scale=0.5, seed=3)


@pytest.fixture
def signal(small_graph, rng):
    return rng.normal(size=(small_graph.num_nodes, 6)).astype(np.float32)
