"""Run registry tests.

Covers the durability contract of the append-only file (interleaved
writers, truncated tails), fingerprint identity, and loading lines of
every older record generation.
"""

from __future__ import annotations

import json
import threading

from repro.telemetry.registry import (
    FINGERPRINT_KEYS,
    REGISTRY_FILENAME,
    RunRegistry,
    build_record,
    config_fingerprint,
    default_registry_dir,
    record_run,
)

BASE_MANIFEST = {
    "schema": "repro.telemetry.manifest/v1",
    "experiment": "efficiency",
    "artifact": "table-3",
    "config": {"datasets": ["cora"], "filters": ["ppr"], "epochs": 2},
    "seed": 0,
    "datasets": ["cora"],
    "cache": True,
    "git_sha": "abc123",
    "platform": {"python": "3.11", "machine": "x86_64"},
}


def make_manifest(**overrides):
    manifest = json.loads(json.dumps(BASE_MANIFEST))
    manifest.update(overrides)
    return manifest


def make_record(timestamp, *, seconds=1.0, manifest=None, **stage_fields):
    stages = {"train": {"seconds": seconds, "self_seconds": seconds / 2,
                        "ram_delta_bytes": 0, **stage_fields}}
    return build_record(manifest or make_manifest(), stages=stages,
                        metrics={"counters": {"ops.eig.flops": 900.0}},
                        timestamp=timestamp)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic(self):
        assert config_fingerprint(make_manifest()) \
            == config_fingerprint(make_manifest())

    def test_config_change_alters_it(self):
        base = config_fingerprint(make_manifest())
        assert config_fingerprint(make_manifest(seed=1)) != base
        assert config_fingerprint(make_manifest(datasets=["pubmed"])) != base
        changed = make_manifest()
        changed["config"]["epochs"] = 50
        assert config_fingerprint(changed) != base

    def test_code_identity_does_not(self):
        """Same config on another commit/host keeps the fingerprint."""
        base = config_fingerprint(make_manifest())
        assert config_fingerprint(make_manifest(git_sha="fff999")) == base
        assert config_fingerprint(
            make_manifest(platform={"python": "3.12"})) == base
        assert "git_sha" not in FINGERPRINT_KEYS

    def test_env_var_controls_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "reg"))
        assert default_registry_dir() == tmp_path / "reg"
        assert default_registry_dir(tmp_path / "explicit") \
            == tmp_path / "explicit"


# ---------------------------------------------------------------------------
# append / load
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path)
        record = registry.append(make_record(100.0, seconds=2.5))
        loaded = registry.load()
        assert len(loaded) == 1
        assert loaded[0].run_id == record.run_id
        assert loaded[0].stages["train"]["seconds"] == 2.5
        assert loaded[0].git_sha == "abc123"

    def test_history_order_stable_under_identical_timestamps(self, tmp_path):
        """Append order is the tiebreak when wall clocks collide."""
        registry = RunRegistry(tmp_path)
        for secs in (1.0, 2.0, 3.0):
            registry.append(make_record(42.0, seconds=secs))
        records = registry.load()
        assert [r.stages["train"]["seconds"] for r in records] \
            == [1.0, 2.0, 3.0]

    def test_interleaved_writers(self, tmp_path):
        """Two writer instances appending concurrently shear no records."""
        writers = [RunRegistry(tmp_path), RunRegistry(tmp_path)]
        errors = []

        def spin(writer, offset):
            try:
                for i in range(25):
                    writer.append(make_record(float(offset + i)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=spin, args=(w, k * 1000))
                   for k, w in enumerate(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reader = RunRegistry(tmp_path)
        records = reader.load()
        assert len(records) == 50
        assert reader.corrupt_lines == 0
        assert len({r.run_id for r in records}) == 50

    def test_truncated_last_line_tolerated_and_repaired(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(make_record(1.0))
        registry.append(make_record(2.0))
        # Simulate a writer that died mid-line.
        path = tmp_path / REGISTRY_FILENAME
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"config_fingerprint": "dead", "timest')
        assert len(registry.load()) == 2
        assert registry.corrupt_lines == 1
        # The next append repairs the tail: new record lands on its own
        # line instead of extending the broken one.
        registry.append(make_record(3.0))
        records = registry.load()
        assert [r.timestamp for r in records] == [1.0, 2.0, 3.0]
        assert registry.corrupt_lines == 1

    def test_record_run_extracts_trace_events(self, tmp_path):
        events = [
            {"type": "span", "name": "train", "id": 1, "parent": None,
             "duration_s": 2.0, "alloc_bytes": 100},
            {"type": "metrics",
             "metrics": {"counters": {"ops.spmm.calls": 3}}},
        ]
        record = record_run(make_manifest(), events=events,
                            registry_dir=tmp_path)
        loaded = RunRegistry(tmp_path).load()
        assert loaded[0].run_id == record.run_id
        assert loaded[0].stages["train"]["seconds"] == 2.0
        assert loaded[0].metrics["counters"]["ops.spmm.calls"] == 3

# ---------------------------------------------------------------------------
# schema v2: workers/pool annotations + pre-v2 backward compatibility
# ---------------------------------------------------------------------------

class TestSchemaV2:
    def test_workers_and_pool_round_trip(self, tmp_path):
        record = record_run(make_manifest(), registry_dir=tmp_path,
                            workers=4,
                            pool={"workers": 4, "cell_timeout": 600.0,
                                  "max_retries": 1, "retries": 0})
        loaded = RunRegistry(tmp_path).load()[0]
        assert loaded.run_id == record.run_id
        assert loaded.schema == "repro.telemetry.registry/v6"
        assert loaded.workers == 4
        assert loaded.pool["cell_timeout"] == 600.0

    def test_workers_outside_config_fingerprint(self, tmp_path):
        """Execution strategy must not change a run's config fingerprint."""
        registry = RunRegistry(tmp_path)
        serial = registry.append(build_record(make_manifest(), timestamp=1.0,
                                              workers=1))
        pooled = registry.append(build_record(make_manifest(), timestamp=2.0,
                                              workers=8, pool={"workers": 8}))
        assert serial.config_fingerprint == pooled.config_fingerprint
        assert [r.workers for r in registry.load()] == [1, 8]

    def test_v1_line_loads_with_serial_defaults(self, tmp_path):
        """A registry written before PR 4 still loads."""
        registry = RunRegistry(tmp_path)
        registry.append(make_record(2.0))
        v1 = make_record(1.0).to_dict()
        v1["schema"] = "repro.telemetry.registry/v1"
        del v1["workers"]
        del v1["pool"]
        with (tmp_path / REGISTRY_FILENAME).open("a") as handle:
            handle.write(json.dumps(v1) + "\n")

        records = registry.load()
        assert len(records) == 2
        assert registry.corrupt_lines == 0
        old = next(r for r in records if r.schema.endswith("/v1"))
        assert old.workers == 1
        assert old.pool == {}
        # Mixed generations load as one config in timestamp order: the
        # v1 line first, the current append second.
        assert [r.schema.rsplit("/", 1)[1] for r in records] == ["v1", "v6"]
        assert len({r.config_fingerprint for r in records}) == 1


class TestRetiredLiveKeys:
    def test_v6_line_with_live_pointers_loads_and_pairs(self, tmp_path):
        """A v6 line that still carries the retired ``live_path`` /
        ``chrome_trace_path`` keys loads cleanly, before a new record of
        the same config."""
        registry = RunRegistry(tmp_path)
        old = make_record(1.0).to_dict()
        old["live_path"] = "out/live.jsonl"
        old["chrome_trace_path"] = "out/live.trace.json"
        with (tmp_path / REGISTRY_FILENAME).open("a") as handle:
            handle.write(json.dumps(old) + "\n")
        new = registry.append(make_record(2.0))

        records = registry.load()
        assert registry.corrupt_lines == 0
        assert len(records) == 2
        assert not hasattr(records[0], "live_path")
        assert [r.run_id for r in records] == [old["run_id"], new.run_id]
        assert records[0].config_fingerprint == new.config_fingerprint


# ---------------------------------------------------------------------------
# schema v4: resumable-sweep artifact accounting + v3 compatibility
# ---------------------------------------------------------------------------

class TestSchemaV4:
    def test_artifacts_block_round_trips(self, tmp_path):
        record = record_run(make_manifest(), registry_dir=tmp_path,
                            workers=2,
                            artifacts={"mode": "resume", "dir": "store",
                                       "hit": 3, "miss": 1, "stored": 1})
        loaded = RunRegistry(tmp_path).load()[0]
        assert loaded.run_id == record.run_id
        assert loaded.schema == "repro.telemetry.registry/v6"
        assert loaded.artifacts["mode"] == "resume"
        assert loaded.artifacts["hit"] == 3

    def test_artifacts_outside_config_fingerprint(self, tmp_path):
        fresh = record_run(make_manifest(), registry_dir=tmp_path,
                           artifacts={"mode": "fresh", "hit": 0})
        resumed = record_run(make_manifest(), registry_dir=tmp_path,
                             artifacts={"mode": "resume", "hit": 4})
        assert fresh.config_fingerprint == resumed.config_fingerprint, \
            "serving cells from the store must not change what was measured"

    def test_storeless_run_has_empty_block(self, tmp_path):
        record_run(make_manifest(), registry_dir=tmp_path)
        assert RunRegistry(tmp_path).load()[0].artifacts == {}

    def test_v3_line_loads_with_empty_artifacts(self, tmp_path):
        """A registry written before PR 7 still loads cleanly."""
        registry = RunRegistry(tmp_path)
        v3 = make_record(1.0).to_dict()
        v3["schema"] = "repro.telemetry.registry/v3"
        del v3["artifacts"]
        with (tmp_path / REGISTRY_FILENAME).open("a") as handle:
            handle.write(json.dumps(v3) + "\n")
        (loaded,) = registry.load()
        assert registry.corrupt_lines == 0
        assert loaded.artifacts == {}
        assert loaded.schema.endswith("/v3")


class TestOldLines:
    def test_every_generation_loads_from_one_file(self, tmp_path):
        """v1, v3, v6 with the retired live keys and v6 with the retired
        ``summary`` block load from one file; a torn tail is skipped and
        repaired by the next append."""
        v1 = make_record(1.0).to_dict()
        v1["schema"] = "repro.telemetry.registry/v1"
        for key in ("workers", "pool", "artifacts", "memory"):
            del v1[key]
        v3 = make_record(2.0).to_dict()
        v3["schema"] = "repro.telemetry.registry/v3"
        del v3["artifacts"], v3["memory"]
        v3["live_path"] = None
        live = make_record(3.0).to_dict()
        live["live_path"] = "out/live.jsonl"
        live["chrome_trace_path"] = "out/live.trace.json"
        summary = make_record(4.0).to_dict()
        summary["summary"] = {"mean": 0.8, "train_s_per_epoch": 0.1}
        path = tmp_path / REGISTRY_FILENAME
        path.write_text("".join(json.dumps(line) + "\n"
                                for line in (v1, v3, live, summary))
                        + '{"config_fingerprint": "dead", "timest')

        registry = RunRegistry(tmp_path)
        records = registry.load()
        assert [r.timestamp for r in records] == [1.0, 2.0, 3.0, 4.0]
        assert registry.corrupt_lines == 1
        assert not hasattr(records[3], "summary")
        assert (records[0].workers, records[0].pool) == (1, {})
        assert records[1].artifacts == {}
        registry.append(make_record(5.0))
        assert [r.timestamp for r in registry.load()] \
            == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert registry.corrupt_lines == 1
