"""The ``python -m repro.bench`` command-line interface."""

from __future__ import annotations

import functools

import pytest

from repro.bench.__main__ import EXPERIMENTS, build_parser, main


def rejects(capsys, argv, message):
    """``argv`` is a usage error whose message contains ``message``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


class TestParser:
    def test_lists_experiments(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        rejects(capsys, ["frobnicate"], "unknown experiment 'frobnicate'")

    def test_every_experiment_registered_with_artifact(self):
        artifacts = [artifact for _, artifact, _ in EXPERIMENTS.values()]
        assert any("Table 5" in a for a in artifacts)
        assert any("Figure 10" in a for a in artifacts)
        assert len(EXPERIMENTS) == 13

    def test_parser_accepts_common_flags(self):
        parser = build_parser()
        args = parser.parse_args(["effectiveness", "--datasets", "cora",
                                  "--filters", "ppr", "--epochs", "5",
                                  "--seeds", "0", "1"])
        assert args.experiment == "effectiveness"
        assert args.datasets == ["cora"]
        assert args.seeds == [0, 1]


class TestExecution:
    def test_taxonomy_runs(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Bernstein" in out
        assert "Table 1" in out

    def test_effectiveness_with_overrides(self, capsys):
        code = main(["effectiveness", "--datasets", "cora",
                     "--filters", "identity", "monomial",
                     "--epochs", "5", "--seeds", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Monomial" in out and "±" in out

    def test_regression_with_epochs(self, capsys):
        code = main(["regression", "--filters", "ppr", "--epochs", "5"])
        assert code == 0
        assert "low" in capsys.readouterr().out

    def test_capacity_gib_turns_full_batch_cells_into_oom_rows(self, tmp_path):
        """``--capacity-gib`` is the CLI's only way to the paper's (OOM)
        cells: a capacity nothing fits in yields error-free ``oom`` rows."""
        from repro.bench.io import load_rows

        output = tmp_path / "rows.json"
        code = main(["efficiency", "--datasets", "cora",
                     "--filters", "ppr", "monomial",
                     "--schemes", "full_batch", "--epochs", "2",
                     "--capacity-gib", "1e-6", "--no-registry",
                     "--output", str(output)])
        assert code == 0
        rows = load_rows(output)
        assert [row["status"] for row in rows] == ["oom", "oom"]
        assert all(row["device_bytes"] <= 1e-6 * 2 ** 30 for row in rows)

    def test_unusable_capacity_gib_rejected(self, capsys):
        for bad in ("-1", "0", "nan", "inf"):
            rejects(capsys, ["efficiency", "--capacity-gib", bad],
                    "--capacity-gib must be a finite number > 0")
        rejects(capsys, ["taxonomy", "--capacity-gib", "-5"],
                "--capacity-gib applies to efficiency and baselines only")
        rejects(capsys, ["effectiveness", "--capacity-gib", "4"],
                "--capacity-gib applies to efficiency and baselines only")


def capture_kwargs(monkeypatch, experiment):
    """Swap ``experiment``'s runner for a stub with its signature that
    records the arguments it is called with and returns no rows."""
    runner, artifact, takes_config = EXPERIMENTS[experiment]
    seen = {}

    @functools.wraps(runner)
    def stub(**kwargs):
        seen.update(kwargs)
        return []

    monkeypatch.setitem(EXPERIMENTS, experiment,
                        (stub, artifact, takes_config))
    return seen


class TestSelectionFlags:
    """A selection flag is forwarded to the runner or rejected."""

    @pytest.mark.parametrize("experiment", ["efficiency", "taxonomy",
                                            "baselines", "linkpred"])
    def test_single_seed_runner_gets_the_seed(self, monkeypatch,
                                              experiment):
        seen = capture_kwargs(monkeypatch, experiment)
        assert main([experiment, "--seeds", "3", "--no-telemetry"]) == 0
        assert seen["seed"] == 3

    def test_single_seed_runner_rejects_more_seeds(self, capsys):
        rejects(capsys, ["efficiency", "--seeds", "0", "1"],
                "efficiency takes one --seeds value, got 2")

    def test_effectiveness_takes_one_scheme(self, monkeypatch):
        seen = capture_kwargs(monkeypatch, "effectiveness")
        assert main(["effectiveness", "--schemes", "mini_batch",
                     "--no-telemetry"]) == 0
        assert seen["scheme"] == "mini_batch"

    @pytest.mark.parametrize("argv,message", [
        (["stability", "--schemes", "mini_batch"],
         "--schemes does not apply to stability"),
        (["hops", "--scale", "0.05"],
         "--scale applies to efficiency and effectiveness only"),
        (["regression", "--scale", "0.05"],
         "--scale applies to efficiency and effectiveness only"),
        (["baselines", "--filters", "ppr"],
         "--filters does not apply to baselines"),
        (["taxonomy", "--datasets", "cora"],
         "--datasets does not apply to taxonomy"),
        (["hardware", "--datasets", "cora", "roman"],
         "hardware takes one --datasets value, got 2"),
    ])
    def test_unused_flag_rejected(self, capsys, argv, message):
        rejects(capsys, argv, message)

    def test_unknown_names_rejected(self, capsys):
        rejects(capsys, ["efficiency", "--datasets", "cora", "nope"],
                "argument --datasets: invalid choice: 'nope'")
        rejects(capsys, ["effectiveness", "--filters", "ppr", "nope"],
                "argument --filters: invalid choice: 'nope'")

    def test_negative_seed_rejected(self, capsys):
        rejects(capsys, ["effectiveness", "--seeds", "-1"],
                "--seeds must be >= 0, got -1")


class TestRegistryCli:
    EFFICIENCY = ["efficiency", "--datasets", "cora", "--filters", "ppr",
                  "--schemes", "mini_batch", "--epochs", "2"]

    def _run(self, registry_dir, index):
        return main(self.EFFICIENCY + [
            "--registry-dir", str(registry_dir),
            "--trace", str(registry_dir / f"run{index}.jsonl")])

    def test_run_indexes_into_registry(self, tmp_path, capsys):
        from repro.telemetry.registry import RunRegistry

        assert self._run(tmp_path, 1) == 0
        assert "registry:" in capsys.readouterr().out
        records = RunRegistry(tmp_path).load()
        assert len(records) == 1
        assert records[0].experiment == "efficiency"
        assert records[0].stages["train"]["seconds"] > 0
        assert "self_seconds" in records[0].stages["train"]

    def test_no_registry_flag_skips_indexing(self, tmp_path, capsys):
        from repro.telemetry.registry import RunRegistry

        code = main(self.EFFICIENCY + ["--no-registry",
                                       "--registry-dir", str(tmp_path)])
        assert code == 0
        assert "registry:" not in capsys.readouterr().out
        assert RunRegistry(tmp_path).load() == []

    def test_compare_history_sparkline_report(self, tmp_path, capsys):
        """Two runs, then `--history` renders a trend row per metric."""
        assert self._run(tmp_path, 1) == 0
        assert self._run(tmp_path, 2) == 0
        capsys.readouterr()

        code = main(["compare", "--registry", "efficiency",
                     "--registry-dir", str(tmp_path), "--history", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "registry history: efficiency (last 5 runs" in out
        assert "stages.train.seconds" in out
        assert "trend" in out

    def test_history_requires_registry(self, capsys):
        rejects(capsys, ["compare", "a.json", "b.json", "--history", "3"],
                "--history requires --registry SPEC")

    def test_compare_registry_end_to_end(self, tmp_path, capsys):
        """Two runs, then resolve + diff by fingerprint with no file paths."""
        from repro.telemetry.registry import RunRegistry

        assert self._run(tmp_path, 1) == 0
        assert self._run(tmp_path, 2) == 0
        capsys.readouterr()
        fingerprint = RunRegistry(tmp_path).load()[-1].config_fingerprint

        code = main(["compare", "--registry", fingerprint,
                     "--registry-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"config {fingerprint}" in out
        assert "registry diff" in out
        assert "stages.train.seconds" in out
        assert "span diff" in out            # traces existed for both runs

class TestPoolCli:
    EFFICIENCY = ["efficiency", "--datasets", "cora",
                  "--filters", "ppr", "chebyshev",
                  "--schemes", "mini_batch", "--epochs", "2"]

    def test_parser_accepts_pool_flags(self):
        parser = build_parser()
        args = parser.parse_args(["efficiency", "--workers", "4",
                                  "--cell-timeout", "600",
                                  "--max-retries", "2"])
        assert args.workers == 4
        assert args.cell_timeout == 600.0
        assert args.max_retries == 2

    def test_pool_flags_rejected_outside_grid_sweeps(self, capsys):
        rejects(capsys, ["taxonomy", "--workers", "4"],
                "--workers/--cell-timeout/--max-retries apply to the grid "
                "sweeps only")
        rejects(capsys, ["efficiency", "--workers", "0"],
                "--workers must be >= 1")
        rejects(capsys, ["efficiency", "--root-seed", "7"],
                "--root-seed applies to effectiveness only")

    def test_out_of_range_pool_and_epoch_values_rejected(self, capsys):
        rejects(capsys, ["efficiency", "--workers", "2", "--cell-timeout", "0"],
                "--cell-timeout must be > 0 seconds, got 0")
        rejects(capsys, ["efficiency", "--max-retries", "-3"],
                "--max-retries must be >= 0, got -3")
        rejects(capsys, ["efficiency", "--epochs", "0"],
                "--epochs must be >= 1, got 0")

    def test_parser_accepts_blocked_flags(self):
        parser = build_parser()
        args = parser.parse_args(["efficiency", "--blocked",
                                  "--ram-budget", "64",
                                  "--spill-dir", "/tmp/spill"])
        assert args.blocked
        assert args.ram_budget == 64.0
        assert args.spill_dir == "/tmp/spill"

    def test_blocked_flag_validation(self, capsys):
        rejects(capsys, ["efficiency", "--ram-budget", "64"],
                "--ram-budget requires --blocked")
        rejects(capsys, ["efficiency", "--spill-dir", "/tmp/x"],
                "--spill-dir requires --blocked")
        for bad in ("0", "nan", "inf"):
            rejects(capsys, ["efficiency", "--blocked", "--ram-budget", bad],
                    "--ram-budget must be a positive MiB count")
        rejects(capsys, ["efficiency", "--blocked", "--workers", "4"],
                "--blocked is serial-only")

    def test_spill_dir_naming_a_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_text("")
        for spill in (path, path / "sub"):
            rejects(capsys, ["efficiency", "--blocked",
                             "--spill-dir", str(spill)],
                    f"--spill-dir {spill} is not a directory")

    def test_blocked_run_keeps_foreign_files_in_spill_dir(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        for name in ("notes.json", "weights.npy"):
            (spill / name).write_text("mine")
        assert main(self.EFFICIENCY + [
            "--blocked", "--ram-budget", "2", "--spill-dir", str(spill),
            "--no-registry"]) == 0
        assert sorted(path.name for path in spill.iterdir()) == [
            "notes.json", "weights.npy"]

    def test_unsupported_scale_fails_at_parse_time(self, capsys):
        # Out-of-range scales error immediately with the supported range
        # in the message — not deep inside dataset generation.
        for bad in ("4.2", "0", "-0.5", "1e-9", "nan"):
            rejects(capsys, ["efficiency", "--scale", bad], "supported range")

    def test_supported_scale_parses(self):
        parser = build_parser()
        args = parser.parse_args(["efficiency", "--scale", "0.05"])
        assert args.scale == 0.05

    def test_scale_shift_accepts_workers(self):
        parser = build_parser()
        args = parser.parse_args(["scale-shift", "--workers", "2"])
        assert args.experiment == "scale-shift"
        assert args.workers == 2

    def test_pooled_run_recorded_with_worker_count(self, tmp_path, capsys):
        from repro.telemetry.registry import RunRegistry

        code = main(self.EFFICIENCY + ["--workers", "2",
                                       "--registry-dir", str(tmp_path)])
        assert code == 0
        assert "registry:" in capsys.readouterr().out
        record = RunRegistry(tmp_path).load()[0]
        assert record.workers == 2
        assert record.pool["workers"] == 2
        assert record.pool["cell_timeout"] is None
        assert record.pool["max_retries"] == 1
        # The full pool_stats block lands in the record, with one
        # per-cell entry per grid cell in grid order.
        stats = record.pool["stats"]
        assert stats["cells"] == 2 and stats["ok"] == 2
        assert stats["failed"] == 0 and stats["retries"] == 0
        assert [cell["cell"] for cell in stats["per_cell"]] == [
            "cora/mini_batch/ppr", "cora/mini_batch/chebyshev"]
        assert all(cell["status"] == "ok" and cell["attempts"] == 1
                   and cell["seconds"] >= 0.0
                   for cell in stats["per_cell"])
        assert stats["stragglers"], \
            "straggler ranking missing from the registry record"
        # One folded shard per grid cell (2 filters x 1 dataset).
        assert record.metrics["counters"]["pool.cells.ok"] == 2


class TestRegistryCliErrors:
    def test_compare_registry_unknown_spec_exits_2(self, tmp_path, capsys):
        code = main(["compare", "--registry", "feedfacefeed",
                     "--registry-dir", str(tmp_path)])
        assert code == 2
        assert "need 2" in capsys.readouterr().err

    def test_compare_rejects_mixed_modes(self, capsys):
        rejects(capsys, ["compare", "a.json", "b.json", "--registry", "abc"],
                "--registry takes no file paths")
        rejects(capsys, ["compare", "only-one.json"],
                "file mode needs exactly BASELINE and CANDIDATE paths")


class TestResumeCli:
    EFFICIENCY = ["efficiency", "--datasets", "cora", "--filters", "ppr",
                  "--schemes", "full_batch", "--epochs", "2",
                  "--scale", "0.05"]

    def test_parser_accepts_resume_flags(self):
        parser = build_parser()
        args = parser.parse_args(["efficiency", "--resume",
                                  "--artifact-dir", "store"])
        assert args.resume and not args.fresh
        assert args.artifact_dir == "store"
        args = parser.parse_args(["efficiency", "--fresh"])
        assert args.fresh and not args.resume

    def test_resume_and_fresh_are_mutually_exclusive(self, capsys):
        rejects(capsys, ["efficiency", "--resume", "--fresh"],
                "argument --fresh: not allowed with argument --resume")

    def test_artifact_dir_requires_a_mode_flag(self, capsys):
        rejects(capsys, ["efficiency", "--artifact-dir", "store"],
                "--artifact-dir requires --resume or --fresh")

    def test_resume_rejected_without_telemetry(self, capsys):
        for mode in ("--resume", "--fresh"):
            rejects(capsys, ["efficiency", mode, "--no-telemetry"],
                    "--resume/--fresh require telemetry; drop --no-telemetry")

    def test_resume_rejected_outside_grid_sweeps(self, capsys):
        for argv in (["taxonomy", "--resume"], ["regression", "--fresh"]):
            rejects(capsys, argv, "--resume/--fresh apply to the grid sweeps")

    def test_fresh_then_resume_byte_identical_and_recorded(self, tmp_path,
                                                           capsys):
        from repro.bench.io import canonical_payload, load_rows
        from repro.telemetry.registry import RunRegistry

        store_dir = tmp_path / "store"
        base = self.EFFICIENCY + ["--artifact-dir", str(store_dir),
                                  "--registry-dir", str(tmp_path / "reg")]

        out1 = tmp_path / "fresh.json"
        assert main(base + ["--fresh", "--output", str(out1)]) == 0
        fresh_out = capsys.readouterr().out
        assert "mode=fresh" in fresh_out
        assert "hit=0 miss=1 stored=1" in fresh_out

        out2 = tmp_path / "resume.json"
        assert main(base + ["--resume", "--output", str(out2)]) == 0
        resume_out = capsys.readouterr().out
        assert "mode=resume" in resume_out
        assert "hit=1 miss=0 stored=0" in resume_out

        assert canonical_payload(load_rows(out1)) \
            == canonical_payload(load_rows(out2))

        fresh_rec, resume_rec = RunRegistry(tmp_path / "reg").load()
        assert fresh_rec.config_fingerprint == resume_rec.config_fingerprint, \
            "resume mode must stay outside the config fingerprint"
        assert fresh_rec.schema.endswith("/v6")
        assert fresh_rec.artifacts["mode"] == "fresh"
        assert fresh_rec.artifacts["stored"] == 1
        assert resume_rec.artifacts["mode"] == "resume"
        assert resume_rec.artifacts["hit"] == 1
        assert resume_rec.artifacts["dir"] == str(store_dir)
        stats = resume_rec.pool["stats"]
        assert stats["cached"] == 1 and stats["ok"] == 0
        assert stats["cached"] + stats["ok"] == stats["cells"]

    def test_fresh_purges_a_stale_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        base = self.EFFICIENCY + ["--artifact-dir", str(store_dir),
                                  "--no-registry"]
        assert main(base + ["--fresh"]) == 0
        capsys.readouterr()
        assert main(base + ["--fresh"]) == 0
        captured = capsys.readouterr()
        assert "purged 1 stored cell(s)" in captured.err
        assert "hit=0 miss=1 stored=1" in captured.out

    def test_artifact_dir_naming_a_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_text("")
        for mode in ("--resume", "--fresh"):
            rejects(capsys, self.EFFICIENCY + [mode, "--artifact-dir",
                                               str(path)],
                    f"artifact store {path} is not a directory")

    def test_fresh_keeps_foreign_files_in_artifact_dir(self, tmp_path,
                                                       capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "notes.json").write_text("{}")
        assert main(self.EFFICIENCY + ["--fresh", "--artifact-dir",
                                       str(store_dir), "--no-registry"]) == 0
        assert "purged 0 stored cell(s)" in capsys.readouterr().err
        assert (store_dir / "notes.json").read_text() == "{}"

    def test_runs_without_flags_do_not_touch_the_store(self, tmp_path):
        store_dir = tmp_path / "store"
        assert main(self.EFFICIENCY + ["--no-registry"]) == 0
        assert not store_dir.exists()
