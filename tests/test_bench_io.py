"""Experiment persistence: JSON round trips including numpy payloads."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import load_rows, save_rows
from repro.errors import ReproError


class TestRoundTrip:
    def test_plain_rows(self, tmp_path):
        rows = [{"filter": "ppr", "mean": 0.86, "epochs": 50, "oom": False}]
        path = tmp_path / "rows.json"
        save_rows(rows, path, metadata={"experiment": "t"})
        loaded = load_rows(path)
        assert loaded == rows
        assert json.loads(path.read_text())["metadata"] == {"experiment": "t"}

    def test_numpy_scalars(self, tmp_path):
        rows = [{"mean": np.float32(0.5), "count": np.int64(3)}]
        path = tmp_path / "rows.json"
        save_rows(rows, path)
        loaded = load_rows(path)
        assert loaded[0]["mean"] == pytest.approx(0.5)
        assert loaded[0]["count"] == 3

    def test_ndarray_payload(self, tmp_path):
        embedding = np.arange(6, dtype=np.float64).reshape(3, 2)
        path = tmp_path / "rows.json"
        save_rows([{"embedding": embedding}], path)
        loaded = load_rows(path)
        np.testing.assert_array_equal(loaded[0]["embedding"], embedding)
        assert loaded[0]["embedding"].dtype == np.float64

    def test_nested_structures(self, tmp_path):
        rows = [{"params": {"theta": np.ones(3)}, "trace": [1.0, 2.0]}]
        path = tmp_path / "rows.json"
        save_rows(rows, path)
        loaded = load_rows(path)
        np.testing.assert_array_equal(loaded[0]["params"]["theta"], np.ones(3))
        assert loaded[0]["trace"] == [1.0, 2.0]

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            save_rows([{"bad": object()}], tmp_path / "x.json")

    def test_non_experiment_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ReproError):
            load_rows(path)

    def test_cli_output_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "tax.json"
        assert main(["taxonomy", "--output", str(out)]) == 0
        assert len(load_rows(out)) == 27
        assert json.loads(out.read_text())["metadata"]["experiment"] \
            == "taxonomy"
