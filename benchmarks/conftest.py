"""Shared benchmark plumbing.

Every bench runs its experiment exactly once under pytest-benchmark
(``pedantic`` mode — these are minutes-long macro experiments, not
micro-kernels) and prints the paper-style table so the output can be put
side by side with the published artifact.

Environment knobs:

- ``REPRO_BENCH_EPOCHS``: training epochs per run (default 5 for
  efficiency benches, 40 for effectiveness benches).
- ``REPRO_BENCH_SCALE``: dataset scale override (default: per-class
  DEFAULT_SCALES).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.bench import render_table
from repro.telemetry import record_path_for

#: Rendered tables are also persisted here, because pytest captures stdout
#: of passing tests — `pytest benchmarks/` leaves one .txt per bench with
#: the paper-style tables for EXPERIMENTS.md.
RESULTS_DIR = Path(__file__).parent / "results"

_started_files: set = set()


def run_once(benchmark, fn, *args, **kwargs):
    """Execute an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              iterations=1, rounds=1, warmup_rounds=0)


def _current_test_slug() -> str:
    current = os.environ.get("PYTEST_CURRENT_TEST", "bench")
    name = current.split("::")[-1].split(" ")[0]
    return re.sub(r"[^A-Za-z0-9_]+", "_", name) or "bench"


def emit(rows, columns=None, title=None):
    """Print a rendered table and persist it under benchmarks/results/."""
    text = render_table(rows, columns=columns, title=title)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{_current_test_slug()}.txt"
    mode = "a" if path in _started_files else "w"
    _started_files.add(path)
    with open(path, mode) as handle:
        handle.write(text + "\n\n")


def env_epochs(default: int) -> int:
    return int(os.environ.get("REPRO_BENCH_EPOCHS", default))


def env_scale():
    value = os.environ.get("REPRO_BENCH_SCALE")
    return float(value) if value else None


def read_run_record(result_path: Path) -> dict:
    """The run record the CLI wrote beside ``result_path``; a missing
    record, or one that does not parse, raises and fails the gate."""
    return json.loads(record_path_for(result_path).read_text())
