#!/usr/bin/env python
"""Reach run: which ``src/repro`` modules the paper benches execute.

Runs every ``benchmarks/bench_fig*.py`` and ``bench_table*.py`` in this
process through ``pytest.main`` at ``REPRO_BENCH_EPOCHS=1``, with a
``sys.setprofile`` / ``threading.setprofile`` hook that records each
Python function called from a file under ``src/repro``. The hook is on
only while tests run, so the imports done at collection do not count,
and module and class bodies are skipped wherever they run. A paper
assertion that fails at one epoch still counts as reach; the step
reports how many tests failed and never gates.

Writes ``reach.json`` to the current directory: per module, the number
of functions it defines and how many of them ran, plus the modules that
define functions of which none ran. Usage::

    python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import sys
import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
BENCH_DIR = REPO_ROOT / "benchmarks"


class _Reach:
    """pytest plugin: profile each test, count the failed ones."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + os.sep
        self.called: set = set()
        self.failed = 0

    def _profile(self, frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_flags & inspect.CO_NEWLOCALS
                and not code.co_name.startswith("<")
                and code.co_filename.startswith(self.prefix)):
            self.called.add((code.co_filename, code.co_firstlineno))

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        yield
        sys.setprofile(None)
        threading.setprofile(None)

    def pytest_runtest_logreport(self, report):
        self.failed += report.failed


def _defined(path: Path) -> int:
    tree = ast.parse(path.read_text())
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(tree))


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    os.environ["REPRO_BENCH_EPOCHS"] = "1"
    benches = sorted(BENCH_DIR.glob("bench_fig*.py")) + sorted(
        BENCH_DIR.glob("bench_table*.py"))
    reach = _Reach()
    # pytest-benchmark pauses any profiler while it times a round;
    # --benchmark-disable makes the fixture call the bench plainly.
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                        *map(str, benches)], plugins=[reach])

    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        called = sum(name == str(path) for name, _ in reach.called)
        modules[str(path.relative_to(PACKAGE.parent))] = {
            "defined": _defined(path), "called": called}
    zero = [name for name, entry in modules.items()
            if entry["defined"] and not entry["called"]]
    report = {"benches": [path.name for path in benches],
              "pytest_exit_code": int(code), "failed_tests": reach.failed,
              "modules": modules, "zero_call": zero}
    Path("reach.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"== reach: {len(benches)} benches, {reach.failed} failed tests, "
          f"{len(zero)} modules with zero calls:")
    for name in zero:
        print(f"   {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
