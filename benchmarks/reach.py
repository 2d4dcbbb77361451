#!/usr/bin/env python
"""Reach run: which ``src/repro`` functions no gate ever runs.

Runs everything that gates this repo besides the tier-1 tests, each file
in its own ``pytest`` subprocess, the way CI runs it:

- the 14 paper benches (``bench_fig*.py`` and ``bench_table*.py`` but
  the full-scale Table 5) at their default epochs, each asserting its
  artifact's finding;
- ``bench_table5_fullscale.py``;
- every ``bench_*_smoke.py`` gate;
- ``bench_stream_equivalence.py`` (per-seed scores against a captured
  reference).

Every Python process of the run is profiled, including the ones a gate
starts: the run writes a ``sitecustomize.py`` into a temporary directory
and puts that directory first on ``PYTHONPATH``, so each interpreter
loads it at startup. It installs a ``sys.setprofile`` /
``threading.setprofile`` hook that appends each ``src/repro`` function
to one log file the first time it is called, keyed by its file and
first line (``co_firstlineno``, which every supported Python has; the
first decorator's line when there is one). A forked pool worker
inherits the hook; a spawned one loads it again. Each line is written
as the call happens, so a worker that leaves through ``os._exit`` loses
nothing. Module and class bodies are not functions and never count.

Writes ``reach.json`` to the current directory: each file's pytest exit
code, and every function defined under ``src/repro`` that never ran,
as ``file:line:qualname``. Exits with the first non-zero pytest code,
so a gate that fails fails the run. Usage::

    python benchmarks/reach.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
BENCH_DIR = REPO_ROOT / "benchmarks"

#: Loaded by every interpreter of the run; ``{log}`` and ``{prefix}``
#: are filled in as string literals.
_HOOK = '''\
import inspect, os, sys, threading

_FD = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_PREFIX = {prefix!r}
# Keyed by id: hashing a code object hashes its bytecode. The value
# keeps the code alive, so no later code object can reuse its id.
_SEEN = {{}}


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _SEEN:
        return
    _SEEN[id(code)] = code
    if (code.co_flags & inspect.CO_NEWLOCALS
            and code.co_filename.startswith(_PREFIX)):
        line = f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n"
        os.write(_FD, line.encode())


threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def gates() -> List[Path]:
    """Every file the run profiles, in the order it runs them."""
    return (sorted(BENCH_DIR.glob("bench_fig*.py"))
            + sorted(BENCH_DIR.glob("bench_table*.py"))
            + sorted(BENCH_DIR.glob("bench_*_smoke.py"))
            + [BENCH_DIR / "bench_stream_equivalence.py"])


def definitions(package: Path) -> Iterable[Tuple[Path, int, str]]:
    """``(file, line, qualname)`` of every function under ``package``.

    ``line`` is the function's first line as ``code.co_firstlineno``
    gives it: its first decorator's line when it has one, else the
    ``def`` line. Qualnames name it in the report: methods are
    ``Class.name`` and nested functions ``outer.<locals>.name``.
    Lambdas are left out.
    """
    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                yield path, first, prefix + node.name
                yield from walk(node.body, path,
                                f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, path, f"{prefix}{node.name}.")
            else:
                # Definitions inside if/try/with blocks keep their prefix.
                for field in ("body", "orelse", "finalbody", "handlers"):
                    inner = getattr(node, field, None)
                    if isinstance(inner, list):
                        yield from walk(inner, path, prefix)

    for path in sorted(package.rglob("*.py")):
        yield from walk(ast.parse(path.read_text()).body, path, "")


def reach(package: Path, commands: Sequence[Sequence[str]],
          root: Path, pythonpath: Sequence[Path] = ()
          ) -> Tuple[List[int], List[str]]:
    """Run ``commands`` under the hook; return exit codes and never-run.

    Each never-run function is ``file:line:qualname`` with ``file``
    relative to ``root``. ``pythonpath`` entries follow the hook's
    directory on ``PYTHONPATH``.
    """
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        log = Path(tmp) / "called.log"
        hook_dir = Path(tmp) / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK.format(
            log=str(log), prefix=str(package.resolve()) + os.sep))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), *map(str, pythonpath)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        codes = [subprocess.call(list(command), env=env)
                 for command in commands]
        called = set()
        if log.exists():
            for entry in log.read_text().splitlines():
                filename, line = entry.split("\t")
                called.add((filename, int(line)))
    never = [f"{path.relative_to(root)}:{line}:{qualname}"
             for path, line, qualname in definitions(package.resolve())
             if (str(path), line) not in called]
    return codes, never


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    files = gates()
    # pytest-benchmark pauses any profiler while it times a round;
    # --benchmark-disable makes the fixture call the bench plainly.
    commands = [[sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", "--benchmark-disable", str(path)]
                for path in files]
    codes, never = reach(PACKAGE, commands, REPO_ROOT,
                         pythonpath=[REPO_ROOT / "src"])
    defined = sum(1 for _ in definitions(PACKAGE))
    report = {"runs": {path.name: code for path, code in zip(files, codes)},
              "defined": defined, "never_ran": never}
    Path("reach.json").write_text(json.dumps(report, indent=2) + "\n")
    failed = [path.name for path, code in zip(files, codes) if code]
    print(f"== reach: {len(files)} files, {len(failed)} failed"
          f"{': ' + ', '.join(failed) if failed else ''}; "
          f"{len(never)} of {defined} functions never ran:")
    for entry in never:
        print(f"   {entry}")
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    raise SystemExit(main())
