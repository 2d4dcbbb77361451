"""``benchmarks/reach.py`` on a stub package: it lists exactly the
functions that no process of the run ever called."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

REACH = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"

STUB = textwrap.dedent("""\
    def in_process():
        return 1


    def in_fork():
        return 2


    def in_subprocess():
        return 3


    def never():
        return 4


    class Box:
        def method(self):
            def inner():
                return 5
            return inner()

        @staticmethod
        @lambda f: f
        def decorated():
            return 6
""")

#: Calls all but ``never``: ``in_fork`` only in a forked child that
#: leaves through ``os._exit``, ``in_subprocess`` only in a new
#: interpreter, which loads the hook through ``PYTHONPATH``. A method
#: and its nested function must match their definitions, and so must a
#: function under two decorators, whose code starts at the first one.
SCRIPT = textwrap.dedent("""\
    import os, subprocess, sys
    import stub.mod as mod

    mod.in_process()
    mod.Box().method()
    mod.Box.decorated()
    pid = os.fork()
    if pid == 0:
        mod.in_fork()
        os._exit(0)
    os.waitpid(pid, 0)
    subprocess.run([sys.executable, "-c",
                    "import stub.mod as mod; mod.in_subprocess()"],
                   check=True)
""")


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_exactly_the_function_that_never_ran(tmp_path):
    reach = _load_reach()
    package = tmp_path / "stub"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(STUB)
    script = tmp_path / "script.py"
    script.write_text(SCRIPT)

    codes, never = reach.reach(package, [[sys.executable, str(script)]],
                               root=tmp_path, pythonpath=[tmp_path])

    assert codes == [0]
    assert never == ["stub/mod.py:13:never"]
