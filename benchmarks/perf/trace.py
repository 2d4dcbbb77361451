"""Outside-in span tracer for the perf benchmark.

Nothing inside ``src/`` is instrumented: :class:`Tracer` wraps each
layer's public callables *from here*, records ``{name, start, end, parent,
cell, pid}`` spans in memory, and restores every patched attribute on
:meth:`Tracer.uninstall`. A layer's self time is its span's duration minus
the part of that interval its child spans cover (:func:`self_times`).

Pool workers are forked with the wrappers already in place, so their
spans would die with them; the ``bench.cell`` wrapper therefore dumps a
worker's spans to ``spill_dir`` when the cell returns and the parent
adopts them under the span that was open at fork time.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Span record layout (a list, so a trace of tens of thousands of spans
#: stays cheap to record and compact on disk).
NAME, START, END, PARENT, CELL, PID = range(6)
COLUMNS = ["name", "start_s", "end_s", "parent", "cell", "pid"]

#: Backward closures are attributed to the op family that created the
#: node (``Tensor._op``); ops not listed stay in ``autodiff.backward``'s
#: self time.
BACKWARD_FAMILY = {
    "spmm": "autodiff.spmm_csr.bwd",
    "spmm_coo": "autodiff.spmm_coo.bwd",
    "matmul": "autodiff.matmul.bwd",
    "add": "autodiff.ewise.bwd",
    "sub": "autodiff.ewise.bwd",
    "mul": "autodiff.ewise.bwd",
    "neg": "autodiff.ewise.bwd",
}

#: Spans the harness itself opens around the calls into the program;
#: their self time is what no layer wrapper accounts for.
HARNESS_SPANS = ("training.fit", "bench.grid", "bench.cell")


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self, spill_dir: Optional[Path] = None):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.cell: Optional[str] = None
        self.spill_dir = spill_dir
        self._stack: List[int] = []
        self._patches: List[tuple] = []   # (owner, attribute, original)
        self._owner_pid = self._pid = os.getpid()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.cell, self._pid])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        """An explicit span (the harness's own enclosing spans); ``cell``
        labels every span opened inside it."""
        previous = self.cell
        if cell is not None:
            self.cell = cell
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.cell = previous

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name, fn: Callable) -> Callable:
        """Time every call of ``fn`` as a span.

        ``name`` is a string, or a callable ``(args, kwargs) -> str | None``
        for callables whose layer depends on an argument; ``None`` calls
        straight through.
        """
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = fixed or name(args, kwargs)
            if label is None:
                return fn(*args, **kwargs)
            index = self._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time each ``next()`` of the generator ``fn`` returns as a span
        (the consumer's work between two yields is not the generator's)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_function(self, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` at every ``repro.*`` import site.

        ``from x import f`` binds ``f`` in the importer's namespace, so
        patching the defining module alone would miss those callers.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def patch_method(self, cls: type, method: str, name,
                     subclasses: bool = False) -> None:
        """Wrap ``cls.method`` (every alias of it, e.g. ``__radd__``), and
        each subclass override when ``subclasses`` is set."""
        classes = [cls]
        if subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                classes.append(sub)
                pending.extend(sub.__subclasses__())
        for klass in classes:
            original = klass.__dict__.get(method)
            if original is None:
                continue
            replacement = self.wrap(name, original)
            for attribute, value in list(klass.__dict__.items()):
                if value is original:
                    self._patch(klass, attribute, replacement)

    def install(self) -> None:
        """Wrap the public callables of every layer (see README table)."""
        import repro.filters  # noqa: F401  (loads every filter subclass)
        from repro.autodiff import functional, optim, sparse
        from repro.autodiff.tensor import Tensor
        from repro.bench import experiments
        from repro.datasets import synthesis
        from repro.filters import base as filters_base
        from repro.graph.graph import Graph
        from repro.models.decoupled import DecoupledModel, MiniBatchModel
        from repro.runtime import cache, plan, pool

        def spmm_name(args, kwargs):
            backend = kwargs.get("backend", args[2] if len(args) > 2 else "csr")
            if backend == "coo_gather":
                matrix, dense = args[0], args[1]
                self.counters["autodiff.spmm_coo.msg_bytes"] += (
                    matrix.nnz * dense.shape[1] * dense.data.itemsize)
                return "autodiff.spmm_coo"
            return "autodiff.spmm_csr"

        def backward_name(args, kwargs):
            return BACKWARD_FAMILY.get(args[0]._op)

        for original, name in [
            (synthesis.synthesize, "datasets.synthesize"),
            (sparse.spmm, spmm_name),
            (sparse.spmm_numpy, "autodiff.spmm_numpy"),
            (functional.dropout, "autodiff.dropout"),
            (functional.cross_entropy, "autodiff.cross_entropy"),
            (filters_base._combine, "filters.combine"),
            (cache.transpose_csr, "runtime.cache.transpose"),
            (pool.execute_cells, "runtime.pool.execute"),
        ]:
            self.patch_function(original, self.wrap(name, original))
        self.patch_function(
            plan.chain_bases,
            self.wrap_generator("runtime.plan.chain_bases", plan.chain_bases))
        self.patch_function(experiments._efficiency_cell,
                            self._wrap_cell(experiments._efficiency_cell))

        self.patch_method(Graph, "normalized_adjacency", "graph.normalize")
        for dunder in ("__add__", "__sub__", "__mul__", "__neg__"):
            self.patch_method(Tensor, dunder, "autodiff.ewise")
        self.patch_method(Tensor, "__matmul__", "autodiff.matmul")
        self.patch_method(Tensor, "backward", "autodiff.backward")
        self.patch_method(Tensor, "_accumulate_parent_grads", backward_name)
        self.patch_method(optim.Adam, "step", "autodiff.optim_step")
        for method in ("forward", "precompute", "batch_combine"):
            self.patch_method(filters_base.SpectralFilter, method,
                              f"filters.{method}", subclasses=True)
        for model in (DecoupledModel, MiniBatchModel):
            self.patch_method(model, "forward", "models.forward")

    def uninstall(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # sweep cells (inline or in a forked pool worker)
    # ------------------------------------------------------------------
    def _wrap_cell(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(**kwargs):
            # A pool worker is a fork taken with these wrappers in place:
            # only here can the recording process have changed.
            self._pid = os.getpid()
            first = len(self.spans)
            try:
                with self.span("bench.cell", kwargs.get("filter_name")):
                    return fn(**kwargs)
            finally:
                if self._pid != self._owner_pid and self.spill_dir is not None:
                    self._spill(first)
        return traced

    def _spill(self, first: int) -> None:
        """Worker side: persist the spans recorded since the cell started.

        Parents inside the dump become offsets into it; a parent the
        worker inherited at fork time (an index that is also valid in the
        parent process) is encoded as ``-2 - index``, which leaves ``-1``
        meaning "no parent".
        """
        rows = []
        for row in self.spans[first:]:
            row = list(row)
            row[PARENT] = (row[PARENT] - first if row[PARENT] >= first
                           else -2 - row[PARENT])
            rows.append(row)
        path = self.spill_dir / f"spans-{self._pid}-{first}.json"
        path.write_text(json.dumps({"rows": rows,
                                    "counters": dict(self.counters)}))

    def adopt_spills(self) -> None:
        """Parent side: merge and delete the workers' span dumps."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            base = len(self.spans)
            for row in payload["rows"]:
                row[PARENT] = (base + row[PARENT] if row[PARENT] >= 0
                               else -2 - row[PARENT])
                self.spans.append(row)
            for key, value in payload["counters"].items():
                self.counters[key] += value
            path.unlink()


# ======================================================================
# analysis
# ======================================================================
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus the union of child intervals.

    The union (not the sum) matters once children overlap — two pool
    workers running under one ``runtime.pool.execute`` span cover its
    interval once, not twice.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for row in spans:
        if row[PARENT] >= 0:
            children[row[PARENT]].append((row[START], row[END]))
    result = []
    for index, row in enumerate(spans):
        start, end = row[START], row[END]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(max(0.0, (end - start) - covered))
    return result


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` is inclusive time of the outermost spans of a name only (a
    filter bank's ``forward`` calls its channels' ``forward``: counting
    both would double the interval); ``self_s`` sums every span's self
    time, which nesting cannot double-count.
    """
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, row in enumerate(spans):
        entry = totals[row[NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        ancestor = row[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != row[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            entry["busy_s"] += row[END] - row[START]
    return dict(totals)


def unattributed_share(spans: Sequence[Sequence], wall_s: float) -> float:
    """Share of the traced wall spent in the harness's own enclosing spans'
    self time, i.e. inside the program but under no layer wrapper."""
    selfs = self_times(spans)
    loose = sum(selfs[i] for i, row in enumerate(spans)
                if row[NAME] in HARNESS_SPANS)
    return loose / wall_s if wall_s > 0 else 0.0


def write_trace(path: Path, workload: str, seed: int,
                phases: Dict[str, Sequence[Sequence]]) -> None:
    """Write the spans of each phase, times re-based to the phase start."""
    payload = {"schema": "perf.trace/v1", "workload": workload, "seed": seed,
               "columns": COLUMNS, "phases": {}}
    for phase, spans in phases.items():
        origin = min((row[START] for row in spans), default=0.0)
        payload["phases"][phase] = [
            [row[NAME], round(row[START] - origin, 7),
             round(row[END] - origin, 7), row[PARENT], row[CELL], row[PID]]
            for row in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")))
