"""repro.runtime.plan — cross-filter basis-term propagation planner.

Every filter in the taxonomy reduces to ``g(L̃)x = Σ θ_k T^(k)(L̃)x``, and
the benchmark's grid sweeps run many filters back-to-back on the *same*
graph, *same* features, and *same* normalization ρ. The basis chains are
therefore a cross-filter common subexpression: six of the fixed/variable
filters share the monomial prefix ``x, Ãx, Ã²x, …`` outright, Chebyshev
and its interpolated variant share one recurrence chain, BernNet's
Laplacian-power stage is the same chain FBGNN/ACMGNN/AdaGNN precompute,
and so on. Without planning the sweep pays for each chain once per
filter × seed; with it, once per (operator, signal, basis family).

The planner canonicalizes each filter's recurrence into a *chain*:

- an **operator fingerprint** — the propagation matrix's identity plus
  the mutation token from :func:`repro.runtime.cache.matrix_token` (the
  matrix itself already encodes ρ/self-loops via the per-graph
  normalization memo) and the spmm backend; the file tiers name a chain
  by the operator's full :func:`~repro.runtime.cache.operator_digest`
  instead, since a sampled token cannot tell two unweighted graphs with
  the same node and edge counts apart;
- a **signal fingerprint** — the identity + content token of ``X``;
- a **basis family + scaling** — e.g. ``("jacobi", (a, b))`` — naming
  the recurrence step;

and serves order-k terms from a bounded, instrumented term store.
Requests extend a chain incrementally: a later filter asking for a
higher order recomputes only the missing suffix, never the shared
prefix. Recurrence steps run through preallocated ping-pong scratch
buffers (dirty-checked per shape/dtype) so the planned numpy path
allocates one fresh array per stored term and zero per-step temporaries.

**Bit-identity guarantee** (same contract as the spmm transpose cache):
the planned and unplanned paths execute the *same floating-point
operations in the same order* — the in-place kernels mirror the
streaming expressions ufunc by ufunc — so enabling the planner never
changes a single result bit. The hypothesis suite in
``tests/test_runtime_plan.py`` holds every family to this property.

Scope and lifetime: the store only exists inside a :func:`plan_scope`,
which installs its planner on the run context
(:mod:`repro.runtime.context`; the bench sweeps open one per sweep). The
mini-batch trainer opens none of its own: inside a sweep its precompute
is served by the sweep's planner, and a standalone fit streams, holding
only the recurrence's live terms. Scopes nest by reuse, so chains live
for the outermost scope. Pool workers open a *fresh* scope per cell,
which keeps worker runs deterministic regardless of start method — and
means ``ops.spmm.calls`` legitimately depends on the execution mode when
the planner is on (serial sweeps share across cells; an isolated
worker's local store cannot). The cross-process shared term store
(:mod:`repro.runtime.shm`, on by default for pooled sweeps) closes that
gap: :meth:`BasisPlanner.chain_terms` consults the sweep's store
directory before computing a chain suffix and publishes what it
computed, so sibling workers map the identical bytes instead of
recomputing. Tensor (autodiff) and spectral-grid signals always stream:
caching per-epoch activations would be useless and planning must never
capture autodiff graphs.

Bypass: the run config's ``plan`` switch (``--no-plan``,
``context.using(plan=False)``) or its ``cache`` switch (``--no-cache``)
turns the context's ``active_planner`` off at serve time; filters then
stream exactly what the seed code computed.

Spill tier: while the run context carries a blocked tier
(:mod:`repro.runtime.blocked`, ``--blocked``) the store gains a
disk-backed level. Evicting a chain — by LRU capacity or
because resident term bytes exceed the tier's byte budget — writes its
computed ``T^(k)(L̃)·X`` terms to the tier's spill directory (a
:class:`~repro.runtime.files.ArrayFiles` of ``.npy`` files named by the
chain's content fingerprint + order, like the shared store's) instead
of dropping them; a later request for the same chain maps the identical
bytes back read-only (``numpy.memmap``) rather than recomputing the spmm
suffix. Spilled-then-reloaded terms are bit-identical by construction,
so the planner's bit-identity guarantee is unchanged. The chain store
itself is an :class:`~repro.runtime.cache.LRUCache` whose ``on_evict``
hook does the spilling.

Counters emitted (when telemetry is configured):

- ``plan.terms.{hit,miss,evict}`` — order-k≥1 term traffic in the store.
- ``plan.terms.{spill,spill_load}`` — terms written to / mapped back
  from the blocked tier's spill directory (zero without a blocked tier).
- ``plan.spmm_avoided`` — spmm applications *not* executed because the
  term was served (a Gaussian chain term avoids 2 per hit).
- ``plan.chains.{hit,miss,evict}`` — chain-level LRU traffic.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..autodiff.tensor import Tensor, linear_combination
from . import context
from . import shm as runtime_shm
from .cache import LRUCache, MISSING, matrix_token, operator_digest

#: Default bound on live chains per planner. Each chain holds up to K+1
#: dense (n, F) terms, so the bound — not the term count — is what caps
#: host RAM growth; a sweep touches ~2-4 distinct chains per dataset.
PLAN_CHAIN_ENTRIES = 8


def array_token(array: np.ndarray) -> Tuple:
    """Cheap mutation fingerprint of a dense signal's payload.

    The signal-side analogue of :func:`repro.runtime.cache.matrix_token`:
    shape, dtype, and a strided checksum (≤ 64 samples plus the exact
    endpoints), so an in-place edit of ``X`` invalidates every chain
    keyed on it with overwhelming probability.
    """
    data = np.asarray(array)
    size = int(data.size)
    if size == 0:
        checksum = 0.0
    else:
        flat = data.reshape(-1) if data.flags["C_CONTIGUOUS"] \
            else np.ravel(data)
        stride = max(1, size // 64)
        sample = flat[::stride]
        checksum = float(np.asarray(sample, dtype=np.float64).sum())
        checksum += float(flat[0]) * 3.0 + float(flat[-1]) * 7.0
    return (tuple(data.shape), data.dtype.str, checksum)


# ======================================================================
# basis families
# ======================================================================
# Each step function computes term k (k >= 1) of its recurrence from the
# window (prev_prev, prev); ``prev_prev`` is None at k == 1. With
# ``ws=None`` the step evaluates the plain streaming expression (numpy
# arrays and spectral-grid signals) or, for autodiff Tensors, the same
# expression as one fused ``linear_combination`` node wherever it would
# otherwise be several; with a Workspace it runs the numpy in-place
# variant. The branches MUST stay bit-identical — that is the planner's
# contract — so edit them only together. The fused form folds signs into
# the coefficients (``(-t)·c ≡ t·(-c)``, ``a − b ≡ a + (−b)``), which IEEE
# rounding, being sign-symmetric, cannot tell apart.


class Workspace:
    """Preallocated ping-pong scratch buffers for recurrence temporaries.

    ``scratch(template, slot)`` returns a reusable buffer matching the
    template's shape/dtype (slot 0 = ping, 1 = pong), dirty-checked on
    every take so a stale buffer from a different signal shape can never
    be served. Buffers only ever hold *intra-step* temporaries — stored
    chain terms are always fresh arrays — which is what makes serving
    cached terms safe without copying.
    """

    def __init__(self):
        self._buffers: Dict[Tuple, np.ndarray] = {}

    def scratch(self, template: np.ndarray, slot: int = 0) -> np.ndarray:
        key = (template.shape, template.dtype.str, int(slot))
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != template.shape \
                or buffer.dtype != template.dtype:
            buffer = self._buffers[key] = np.empty(template.shape,
                                                   dtype=template.dtype)
        return buffer

    def clear(self) -> None:
        self._buffers.clear()


def _step_monomial_adj(ctx, x, prev_prev, prev, k, params, ws=None):
    """Adjacency powers: ``T_k = Ã T_{k-1}``."""
    return ctx.adj(prev)


def _step_monomial_lap(ctx, x, prev_prev, prev, k, params, ws=None):
    """Laplacian powers: ``T_k = L̃ T_{k-1} = T_{k-1} − Ã T_{k-1}``."""
    if ws is None:
        return prev - ctx.adj(prev)
    term = ctx.adj(prev)
    np.subtract(prev, term, out=term)
    return term


def _step_chebyshev(ctx, x, prev_prev, prev, k, params, ws=None):
    """First-kind Chebyshev on ``L̂ = −Ã``: ``T_k = 2L̂T_{k-1} − T_{k-2}``."""
    if isinstance(prev, Tensor) and k > 1:
        return linear_combination((ctx.adj(prev), prev_prev), (-2.0, -1.0))
    if ws is None:
        shifted = -ctx.adj(prev)
        if k == 1:
            return shifted
        return shifted * 2.0 - prev_prev
    term = ctx.adj(prev)
    np.negative(term, out=term)
    if k == 1:
        return term
    np.multiply(term, 2.0, out=term)
    np.subtract(term, prev_prev, out=term)
    return term


def _step_clenshaw(ctx, x, prev_prev, prev, k, params, ws=None):
    """Second-kind Chebyshev: ``U_1 = 2L̂``, ``U_k = 2L̂U_{k-1} − U_{k-2}``."""
    if isinstance(prev, Tensor):
        if k == 1:
            return linear_combination((ctx.adj(prev),), (-2.0,))
        return linear_combination((ctx.adj(prev), prev_prev), (-2.0, -1.0))
    if ws is None:
        shifted = -ctx.adj(prev)
        if k == 1:
            return shifted * 2.0
        return shifted * 2.0 - prev_prev
    term = ctx.adj(prev)
    np.negative(term, out=term)
    np.multiply(term, 2.0, out=term)
    if k == 1:
        return term
    np.subtract(term, prev_prev, out=term)
    return term


def _step_legendre(ctx, x, prev_prev, prev, k, params, ws=None):
    """Legendre: ``P_k = ((2k−1)/k) L̂ P_{k-1} − ((k−1)/k) P_{k-2}``."""
    if isinstance(prev, Tensor) and k > 1:
        return linear_combination((ctx.adj(prev), prev_prev),
                                  (-(2.0 * k - 1.0) / k, -(k - 1.0) / k))
    if ws is None:
        shifted = -ctx.adj(prev)
        if k == 1:
            return shifted
        return shifted * ((2.0 * k - 1.0) / k) - prev_prev * ((k - 1.0) / k)
    term = ctx.adj(prev)
    np.negative(term, out=term)
    if k == 1:
        return term
    np.multiply(term, (2.0 * k - 1.0) / k, out=term)
    scratch = ws.scratch(term)
    np.multiply(prev_prev, (k - 1.0) / k, out=scratch)
    np.subtract(term, scratch, out=term)
    return term


def _step_jacobi(ctx, x, prev_prev, prev, k, params, ws=None):
    """Jacobi ``P_k^{(a,b)}(1 − λ)`` (Wang & Zhang 2022 recurrence)."""
    a, b = params
    if k == 1:
        if isinstance(x, Tensor):
            return linear_combination(
                (x, ctx.adj(x)), ((a - b) / 2.0, (a + b + 2.0) / 2.0))
        if ws is None:
            return x * ((a - b) / 2.0) + ctx.adj(x) * ((a + b + 2.0) / 2.0)
        term = ctx.adj(x)
        np.multiply(term, (a + b + 2.0) / 2.0, out=term)
        scratch = ws.scratch(term)
        np.multiply(x, (a - b) / 2.0, out=scratch)
        np.add(scratch, term, out=term)
        return term
    denom = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
    c1 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) \
        * (2.0 * k + a + b - 2.0) / denom
    c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b) / denom
    c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b) / denom
    if isinstance(prev, Tensor):
        return linear_combination((ctx.adj(prev), prev, prev_prev),
                                  (c1, c2, -c3))
    if ws is None:
        return ctx.adj(prev) * c1 + prev * c2 - prev_prev * c3
    term = ctx.adj(prev)
    np.multiply(term, c1, out=term)
    scratch = ws.scratch(term)
    np.multiply(prev, c2, out=scratch)
    np.add(term, scratch, out=term)
    np.multiply(prev_prev, c3, out=scratch)
    np.subtract(term, scratch, out=term)
    return term


def _step_horner(ctx, x, prev_prev, prev, k, params, ws=None):
    """Horner residual: ``b_k = Ã b_{k-1} + x``."""
    if ws is None:
        return ctx.adj(prev) + x
    term = ctx.adj(prev)
    np.add(term, x, out=term)
    return term


def _step_shifted_monomial(ctx, x, prev_prev, prev, k, params, ws=None):
    """FAGNN channel powers: ``T_k = s·Ã T_{k-1} + β T_{k-1}``."""
    beta, sign = params
    if isinstance(prev, Tensor):
        return linear_combination((ctx.adj(prev), prev), (sign, beta))
    if ws is None:
        return ctx.adj(prev) * sign + prev * beta
    term = ctx.adj(prev)
    np.multiply(term, sign, out=term)
    scratch = ws.scratch(term)
    np.multiply(prev, beta, out=scratch)
    np.add(term, scratch, out=term)
    return term


def _step_gaussian(ctx, x, prev_prev, prev, k, params, ws=None):
    """One G²CN product layer: ``H ← H − (α/J)·C²H`` with ``C = βI + Ã``."""
    alpha, beta, layers = params
    step = alpha / layers
    if isinstance(prev, Tensor):
        inner = linear_combination((ctx.adj(prev), prev), (1.0, beta))
        squared = linear_combination((ctx.adj(inner), inner), (1.0, beta))
        return linear_combination((prev, squared), (1.0, -step))
    if ws is None:
        inner = ctx.adj(prev) + prev * beta
        squared = ctx.adj(inner) + inner * beta
        return prev - squared * step
    inner = ctx.adj(prev)
    scratch = ws.scratch(inner)
    np.multiply(prev, beta, out=scratch)
    np.add(inner, scratch, out=inner)
    squared = ctx.adj(inner)
    np.multiply(inner, beta, out=scratch)
    np.add(squared, scratch, out=squared)
    np.multiply(squared, step, out=squared)
    np.subtract(prev, squared, out=squared)
    return squared


@dataclass(frozen=True)
class ChainFamily:
    """One canonicalized basis recurrence the planner knows how to run."""

    name: str
    step: Callable
    #: spmm applications per recurrence step (what a served term avoids).
    spmm_per_step: int = 1
    #: recurrence history: 2 for three-term recurrences, else 1.
    history: int = 1


FAMILIES: Dict[str, ChainFamily] = {
    family.name: family
    for family in (
        ChainFamily("monomial_adj", _step_monomial_adj),
        ChainFamily("monomial_lap", _step_monomial_lap),
        ChainFamily("chebyshev", _step_chebyshev, history=2),
        ChainFamily("clenshaw", _step_clenshaw, history=2),
        ChainFamily("legendre", _step_legendre, history=2),
        ChainFamily("jacobi", _step_jacobi, history=2),
        ChainFamily("horner", _step_horner),
        ChainFamily("shifted_monomial", _step_shifted_monomial),
        ChainFamily("gaussian", _step_gaussian, spmm_per_step=2),
    )
}


def _family(name: str) -> ChainFamily:
    family = FAMILIES.get(name)
    if family is None:
        raise KeyError(f"unknown basis family {name!r}; "
                       f"known: {', '.join(sorted(FAMILIES))}")
    return family


def stream_chain(ctx, x, family: str, params: Tuple, count: int):
    """Unplanned chain evaluation: yield ``count`` terms, windowed.

    This is the exact seed propagation path — a sliding window of at
    most :attr:`ChainFamily.history` previous terms, no term storage —
    and works on numpy, Tensor, and spectral-grid signals alike.
    """
    fam = _family(family)
    prev_prev = None
    prev = x
    yield x
    for k in range(1, count):
        term = fam.step(ctx, x, prev_prev, prev, k, params, None)
        yield term
        prev_prev = prev if fam.history == 2 else None
        prev = term


# ======================================================================
# term store
# ======================================================================
@dataclass
class _ChainEntry:
    matrix_ref: weakref.ref
    matrix_token: Tuple
    x_token: Tuple
    #: ``terms[0]`` is the signal itself; computed terms are read-only.
    terms: List[Any]
    spmm_per_step: int
    #: Content fingerprint naming the chain's files in the spill and
    #: shared tiers (``None`` while neither is active).
    fingerprint: Optional[str] = None
    #: RAM held by locally-computed terms (terms served by either file
    #: tier are memmaps and excluded), driving budget eviction.
    resident_bytes: int = 0


class BasisPlanner:
    """Bounded, instrumented store of basis chains for one sweep scope.

    Chains are keyed by (operator identity + mutation token + backend,
    signal identity + mutation token, family, scaling params) and extend
    incrementally: serving ``count`` terms reuses the stored prefix and
    computes only the missing suffix through the family's in-place
    kernels. Computed terms are returned read-only — they are shared
    across filters, so a consumer mutating one would corrupt its
    siblings; making that a loud ``ValueError`` instead of silent
    corruption is part of the bit-identity contract.
    """

    def __init__(self, capacity: int = PLAN_CHAIN_ENTRIES):
        self._chains = LRUCache(capacity, counter_prefix="plan.chains",
                                on_evict=self._on_evict)
        self._workspace = Workspace()
        self._lock = threading.RLock()
        self.terms_served = 0
        self.terms_computed = 0
        self.spmm_avoided = 0
        self.terms_spilled = 0
        self.terms_loaded = 0
        self._resident_bytes = 0

    def _on_evict(self, key: Any, entry: _ChainEntry) -> None:
        """Chain eviction: count dropped terms and, under a blocked
        tier, spill them to disk so re-requests map instead of
        recompute."""
        dropped = max(len(entry.terms) - 1, 0)
        if dropped:
            telemetry.inc_counter("plan.terms.evict", dropped)
        self._resident_bytes -= entry.resident_bytes
        entry.resident_bytes = 0
        tier = context.current().tier
        if tier is None or entry.fingerprint is None:
            return
        spilled = 0
        for order, term in enumerate(entry.terms):
            if order == 0 or isinstance(term, np.memmap):
                # The signal belongs to the caller; memmap terms are
                # already file-backed under this same fingerprint.
                continue
            try:
                if tier.spill_term(runtime_shm.term_name(
                        entry.fingerprint, order), term):
                    spilled += 1
            except OSError:
                # A full or unwritable spill directory costs a later
                # recompute of the dropped term, never the run.
                telemetry.inc_counter("blocked.spill_failed")
        if spilled:
            self.terms_spilled += spilled
            telemetry.inc_counter("plan.terms.spill", spilled)

    def _enforce_term_budget(self, current_key: Any) -> None:
        """Shed least-recent chains while resident term bytes exceed the
        blocked tier's budget (never the chain being served)."""
        tier = context.current().tier
        if tier is None:
            return
        while self._resident_bytes > tier.term_budget_bytes \
                and len(self._chains) > 1:
            if self._chains.pop_lru(skip=current_key) is None:
                break

    def chain_terms(self, ctx, x: np.ndarray, family: str, params: Tuple,
                    count: int) -> Sequence[np.ndarray]:
        """Serve ``count`` chain terms, computing only the missing suffix."""
        fam = _family(family)
        matrix = ctx.matrix
        key = (id(matrix), ctx.backend, id(x), fam.name, params)
        token = matrix_token(matrix)
        x_tok = array_token(x)

        def validate(entry: _ChainEntry) -> bool:
            return (entry.matrix_ref() is matrix
                    and entry.matrix_token == token
                    and entry.x_token == x_tok)

        with self._lock:
            entry = self._chains.get(key, validate=validate)
            if entry is MISSING:
                chains = self._chains

                def _purge(_ref, _key=key, _chains=chains):
                    _chains.discard(_key)

                entry = _ChainEntry(weakref.ref(matrix, _purge), token,
                                    x_tok, [x], fam.spmm_per_step)
                self._chains.put(key, entry)
            run = context.current()
            if entry.fingerprint is None and (
                    run.tier is not None or run.active_handle is not None):
                entry.fingerprint = runtime_shm.chain_fingerprint(
                    operator_digest(matrix), ctx.backend, x_tok, fam.name,
                    params)
            hits = max(min(len(entry.terms), count) - 1, 0)
            if hits:
                self.terms_served += hits
                self.spmm_avoided += hits * fam.spmm_per_step
                telemetry.inc_counter("plan.terms.hit", hits)
                telemetry.inc_counter("plan.spmm_avoided",
                                      hits * fam.spmm_per_step)
            if len(entry.terms) < count:
                self._extend_chain(ctx, x, fam, params, count, entry)
                self._enforce_term_budget(key)
            return list(entry.terms[:count])

    def _serve(self, entry: _ChainEntry, fam: ChainFamily,
               terms: Sequence[np.ndarray]) -> None:
        """Append file-served terms to a chain and credit the spmm saved."""
        if not terms:
            return
        entry.terms.extend(terms)
        self.terms_served += len(terms)
        self.spmm_avoided += len(terms) * fam.spmm_per_step
        telemetry.inc_counter("plan.spmm_avoided",
                              len(terms) * fam.spmm_per_step)

    def _extend_chain(self, ctx, x, fam: ChainFamily, params: Tuple,
                      count: int, entry: _ChainEntry) -> None:
        """Extend a chain to ``count`` terms through the file tiers.

        Both tiers hold the chain's terms as files named by one content
        fingerprint (:func:`repro.runtime.shm.term_name`) and serve them
        as read-only maps, bit-identical by construction (whoever wrote
        them ran the same in-place kernels this process would have). The
        shared store (the run context's ``active_handle``, pooled
        sweeps) is asked first and may hand this process the claim on the
        remainder; the spill tier (blocked tier) then maps back what
        this planner evicted earlier. Whatever is still missing is
        computed locally and published for the siblings waiting on it.
        Without either tier this is exactly the original compute loop.
        """
        run = context.current()
        shared, tier = run.active_handle, run.tier
        fingerprint = entry.fingerprint
        claimed = False
        if shared is not None:
            served, claimed = shared.plan_chain(
                fingerprint, have=len(entry.terms) - 1, want=count - 1)
            self._serve(entry, fam, served)
        if tier is not None:
            loaded = tier.load_terms(
                runtime_shm.term_name(fingerprint, order)
                for order in range(len(entry.terms), count))
            self._serve(entry, fam, loaded)
            if loaded:
                self.terms_loaded += len(loaded)
                telemetry.inc_counter("plan.terms.spill_load", len(loaded))
        first_order = len(entry.terms)
        computed: List[np.ndarray] = []
        try:
            while len(entry.terms) < count:
                k = len(entry.terms)
                prev = entry.terms[-1]
                prev_prev = entry.terms[-2] if k >= 2 else None
                term = np.asarray(fam.step(ctx, x, prev_prev, prev, k,
                                           params, self._workspace))
                if term is not x:
                    term.setflags(write=False)
                entry.terms.append(term)
                computed.append(term)
                entry.resident_bytes += int(term.nbytes)
                self._resident_bytes += int(term.nbytes)
                self.terms_computed += 1
                telemetry.inc_counter("plan.terms.miss")
        except BaseException:
            if claimed:
                shared.abandon_claim(fingerprint)
            raise
        if shared is not None and computed:
            # Opportunistic even without a claim: a waiter that timed out
            # still offers its suffix. Publishing releases the claim.
            shared.publish_terms(fingerprint, first_order, computed)
        elif claimed:
            shared.abandon_claim(fingerprint)

    def clear(self) -> None:
        """Drop every chain and scratch buffer (scope exit, tests)."""
        with self._lock:
            self._chains.clear()
            self._workspace.clear()
            self._resident_bytes = 0

    def stats(self) -> dict:
        """Local traffic summary (telemetry-independent)."""
        with self._lock:
            chain_stats = self._chains.stats()
            return {
                "chains": chain_stats["entries"],
                "chain_capacity": chain_stats["capacity"],
                "terms_served": self.terms_served,
                "terms_computed": self.terms_computed,
                "spmm_avoided": self.spmm_avoided,
                "terms_spilled": self.terms_spilled,
                "terms_loaded": self.terms_loaded,
                "resident_term_bytes": self._resident_bytes,
            }


# ======================================================================
# scope management
# ======================================================================
@contextmanager
def plan_scope(capacity: Optional[int] = None,
               fresh: bool = False) -> Iterator[BasisPlanner]:
    """Install a planner on the run context for the ``with`` body.

    A scope opened while the context already has a planner *reuses* it
    (so a scope opened inside a sweep joins the sweep's instead of
    shadowing it); ``fresh=True`` forces a new empty planner — what pool
    workers use so cell results never depend on inherited store state.
    The planner created by a scope is cleared when the scope exits.
    """
    outer = context.current().planner
    if outer is not None and not fresh:
        yield outer
        return
    planner = BasisPlanner(capacity or PLAN_CHAIN_ENTRIES)
    try:
        with context.using(planner=planner):
            yield planner
    finally:
        planner.clear()


def _plannable(ctx, x) -> bool:
    """Planner serves numpy signals over sparse propagation contexts only.

    Autodiff Tensors (full-batch training: per-epoch activations, live
    gradient graphs) and spectral-grid contexts always stream.
    """
    if getattr(ctx, "is_spectral", True):
        return False
    if not isinstance(x, np.ndarray):
        return False
    return isinstance(getattr(ctx, "matrix", None), sp.spmatrix)


def chain_bases(ctx, x, family: str, params: Tuple, count: int):
    """Yield ``count`` basis-chain terms, planned when a scope is active.

    The single entry point the filters use: with an active planner and a
    plannable (numpy over sparse operator) request, terms come from the
    shared store — bit-identical to streaming, each distinct term
    computed exactly once per scope. Everything else streams.
    """
    if count < 1:
        return
    planner = context.current().active_planner
    if planner is not None and _plannable(ctx, x):
        yield from planner.chain_terms(ctx, x, family, params, count)
        return
    yield from stream_chain(ctx, x, family, params, count)
