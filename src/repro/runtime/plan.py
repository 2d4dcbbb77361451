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
- a **signal fingerprint** — the identity + content token of ``X``; the
  file tiers name a chain by the signal's full :func:`signal_digest`
  instead, for the same reason;
- a **basis family + scaling** — e.g. ``("jacobi", (a, b))`` — naming
  the recurrence step;

and serves order-k terms from a bounded, instrumented term store.
Requests extend a chain incrementally: a later filter asking for a
higher order recomputes only the missing suffix, never the shared
prefix.

Each family is declared once, as a coefficient rule mapping step k to
``(operand, coefficient)`` pairs over ``Ã·prev``, ``prev``,
``prev_prev`` and ``x``, and one executor evaluates every rule: a numpy
or spectral-grid step accumulates in place into its fresh ``Ã·prev``
(one array per term plus one scratch per chain), an autodiff step is
one graph node.

**Bit-identity guarantee** (same contract as the spmm transpose cache):
the planned and unplanned paths run the *same executor*, hence the same
floating-point operations in the same order, so enabling the planner
never changes a single result bit. ``tests/test_basis_golden.py`` holds
every filter to digests captured before the rules replaced per-family
kernels, and the hypothesis suite in ``tests/test_runtime_plan.py``
holds planned to streamed.

Scope and lifetime: the store only exists inside a :func:`plan_scope`,
which installs its planner on the run context
(:mod:`repro.runtime.context`; the bench sweeps open one per sweep). The
mini-batch trainer opens none of its own: inside a sweep its precompute
is served by the sweep's planner, and a standalone fit streams, holding
only the recurrence's live terms. Scopes nest by reuse, so the store
lives for the outermost scope; a chain lives from its first reader to
its last. Before an inline sweep runs, :func:`chain_demand` derives from
each cell's filter the ``(family, params)`` chains its precompute will
read, and the executor runs each cell under
:meth:`BasisPlanner.reading`: chains the cell makes carry its label (the
dataset), and when it ends every chain whose ``(label, family, params)``
no later cell reads is released — discarded, never spilled, never counted
as an eviction. :data:`PLAN_CHAIN_ENTRIES` bounds only what the demand
did not foresee. Pool workers open a *fresh* scope per cell,
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
suffix; a chain released after its last reader is dropped, since nothing
will ask for it again. Spilled-then-reloaded terms are bit-identical by
construction, so the planner's bit-identity guarantee is unchanged. The chain store
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

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Collection, Dict, FrozenSet, Hashable,
                    Iterator, List, Optional, Sequence, Tuple)

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..autodiff.tensor import Tensor, linear_combination
from . import context
from . import shm as runtime_shm
from .cache import LRUCache, matrix_token, operator_digest

#: Fallback bound on live chains per planner. Each chain holds up to K+1
#: dense (n, F) terms. Inside a grid sweep a chain is released after its
#: last reader (:meth:`BasisPlanner.reading`), so the bound caps only the
#: chains the sweep's demand did not foresee, and planner scopes opened
#: outside a sweep.
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


#: Full digests of chain signals, one entry per signal object.
_signal_digests = LRUCache(PLAN_CHAIN_ENTRIES)


def signal_digest(x: np.ndarray) -> str:
    """Full content digest of a dense signal (32 hex chars).

    Hashes the shape, the dtype and every byte of ``x``, so unlike
    :func:`array_token` it separates two signals that differ off the
    token's sample grid. It names chains in the file tiers, where a
    chain computed for one signal must never be served for another, and
    is computed once per signal object: the memo is bound to ``x`` and its
    :func:`array_token` (:meth:`~repro.runtime.cache.LRUCache.bound`),
    like :func:`~repro.runtime.cache.operator_digest`.
    """
    def build() -> str:
        digest = hashlib.blake2b(repr((x.shape, x.dtype.str)).encode(),
                                 digest_size=16)
        digest.update(np.ascontiguousarray(x))
        return digest.hexdigest()

    return _signal_digests.bound(id(x), x, array_token(x), build,
                                 count=False)


# ======================================================================
# basis families
# ======================================================================
# A family is declared once, as coefficient rules: ``rule(k, params)``
# gives one stage of step k as ``(operand, coefficient)`` pairs whose sum
# is the stage's value. A step is one stage, except Gaussian's, which
# composes three. Operands name the stage's input ``"in"`` (T_{k-1} for
# the first stage, the previous stage's value after it), ``"adj"`` =
# Ã·in, the chain's ``"prev"`` = T_{k-1} and ``"prev_prev"`` = T_{k-2},
# and the signal ``"x"``. One executor (:func:`_stepper`) evaluates every
# rule, for streamed and planned chains and for every signal type, so
# each family has exactly one sequence of floating-point operations.


def _monomial_adj(k, params):
    """Adjacency powers: ``T_k = Ã T_{k-1}``."""
    return (("adj", 1.0),)


def _monomial_lap(k, params):
    """Laplacian powers: ``T_k = L̃ T_{k-1} = T_{k-1} − Ã T_{k-1}``."""
    return (("prev", 1.0), ("adj", -1.0))


def _chebyshev(k, params):
    """First-kind Chebyshev on ``L̂ = −Ã``: ``T_k = 2L̂T_{k-1} − T_{k-2}``."""
    if k == 1:
        return (("adj", -1.0),)
    return (("adj", -2.0), ("prev_prev", -1.0))


def _clenshaw(k, params):
    """Second-kind Chebyshev: ``U_1 = 2L̂``, ``U_k = 2L̂U_{k-1} − U_{k-2}``."""
    if k == 1:
        return (("adj", -2.0),)
    return (("adj", -2.0), ("prev_prev", -1.0))


def _legendre(k, params):
    """Legendre: ``P_k = ((2k−1)/k) L̂ P_{k-1} − ((k−1)/k) P_{k-2}``."""
    if k == 1:
        return (("adj", -1.0),)
    return (("adj", -(2.0 * k - 1.0) / k), ("prev_prev", -(k - 1.0) / k))


def _jacobi(k, params):
    """Jacobi ``P_k^{(a,b)}(1 − λ)`` (Wang & Zhang 2022 recurrence)."""
    a, b = params
    if k == 1:
        return (("x", (a - b) / 2.0), ("adj", (a + b + 2.0) / 2.0))
    denom = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
    c1 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) \
        * (2.0 * k + a + b - 2.0) / denom
    c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b) / denom
    c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b) / denom
    return (("adj", c1), ("prev", c2), ("prev_prev", -c3))


def _horner(k, params):
    """Horner residual: ``b_k = Ã b_{k-1} + x``."""
    return (("adj", 1.0), ("x", 1.0))


def _shifted_monomial(k, params):
    """FAGNN channel powers: ``T_k = s·Ã T_{k-1} + β T_{k-1}``."""
    beta, sign = params
    return (("adj", sign), ("prev", beta))


def _gaussian_shift(k, params):
    """Half a G²CN layer: ``C·H`` with ``C = βI + Ã``."""
    return (("adj", 1.0), ("in", params[1]))


def _gaussian_update(k, params):
    """One G²CN product layer: ``H ← H − (α/J)·C²H``."""
    alpha, _, layers = params
    return (("prev", 1.0), ("in", -(alpha / layers)))


@dataclass(frozen=True)
class ChainFamily:
    """One canonicalized basis recurrence the planner knows how to run."""

    name: str
    #: coefficient rules, one per stage of a step.
    stages: Tuple[Callable, ...]
    #: spmm applications per recurrence step (what a served term avoids).
    spmm_per_step: int = 1
    #: recurrence history: 2 for three-term recurrences, else 1.
    history: int = 1


FAMILIES: Dict[str, ChainFamily] = {
    family.name: family
    for family in (
        ChainFamily("monomial_adj", (_monomial_adj,)),
        ChainFamily("monomial_lap", (_monomial_lap,)),
        ChainFamily("chebyshev", (_chebyshev,), history=2),
        ChainFamily("clenshaw", (_clenshaw,), history=2),
        ChainFamily("legendre", (_legendre,), history=2),
        ChainFamily("jacobi", (_jacobi,), history=2),
        ChainFamily("horner", (_horner,)),
        ChainFamily("shifted_monomial", (_shifted_monomial,)),
        ChainFamily("gaussian", (_gaussian_shift, _gaussian_shift,
                                 _gaussian_update), spmm_per_step=2),
    )
}


def _node(terms: List[Tensor], coefficients: List[float]) -> Tensor:
    """One graph node for ``Σ c·t``, as the plain expression builds it."""
    if len(terms) == 1 and coefficients[0] in (1.0, -1.0):
        return terms[0] if coefficients[0] == 1.0 else -terms[0]
    if len(terms) == 2 and coefficients[0] == 1.0 \
            and coefficients[1] in (1.0, -1.0):
        return terms[0] + terms[1] if coefficients[1] == 1.0 \
            else terms[0] - terms[1]
    return linear_combination(terms, coefficients)


def _stepper(ctx, x, family: ChainFamily, params: Tuple) -> Callable:
    """The executor of one chain: ``step(k, prev_prev, prev)`` is T_k.

    Tensor signals get one graph node per stage (:func:`_node`). Numpy
    and spectral-grid signals accumulate in place into the stage's fresh
    array — ``Ã·in``, or in a stage that applies no Ã the previous
    stage's value — in the rule's term order: a ±1 coefficient is an add
    or a subtract, any other goes through one scratch buffer the chain
    reuses. Only the first two terms of a sum commute exactly, so the
    fresh array must be one of them. Every form rounds as the plain
    expression ``Σ c·t`` does (IEEE rounding is sign-symmetric, so a
    negation folded into a coefficient or an add moves no bit), which is
    what keeps streamed, planned and full-batch chains bit-identical.
    """
    scratch = None

    def sum_in_place(terms, coefficients, fresh):
        nonlocal scratch
        out = terms[fresh]
        # ``out`` holds −Σ while ``negated``; the next +1 or scaled term
        # flips it back in its own pass (t − s), so −1 rarely costs one.
        negated = coefficients[fresh] == -1.0
        if not negated and coefficients[fresh] != 1.0:
            np.multiply(out, coefficients[fresh], out=out)
        for index, (term, c) in enumerate(zip(terms, coefficients)):
            if index == fresh:
                continue
            if c not in (1.0, -1.0):
                if scratch is None:  # every Ã·in of a chain is alike
                    scratch = np.empty_like(out)
                np.multiply(term, c, out=scratch)
                term, c = scratch, 1.0
            if negated and c == 1.0:
                np.subtract(term, out, out=out)  # −s + t = t − s
                negated = False
            elif negated or c == 1.0:
                np.add(out, term, out=out)  # s + t, or −s − t = −(s + t)
            else:
                np.subtract(out, term, out=out)
        if negated:
            np.negative(out, out=out)
        return out

    def stage(rule, k, inputs, owned):
        pairs = rule(k, params)
        adj = ctx.adj(inputs["in"]) \
            if any(name == "adj" for name, _ in pairs) else None
        terms = [adj if name == "adj" else inputs[name] for name, _ in pairs]
        coefficients = [c for _, c in pairs]
        if isinstance(x, Tensor):
            return _node(terms, coefficients)
        fresh = next(index for index, (name, _) in enumerate(pairs)
                     if name == "adj" or (owned and name == "in"))
        return sum_in_place(terms, coefficients, fresh)

    def step(k, prev_prev, prev):
        inputs = {"in": prev, "prev": prev, "prev_prev": prev_prev, "x": x}
        for index, rule in enumerate(family.stages):
            inputs["in"] = stage(rule, k, inputs, owned=index > 0)
        return inputs["in"]

    return step


def stream_chain(ctx, x, family: str, params: Tuple, count: int):
    """Unplanned chain evaluation: yield ``count`` terms, windowed.

    A sliding window of at most :attr:`ChainFamily.history` previous
    terms, no term storage, through the same executor as the planner;
    works on numpy, Tensor, and spectral-grid signals alike.
    """
    fam = FAMILIES[family]
    step = _stepper(ctx, x, fam, params)
    prev_prev = None
    prev = x
    yield x
    for k in range(1, count):
        term = step(k, prev_prev, prev)
        yield term
        prev_prev = prev if fam.history == 2 else None
        prev = term


# ======================================================================
# term store
# ======================================================================
@dataclass
class _ChainEntry:
    #: ``terms[0]`` is the signal itself; computed terms are read-only.
    terms: List[Any]
    #: Content fingerprint naming the chain's files in the spill and
    #: shared tiers (``None`` while neither is active).
    fingerprint: Optional[str] = None
    #: RAM held by locally-computed terms (terms served by a file tier
    #: are excluded), driving the blocked tier's budget eviction.
    resident_bytes: int = 0
    #: The label of the grid cell that made the chain (its dataset);
    #: ``None`` for a chain made outside :meth:`BasisPlanner.reading`.
    label: Hashable = None


class BasisPlanner:
    """Bounded, instrumented store of basis chains for one sweep scope.

    Chains are keyed by (operator identity + mutation token + backend,
    signal identity + mutation token, family, scaling params) and extend
    incrementally: serving ``count`` terms reuses the stored prefix and
    computes only the missing suffix through the chain executor.
    Computed terms are returned read-only — they are shared across
    filters, so a consumer mutating one would corrupt its siblings;
    making that a loud ``ValueError`` instead of silent corruption is
    part of the bit-identity contract.
    """

    def __init__(self):
        self._chains = LRUCache(PLAN_CHAIN_ENTRIES,
                                counter_prefix="plan.chains",
                                on_evict=self._on_evict)
        self._lock = threading.RLock()
        #: Label stamped on the chains made now (:meth:`reading`).
        self._label: Hashable = None

    @property
    def resident_bytes(self) -> int:
        """RAM held by the live chains' locally-computed terms.

        Summed over the store (at most :data:`PLAN_CHAIN_ENTRIES`
        entries) rather than kept as a running total, so a chain that
        leaves by any path — eviction, release, a collected operator, a
        failed mutation token — leaves the sum with it.
        """
        return sum(bound[2].resident_bytes
                   for _, bound in self._chains.items())

    @contextmanager
    def reading(self, label: Hashable,
                later: Collection[Tuple[Hashable, str, Tuple]]
                ) -> Iterator[None]:
        """Run one grid cell: the chains it makes carry ``label``.

        When the body ends, every labelled chain whose ``(label, family,
        params)`` is not in ``later`` — the chains later cells read
        (:func:`read_schedule`) — is released: discarded from the store,
        neither spilled nor counted as an eviction. Chains made outside
        any cell carry no label and stay under the LRU bound alone.
        """
        self._label = label
        try:
            yield
        finally:
            self._label = None
            with self._lock:
                for key, bound in self._chains.items():
                    made_by = bound[2].label
                    if made_by is not None \
                            and (made_by, key[3], key[4]) not in later:
                        self._chains.discard(key)

    def _on_evict(self, key: Any, bound: Tuple) -> None:
        """Chain eviction: count dropped terms and, under a blocked
        tier, spill them to disk so re-requests map instead of
        recompute. ``bound`` is the stored ``(ref, token, entry)``."""
        entry: _ChainEntry = bound[2]
        dropped = max(len(entry.terms) - 1, 0)
        if dropped:
            telemetry.inc_counter("plan.terms.evict", dropped)
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
            telemetry.inc_counter("plan.terms.spill", spilled)

    def _enforce_term_budget(self, current_key: Any) -> None:
        """Shed least-recent chains while resident term bytes exceed the
        blocked tier's budget (never the chain being served)."""
        tier = context.current().tier
        if tier is None:
            return
        while self.resident_bytes > tier.term_budget_bytes \
                and len(self._chains) > 1:
            if self._chains.pop_lru(skip=current_key) is None:
                break

    def chain_terms(self, ctx, x: np.ndarray, family: str, params: Tuple,
                    count: int) -> Sequence[np.ndarray]:
        """Serve ``count`` chain terms, computing only the missing suffix."""
        fam = FAMILIES[family]
        matrix = ctx.matrix
        key = (id(matrix), ctx.backend, id(x), fam.name, params)
        # Bound to the operator object; the signal is validated by token.
        token = (matrix_token(matrix), array_token(x))
        with self._lock:
            entry = self._chains.bound(
                key, matrix, token,
                lambda: _ChainEntry([x], label=self._label))
            run = context.current()
            if entry.fingerprint is None and (
                    run.tier is not None or run.active_handle is not None):
                entry.fingerprint = runtime_shm.chain_fingerprint(
                    operator_digest(matrix), ctx.backend,
                    signal_digest(x), fam.name, params)
            hits = max(min(len(entry.terms), count) - 1, 0)
            if hits:
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
        telemetry.inc_counter("plan.spmm_avoided",
                              len(terms) * fam.spmm_per_step)

    def _extend_chain(self, ctx, x, fam: ChainFamily, params: Tuple,
                      count: int, entry: _ChainEntry) -> None:
        """Extend a chain to ``count`` terms through the file tiers.

        Both tiers hold the chain's terms as files named by one content
        fingerprint (:func:`repro.runtime.shm.term_name`) and serve them
        read-only — the shared store as heap copies, the spill tier as
        maps — bit-identical by construction (whoever wrote
        them ran the same executor this process would have). The
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
                telemetry.inc_counter("plan.terms.spill_load", len(loaded))
        first_order = len(entry.terms)
        computed: List[np.ndarray] = []
        step = _stepper(ctx, x, fam, params)
        try:
            while len(entry.terms) < count:
                k = len(entry.terms)
                term = step(k, entry.terms[-2] if k >= 2 else None,
                            entry.terms[-1])
                term.setflags(write=False)
                entry.terms.append(term)
                computed.append(term)
                entry.resident_bytes += int(term.nbytes)
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
        """Drop every chain (scope exit, tests)."""
        with self._lock:
            self._chains.clear()


# ======================================================================
# scope management
# ======================================================================
@contextmanager
def plan_scope(fresh: bool = False) -> Iterator[BasisPlanner]:
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
    planner = BasisPlanner()
    try:
        with context.using(planner=planner):
            yield planner
    finally:
        planner.clear()


def chain_demand(filter_) -> FrozenSet[Tuple[str, Tuple]]:
    """The ``(family, params)`` chains ``filter_``'s precompute reads.

    Runs the filter's own channel fill — what
    :meth:`~repro.filters.base.SpectralFilter.precompute` runs — on a
    one-point :class:`~repro.filters.base.SpectralContext` whose
    ``requests`` set :func:`chain_bases` adds each request to. No spmm
    runs and no filter declares its chains a second time.
    """
    from ..filters.base import SpectralContext  # filters import this module

    probe = SpectralContext(np.zeros(1), requests=set())
    filter_._fill_channels(probe, np.ones(1),
                           np.empty((1, filter_._channel_count())))
    return frozenset(probe.requests)


def read_schedule(reads: Sequence[Tuple[Hashable, Collection[Tuple]]]
                  ) -> List[Tuple[Hashable, FrozenSet[Tuple]]]:
    """Each cell's :meth:`BasisPlanner.reading` arguments, in grid order.

    ``reads`` holds, per cell to run, its label and the ``(family,
    params)`` chains it reads (:func:`chain_demand`). A cell's ``later``
    is every ``(label, family, params)`` some cell after it reads.
    """
    schedule: List[Tuple[Hashable, FrozenSet[Tuple]]] = []
    later: FrozenSet[Tuple] = frozenset()
    for label, chains in reversed(reads):
        schedule.append((label, later))
        later = later | {(label, family, params)
                         for family, params in chains}
    return schedule[::-1]


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
    requests = getattr(ctx, "requests", None)
    if requests is not None:
        requests.add((family, params))
    planner = context.current().active_planner
    if planner is not None and _plannable(ctx, x):
        yield from planner.chain_terms(ctx, x, family, params, count)
        return
    yield from stream_chain(ctx, x, family, params, count)
