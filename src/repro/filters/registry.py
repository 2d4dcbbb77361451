"""Filter registry: the machine-readable form of the paper's Table 1.

Maps every filter name to its class, taxonomy category, asymptotic
complexity, tunable hyperparameters, and the GNN models it represents —
and provides the :func:`make_filter` factory the benchmark harness uses to
instantiate sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from ..errors import FilterError
from .bank import (
    ACMGNNFilter,
    AdaGNNFilter,
    FAGNNFilter,
    FBGNNFilter,
    FiGUReFilter,
    G2CNFilter,
    GNNLFHFFilter,
)
from .base import SpectralFilter
from .fixed import (
    GaussianFilter,
    HeatKernelFilter,
    IdentityFilter,
    ImpulseFilter,
    LinearFilter,
    MonomialFilter,
    PPRFilter,
)
from .variable import (
    BernsteinFilter,
    ChebInterpFilter,
    ChebyshevFilter,
    ClenshawFilter,
    FavardFilter,
    HornerFilter,
    JacobiFilter,
    LegendreFilter,
    LinearVariableFilter,
    MonomialVariableFilter,
    OptBasisFilter,
)


@dataclass(frozen=True)
class FilterEntry:
    """One row of Table 1."""

    name: str
    display: str
    category: str
    cls: Type[SpectralFilter]
    constructor_kwargs: Tuple[Tuple[str, object], ...] = ()
    hyperparameters: Tuple[str, ...] = ()
    time_complexity: str = "O(KmF)"
    memory_complexity: str = "O(nF)"
    models: Tuple[str, ...] = ()

    def build(self, num_hops: int = 10, num_features: Optional[int] = None,
              **overrides) -> SpectralFilter:
        kwargs = dict(self.constructor_kwargs)
        kwargs.update(overrides)
        if self.cls is AdaGNNFilter:
            if num_features is None:
                raise FilterError("AdaGNN needs num_features to size its γ bank")
            kwargs["num_features"] = num_features
        return self.cls(num_hops=num_hops, **kwargs)


def _entry(name, display, category, cls, hp=(), time="O(KmF)", memory="O(nF)",
           models=(), **ctor) -> FilterEntry:
    return FilterEntry(
        name=name,
        display=display,
        category=category,
        cls=cls,
        constructor_kwargs=tuple(ctor.items()),
        hyperparameters=tuple(hp),
        time_complexity=time,
        memory_complexity=memory,
        models=tuple(models),
    )


#: Registry in the paper's Table 5 row order.
REGISTRY: Dict[str, FilterEntry] = {
    entry.name: entry
    for entry in [
        # ---------------- fixed ----------------
        _entry("identity", "Identity", "fixed", IdentityFilter,
               time="O(KnF)", models=("MLP",)),
        _entry("linear", "Linear", "fixed", LinearFilter, models=("GCN",)),
        _entry("impulse", "Impulse", "fixed", ImpulseFilter,
               models=("SGC", "gfNN", "GZoom", "GRAND+")),
        _entry("monomial", "Monomial", "fixed", MonomialFilter,
               models=("S2GC", "AGP", "GRAND+")),
        _entry("ppr", "PPR", "fixed", PPRFilter, hp=("alpha",),
               models=("GLP", "GCNII", "APPNP", "GDC", "AGP", "GRAND+")),
        _entry("hk", "HK", "fixed", HeatKernelFilter, hp=("alpha",),
               models=("GDC", "AGP", "DGC")),
        _entry("gaussian", "Gaussian", "fixed", GaussianFilter,
               hp=("alpha", "beta"), models=("G2CN",)),
        # ---------------- variable ----------------
        _entry("linear_var", "Linear (var)", "variable", LinearVariableFilter,
               models=("GIN", "AKGNN")),
        _entry("monomial_var", "Monomial (var)", "variable",
               MonomialVariableFilter, models=("DAGNN", "GPRGNN")),
        _entry("horner", "Horner", "variable", HornerFilter,
               memory="O(2nF)", models=("ARMAGNN", "HornerGCN")),
        _entry("chebyshev", "Chebyshev", "variable", ChebyshevFilter,
               memory="O(2nF)", models=("ChebNet", "ChebBase")),
        _entry("clenshaw", "Clenshaw", "variable", ClenshawFilter,
               memory="O(3nF)", models=("ClenshawGCN",)),
        _entry("chebinterp", "ChebInterp", "variable", ChebInterpFilter,
               time="O(KmF + K^2 nF)", memory="O(2nF)", models=("ChebNetII",)),
        _entry("bernstein", "Bernstein", "variable", BernsteinFilter,
               time="O(K^2 mF)", models=("BernNet",)),
        _entry("legendre", "Legendre", "variable", LegendreFilter,
               memory="O(2nF)", models=("LegendreNet",)),
        _entry("jacobi", "Jacobi", "variable", JacobiFilter, hp=("a", "b"),
               memory="O(2nF)", models=("JacobiConv",)),
        _entry("favard", "Favard", "variable", FavardFilter,
               time="O(KmF + KnF)", memory="O(2nF)", models=("FavardGNN",)),
        _entry("optbasis", "OptBasis", "variable", OptBasisFilter,
               time="O(KmF + KnF^2)", memory="O(2nF)", models=("OptBasisGNN",)),
        # ---------------- bank ----------------
        _entry("adagnn", "AdaGNN", "bank", AdaGNNFilter,
               models=("AdaGNN",)),
        _entry("fbgnn1", "FBGNN I", "bank", FBGNNFilter, variant="I",
               time="O(QKmF + QKnF)", memory="O(QnF)", models=("FBGCN-I",)),
        _entry("fbgnn2", "FBGNN II", "bank", FBGNNFilter, variant="II",
               time="O(QKmF + QKnF)", memory="O(QnF)", models=("FBGCN-II",)),
        _entry("acmgnn1", "ACMGNN I", "bank", ACMGNNFilter, variant="I",
               time="O(QKmF + QKnF)", memory="O(QnF)", models=("ACMGNN-I",)),
        _entry("acmgnn2", "ACMGNN II", "bank", ACMGNNFilter, variant="II",
               time="O(QKmF + QKnF)", memory="O(QnF)", models=("ACMGNN-II",)),
        _entry("fagnn", "FAGNN", "bank", FAGNNFilter, hp=("beta",),
               time="O(QKmF)", memory="O(QnF)", models=("FAGCN",)),
        _entry("g2cn", "G2CN", "bank", G2CNFilter,
               hp=("alpha_low", "alpha_high", "beta_low", "beta_high"),
               time="O(QKmF)", memory="O(QnF)", models=("G2CN",)),
        _entry("gnnlfhf", "GNN-LF/HF", "bank", GNNLFHFFilter,
               hp=("alpha_low", "alpha_high", "beta_low", "beta_high"),
               time="O(QKmF)", memory="O(QnF)", models=("GNN-LF/HF",)),
        _entry("figure", "FiGURe", "bank", FiGUReFilter,
               time="O(QKmF)", memory="O(QnF)", models=("FiGURe",)),
    ]
}

FILTER_NAMES: List[str] = list(REGISTRY)


def make_filter(name: str, num_hops: int = 10,
                num_features: Optional[int] = None, **overrides) -> SpectralFilter:
    """Instantiate a filter by registry name.

    Parameters
    ----------
    name:
        One of :data:`FILTER_NAMES`.
    num_hops:
        Polynomial order K (paper default 10).
    num_features:
        Input width; required only by AdaGNN.
    overrides:
        Filter hyperparameters (e.g. ``alpha=0.2`` for PPR).
    """
    entry = REGISTRY.get(name)
    if entry is None:
        raise FilterError(
            f"unknown filter {name!r}; known: {', '.join(FILTER_NAMES)}"
        )
    return entry.build(num_hops=num_hops, num_features=num_features, **overrides)
