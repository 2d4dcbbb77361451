"""Spectral graph filters: the paper's Table 1 taxonomy, unified.

27 filters across three categories, each usable under full-batch training
(gradients through propagation), mini-batch precompute, and exact spectral
response analysis — from a single basis-recurrence definition.
"""

from .bank import (
    ACMGNNFilter,
    AdaGNNFilter,
    FAGNNFilter,
    FBGNNFilter,
    FiGUReFilter,
    FilterBank,
    G2CNFilter,
    GNNLFHFFilter,
)
from .base import (
    ParamSpec,
    PropagationContext,
    SpectralContext,
    SpectralFilter,
)
from .fixed import (
    GaussianFilter,
    HeatKernelFilter,
    IdentityFilter,
    ImpulseFilter,
    LinearFilter,
    MonomialFilter,
    PPRFilter,
)
from .registry import (
    BANK_NAMES,
    FILTER_NAMES,
    FIXED_NAMES,
    REGISTRY,
    VARIABLE_NAMES,
    FilterEntry,
    make_filter,
    taxonomy_table,
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

__all__ = [
    "SpectralFilter",
    "ParamSpec",
    "PropagationContext",
    "SpectralContext",
    "make_filter",
    "taxonomy_table",
    "FilterEntry",
    "REGISTRY",
    "FILTER_NAMES",
    "FIXED_NAMES",
    "VARIABLE_NAMES",
    "BANK_NAMES",
    "IdentityFilter",
    "LinearFilter",
    "ImpulseFilter",
    "MonomialFilter",
    "PPRFilter",
    "HeatKernelFilter",
    "GaussianFilter",
    "LinearVariableFilter",
    "MonomialVariableFilter",
    "HornerFilter",
    "ChebyshevFilter",
    "ChebInterpFilter",
    "ClenshawFilter",
    "BernsteinFilter",
    "LegendreFilter",
    "JacobiFilter",
    "FavardFilter",
    "OptBasisFilter",
    "FilterBank",
    "AdaGNNFilter",
    "FBGNNFilter",
    "ACMGNNFilter",
    "FAGNNFilter",
    "G2CNFilter",
    "GNNLFHFFilter",
    "FiGUReFilter",
]
