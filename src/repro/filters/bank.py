"""Filter banks: Q fused channels spanning different frequency ranges.

Section 3.3 of the paper frames these as ``g = ⊕_q γ_q g_q(L̃; θ)`` with a
learnable per-channel strength γ and a fusion ⊕ (sum or concatenation).
:class:`FilterBank` implements the generic machinery — channel evaluation,
fusion, mini-batch channel stacking — and each named model below is a thin
channel configuration:

- FBGNN-I/II and ACMGNN-I/II: low-pass/high-pass(/identity) linear banks;
  the "-I" variants transform channels separately (modelled as concat
  fusion feeding a shared MLP), the "-II" variants fuse first (sum).
- FAGNN: low/high channels with a β identity bias, attention-style γ.
- G²CN: two Gaussian bumps at opposite ends of the spectrum.
- GNN-LF/HF: PPR channels with a (I ∓ βL̃) pre-filter.
- FiGURe: identity + variable Monomial/Chebyshev/Bernstein channels.
- AdaGNN: a degenerate bank with Q = F per-feature linear filters, handled
  by its own class because channels act feature-wise rather than stacking.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff.tensor import (Tensor, concatenate as tensor_concat,
                               contract_channels, linear_combination,
                               stack as tensor_stack)
from ..errors import FilterError
from ..runtime import plan
from .base import Context, ParamSpec, Signal, SpectralFilter, monomial_bases
from .fixed import GaussianFilter, IdentityFilter, MonomialFilter, PPRFilter
from .variable import BernsteinFilter, ChebyshevFilter, MonomialVariableFilter


class LaplacianMonomialFilter(SpectralFilter):
    """High-pass channel: uniform average of Laplacian powers ``L̃^k``."""

    name = "monomial_hp"
    category = "fixed"

    def fixed_coefficients(self) -> np.ndarray:
        return np.full(self.num_hops + 1, 1.0 / (self.num_hops + 1))

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="lap")


class ShiftedMonomialFilter(SpectralFilter):
    """FAGNN channel: uniform powers of ``βI ± Ã`` (low/high + identity bias)."""

    name = "shifted_monomial"
    category = "fixed"

    def __init__(self, num_hops: int = 10, beta: float = 0.5, sign: float = 1.0):
        super().__init__(num_hops)
        self.beta = float(beta)
        self.sign = float(sign)

    def fixed_coefficients(self) -> np.ndarray:
        return np.full(self.num_hops + 1, 1.0 / (self.num_hops + 1))

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from plan.chain_bases(ctx, x, "shifted_monomial",
                                    (self.beta, self.sign), self.num_hops + 1)

    def hyperparameters(self) -> Dict[str, float]:
        return {"beta": self.beta, "sign": self.sign}


class PrefixedPPRFilter(PPRFilter):
    """GNN-LF/HF channel: PPR over the pre-filtered signal ``(I ∓ βL̃)x``."""

    name = "ppr_prefixed"
    category = "fixed"

    def __init__(self, num_hops: int = 10, alpha: float = 0.1,
                 beta: float = 0.5, sign: float = -1.0):
        super().__init__(num_hops, alpha=alpha)
        self.beta = float(beta)
        self.sign = float(sign)

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        prefixed = x + ctx.lap(x) * (self.sign * self.beta)
        yield from monomial_bases(ctx, prefixed, self.num_hops + 1, operator="adj")

    def hyperparameters(self) -> Dict[str, float]:
        return {"alpha": self.alpha, "beta": self.beta, "sign": self.sign}


def _fuse_concat(parts: Sequence[Signal]) -> Signal:
    if isinstance(parts[0], Tensor):
        return tensor_concat(list(parts), axis=1)
    return np.concatenate(list(parts), axis=1)


class FilterBank(SpectralFilter):
    """Generic bank: named sub-filters, learnable γ, sum or concat fusion.

    Parameters for channel q are namespaced ``<name>_q`` in the spec the
    enclosing model materializes; :meth:`forward` re-scopes them before
    delegating to each channel.
    """

    name = "bank"
    category = "bank"
    time_complexity = "O(QKmF)"
    memory_complexity = "O(QnF)"

    def __init__(self, channels: Sequence[SpectralFilter], fusion: str = "sum",
                 num_hops: int = 10):
        super().__init__(num_hops)
        if fusion not in ("sum", "concat"):
            raise FilterError(f"fusion must be 'sum' or 'concat', got {fusion!r}")
        if not channels:
            raise FilterError("a filter bank needs at least one channel")
        self.channels: List[SpectralFilter] = list(channels)
        self.fusion = fusion
        self._channel_slices: Optional[List[Tuple[int, int]]] = None

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def parameter_spec(self) -> Dict[str, ParamSpec]:
        q = len(self.channels)
        gamma = np.full(q, 1.0 / q, dtype=np.float32)
        spec: Dict[str, ParamSpec] = {"gamma": ParamSpec(gamma.shape, gamma)}
        for index, channel in enumerate(self.channels):
            for name, sub in channel.parameter_spec().items():
                spec[f"{name}_{index}"] = sub
        return spec

    def _channel_params(self, params: Optional[Dict], index: int) -> Optional[Dict]:
        if not params:
            return None
        suffix = f"_{index}"
        scoped = {
            key[: -len(suffix)]: value
            for key, value in params.items()
            if key.endswith(suffix)
        }
        return scoped or None

    # ------------------------------------------------------------------
    # forward / fuse
    # ------------------------------------------------------------------
    def forward(self, ctx: Context, x: Signal, params: Optional[Dict] = None) -> Signal:
        gamma = params["gamma"] if params else self.parameter_spec()["gamma"].init
        outputs = []
        for index, channel in enumerate(self.channels):
            outputs.append(
                channel.forward(ctx, x, self._channel_params(params, index)))
        return self._fuse(outputs, gamma)

    def _fuse(self, outputs: Sequence[Signal], gamma) -> Signal:
        """``⊕_q γ_q · g_q``: one fused node for an autodiff sum."""
        if self.fusion == "sum" and isinstance(outputs[0], Tensor):
            return linear_combination(outputs, gamma)
        scaled = [out * gamma[index] for index, out in enumerate(outputs)]
        if self.fusion == "sum":
            fused = scaled[0]
            for out in scaled[1:]:
                fused = fused + out
            return fused
        return _fuse_concat(scaled)

    def output_width(self, in_features: int) -> int:
        if self.fusion == "concat":
            return in_features * len(self.channels)
        return in_features

    # ------------------------------------------------------------------
    # mini-batch path
    # ------------------------------------------------------------------
    def _channel_count(self) -> int:
        return sum(channel._channel_count() for channel in self.channels)

    def _fill_channels(self, ctx: Context, x: np.ndarray,
                       out: np.ndarray) -> None:
        """Each channel fills its own slice of the bank's channel tensor."""
        slices: List[Tuple[int, int]] = []
        offset = 0
        for channel in self.channels:
            stop = offset + channel._channel_count()
            channel._fill_channels(ctx, x, out[:, offset:stop])
            slices.append((offset, stop))
            offset = stop
        self._channel_slices = slices

    def batch_combine(self, batch: Tensor, params: Optional[Dict] = None) -> Tensor:
        if self._channel_slices is None:
            raise FilterError("batch_combine before precompute on a filter bank")
        gamma = params["gamma"] if params else self.parameter_spec()["gamma"].init
        outputs = []
        for index, (channel, (start, stop)) in enumerate(
            zip(self.channels, self._channel_slices)
        ):
            sub = batch[:, start:stop, :]
            outputs.append(
                channel.batch_combine(sub, self._channel_params(params, index)))
        return self._fuse(outputs, gamma)

    # ------------------------------------------------------------------
    # spectral analysis
    # ------------------------------------------------------------------
    def channel_responses(self, lams: np.ndarray,
                          params: Optional[Dict] = None) -> np.ndarray:
        """Per-channel responses ``g_q(λ)`` as a (Q, len(λ)) array."""
        if params is None:
            params = {name: spec.init for name, spec in self.parameter_spec().items()}
        rows = []
        for index, channel in enumerate(self.channels):
            rows.append(channel.response(lams, self._channel_params(params, index)))
        return np.stack(rows, axis=0)

    def response(self, lams: np.ndarray,
                 params: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
        """γ-weighted sum of channel responses (also used for concat banks
        as the aggregate frequency profile)."""
        if params is None:
            params = {name: spec.init for name, spec in self.parameter_spec().items()}
        gamma = np.asarray(
            params["gamma"].data if isinstance(params["gamma"], Tensor) else params["gamma"]
        )
        responses = self.channel_responses(lams, params)
        return (gamma[:, None] * responses).sum(axis=0)


class FBGNNFilter(FilterBank):
    """FBGNN-I/II: low-pass + high-pass linear channels (Luan et al.)."""

    name = "fbgnn"
    time_complexity = "O(QKmF + QKnF)"

    def __init__(self, num_hops: int = 10, variant: str = "I"):
        if variant not in ("I", "II"):
            raise FilterError(f"FBGNN variant must be 'I' or 'II', got {variant!r}")
        fusion = "concat" if variant == "I" else "sum"
        super().__init__(
            channels=[
                MonomialFilter(num_hops),
                LaplacianMonomialFilter(num_hops),
            ],
            fusion=fusion,
            num_hops=num_hops,
        )
        self.variant = variant
        self.name = f"fbgnn{'1' if variant == 'I' else '2'}"


class ACMGNNFilter(FilterBank):
    """ACMGNN-I/II: FBGNN plus an identity (all-pass) channel."""

    name = "acmgnn"
    time_complexity = "O(QKmF + QKnF)"

    def __init__(self, num_hops: int = 10, variant: str = "I"):
        if variant not in ("I", "II"):
            raise FilterError(f"ACMGNN variant must be 'I' or 'II', got {variant!r}")
        fusion = "concat" if variant == "I" else "sum"
        super().__init__(
            channels=[
                MonomialFilter(num_hops),
                LaplacianMonomialFilter(num_hops),
                IdentityFilter(num_hops),
            ],
            fusion=fusion,
            num_hops=num_hops,
        )
        self.variant = variant
        self.name = f"acmgnn{'1' if variant == 'I' else '2'}"


class FAGNNFilter(FilterBank):
    """FAGCN-style bank: ``γ1((β+1)I − L̃) + γ2((β−1)I + L̃)`` over K hops."""

    name = "fagnn"

    def __init__(self, num_hops: int = 10, beta: float = 0.5):
        super().__init__(
            channels=[
                ShiftedMonomialFilter(num_hops, beta=beta, sign=1.0),
                ShiftedMonomialFilter(num_hops, beta=beta, sign=-1.0),
            ],
            fusion="sum",
            num_hops=num_hops,
        )
        self.beta = float(beta)

    def hyperparameters(self) -> Dict[str, float]:
        return {"beta": self.beta}


class G2CNFilter(FilterBank):
    """G²CN: Gaussian bumps concentrated near λ = 1 − β (low) and 1 + β (high)."""

    name = "g2cn"

    def __init__(self, num_hops: int = 10, alpha_low: float = 1.0,
                 alpha_high: float = 1.0, beta_low: float = 1.0,
                 beta_high: float = 1.0):
        super().__init__(
            channels=[
                GaussianFilter(num_hops, alpha=alpha_low, beta=-beta_low),
                GaussianFilter(num_hops, alpha=alpha_high, beta=beta_high),
            ],
            fusion="sum",
            num_hops=num_hops,
        )

    def hyperparameters(self) -> Dict[str, float]:
        low, high = self.channels
        return {
            "alpha_low": low.alpha,
            "alpha_high": high.alpha,
            "beta_low": -low.beta,
            "beta_high": high.beta,
        }


class GNNLFHFFilter(FilterBank):
    """GNN-LF/HF: PPR channels with low/high (I ∓ βL̃) pre-filters."""

    name = "gnnlfhf"

    def __init__(self, num_hops: int = 10, alpha_low: float = 0.1,
                 alpha_high: float = 0.1, beta_low: float = 0.4,
                 beta_high: float = 0.4):
        super().__init__(
            channels=[
                PrefixedPPRFilter(num_hops, alpha=alpha_low, beta=beta_low, sign=-1.0),
                PrefixedPPRFilter(num_hops, alpha=alpha_high, beta=beta_high, sign=1.0),
            ],
            fusion="sum",
            num_hops=num_hops,
        )


class FiGUReFilter(FilterBank):
    """FiGURe: identity + variable Monomial/Chebyshev/Bernstein channels."""

    name = "figure"

    def __init__(self, num_hops: int = 10):
        super().__init__(
            channels=[
                IdentityFilter(num_hops),
                MonomialVariableFilter(num_hops),
                ChebyshevFilter(num_hops),
                BernsteinFilter(num_hops),
            ],
            fusion="sum",
            num_hops=num_hops,
        )


class AdaGNNFilter(SpectralFilter):
    """AdaGNN: per-feature linear filters ``Π_j (I − γ_{j,f} L̃)``.

    The bank degenerates to Q = F channels acting feature-wise: each layer
    multiplies channel f by ``(1 − γ_{j,f} λ)`` with a learnable γ. The
    full-batch path runs the K-layer recurrence directly; the mini-batch
    path stores Laplacian-power hops and recombines them with the
    elementary-symmetric-polynomial coefficients of γ, which is the exact
    expansion of the product form.

    Parameters
    ----------
    num_features:
        Width F of the signal the filter will see (needed to size γ).
    """

    name = "adagnn"
    category = "bank"
    time_complexity = "O(KmF)"
    memory_complexity = "O(nF)"

    def __init__(self, num_hops: int = 10, num_features: int = 1):
        super().__init__(num_hops)
        if num_features < 1:
            raise FilterError(f"num_features must be >= 1, got {num_features}")
        self.num_features = int(num_features)

    def parameter_spec(self) -> Dict[str, ParamSpec]:
        gamma = np.full((self.num_hops, self.num_features), 0.2, dtype=np.float32)
        return {"gamma": ParamSpec(gamma.shape, gamma)}

    def forward(self, ctx: Context, x: Signal, params: Optional[Dict] = None) -> Signal:
        gamma = self._gamma(params)
        if ctx.is_spectral:
            return self._spectral_forward(ctx, x, gamma)
        current = x
        for j in range(self.num_hops):
            current = current - ctx.lap(current) * gamma[j]
        return current

    def _gamma(self, params: Optional[Dict]):
        if params and "gamma" in params:
            return params["gamma"]
        return self.parameter_spec()["gamma"].init

    def _spectral_forward(self, ctx: Context, x: np.ndarray, gamma) -> np.ndarray:
        gamma = gamma.data if isinstance(gamma, Tensor) else np.asarray(gamma)
        mean_gamma = gamma.mean(axis=1)  # channel-average response
        out = np.asarray(x, dtype=np.float64)
        for j in range(self.num_hops):
            out = out * (1.0 - mean_gamma[j] * ctx.lams)
        return out

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        """The mini-batch channels: Laplacian powers ``L̃^k x``, k = 0…K."""
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="lap")

    def batch_combine(self, batch: Tensor, params: Optional[Dict] = None) -> Tensor:
        gamma = self._gamma(params)
        if not isinstance(gamma, Tensor):
            gamma = Tensor(np.asarray(gamma, dtype=np.float32))
        coefficients = self._signed_elementary_symmetric(gamma)  # (K+1, F)
        return contract_channels(batch, coefficients)

    def _signed_elementary_symmetric(self, gamma: Tensor) -> Tensor:
        """(−1)^k e_k(γ_{:,f}) per feature: Π(1−γλ) = Σ_k c_k λ^k."""
        ones = Tensor(np.ones((self.num_features,), dtype=np.float32))
        zeros = Tensor(np.zeros((self.num_features,), dtype=np.float32))
        coeffs: List[Tensor] = [ones] + [zeros] * self.num_hops
        for j in range(self.num_hops):
            layer_gamma = gamma[j]
            # Multiply the running polynomial by (1 − γ_j λ), highest first.
            for k in range(min(j + 1, self.num_hops), 0, -1):
                coeffs[k] = coeffs[k] - coeffs[k - 1] * layer_gamma
        return tensor_stack(coeffs, axis=0)


BANK_FILTERS = (
    AdaGNNFilter,
    FBGNNFilter,
    ACMGNNFilter,
    FAGNNFilter,
    G2CNFilter,
    GNNLFHFFilter,
    FiGUReFilter,
)
