"""Low-precision rounding emulation and the targeted mixed-precision forward.

Rounding is representational only: values are snapped onto the target
format's grid by round-to-nearest-even and immediately re-expressed in
float64, so matmuls between rounding points stay in reference precision
(no accumulator error is modeled).

Supported formats: ``fp8_e4m3`` (4 exponent / 3 mantissa bits, bias 7, no
infinities, max normal 448, per-tensor amax scaling), ``bf16`` (8-bit
significand; emulated by direct mantissa rounding, exponent range not
clamped), ``fp32`` (IEEE single), and ``fp64`` (identity). Rounding
rejects non-finite input and a value that overflows the target, naming
the first offending index.

For fp8, a tensor is an array of up to two dimensions; :func:`apply_format`
treats an array of three or more as a stack in which every trailing matrix
is its own tensor with its own scale, so a stack of expert weights rounds
in one call exactly as its matrices would one by one.

A :class:`PrecisionPolicy` assigns one format to each layer class of a toy
expert-mixture language model: expert FFN weights, non-expert weights (the
router), and the output head. :func:`mixed_forward` runs the model with
the policy's rounding applied to each class; :func:`divergence_trial`
compares a policy's token log-probabilities against the full-precision
reference engine with the sampled-k1 drift estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from moelab.core import Rng, log_softmax
from moelab.rlloss import EngineKl
from moelab.routing import ExpertBank, MoeLayerSpec, route_token

__all__ = [
    "Fp8Format",
    "E4M3",
    "QuantizedFp8",
    "PrecisionPolicy",
    "POLICIES",
    "fp8_grid",
    "quantize_fp8",
    "dequantize_fp8",
    "bf16_round",
    "fp32_round",
    "apply_format",
    "mixed_forward",
    "divergence_trial",
]


@dataclass(frozen=True)
class Fp8Format:
    """8-bit float layout: sign, exponent_bits, mantissa_bits, finite-only."""

    exponent_bits: int = 4
    mantissa_bits: int = 3
    bias: int = 7
    max_normal: float = 448.0
    saturating: bool = True

    def __post_init__(self):
        if self.exponent_bits + self.mantissa_bits != 7:
            raise ValueError("sign + exponent + mantissa must pack into 8 bits")
        top = 2**self.exponent_bits - 1
        largest = (2.0 - 2.0 ** -(self.mantissa_bits - 1)) * 2.0 ** (top - self.bias)
        if largest != self.max_normal:
            raise ValueError(
                f"max_normal {self.max_normal} inconsistent with layout (expected {largest})"
            )


E4M3 = Fp8Format()


@lru_cache(maxsize=None)
def _magnitudes(fmt: Fp8Format) -> np.ndarray:
    """Non-negative representable magnitudes, ascending; index == unsigned code.

    The all-ones code (exponent and mantissa saturated) is the NaN slot and
    is excluded, so the grid has 2**7 - 1 entries.
    """
    m_b, bias = fmt.mantissa_bits, fmt.bias
    vals = []
    for e in range(2**fmt.exponent_bits):
        for m in range(2**m_b):
            if e == 2**fmt.exponent_bits - 1 and m == 2**m_b - 1:
                continue
            if e == 0:
                vals.append(m * 2.0 ** (1 - bias - m_b))
            else:
                vals.append((1.0 + m * 2.0**-m_b) * 2.0 ** (e - bias))
    return np.array(vals)


def fp8_grid(fmt: Fp8Format = E4M3) -> np.ndarray:
    """Copy of the format's non-negative magnitude grid (index == code)."""
    return _magnitudes(fmt).copy()


@dataclass
class QuantizedFp8:
    """Packed sign|exponent|mantissa codes plus the per-tensor scale."""

    codes: np.ndarray
    scale: float

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)


def _require_finite(a: np.ndarray, problem: str) -> np.ndarray:
    """Return ``a``, or raise ``problem`` at the row-major first non-finite element."""
    bad = ~np.isfinite(a)
    if bad.any():
        i = int(np.argmax(bad))
        at = i if a.ndim == 1 else tuple(int(j) for j in np.unravel_index(i, a.shape))
        raise ValueError(f"{problem} at index {at}")
    return a


def _amax_scale(a: np.ndarray, fmt: Fp8Format, axis=None) -> np.ndarray:
    """Scale mapping each tensor's absolute maximum onto the max normal (1 if all zero)."""
    amax = np.max(np.abs(a), axis=axis, keepdims=axis is not None, initial=0.0)
    return np.divide(fmt.max_normal, amax, out=np.ones_like(amax), where=amax > 0.0)


def _fp8_encode(a: np.ndarray, scale, fmt: Fp8Format) -> np.ndarray:
    """Codes of ``a * scale`` by round-to-nearest-even; ``scale`` broadcasts against ``a``."""
    grid = _magnitudes(fmt)
    mag = np.abs(a) * scale
    over = mag > fmt.max_normal
    if np.any(over):
        if not fmt.saturating:
            raise ValueError("magnitude exceeds max normal in non-saturating mode")
        mag = np.minimum(mag, fmt.max_normal)

    hi = np.searchsorted(grid, mag).clip(max=grid.size - 1)
    lo = np.maximum(hi - 1, 0)
    d_lo = mag - grid[lo]
    d_hi = grid[hi] - mag
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0))
    code = np.where(pick_hi, hi, lo).astype(np.uint8)
    code |= np.where(np.signbit(a), np.uint8(0x80), np.uint8(0))
    return code


def _fp8_decode(codes: np.ndarray, scale, fmt: Fp8Format) -> np.ndarray:
    grid = _magnitudes(fmt)
    unsigned = (codes & 0x7F).astype(np.int64)
    nan_slot = unsigned == grid.size
    mag = np.where(nan_slot, np.nan, grid[np.minimum(unsigned, grid.size - 1)])
    sign = np.where(codes & 0x80, -1.0, 1.0)
    return sign * mag / scale


def quantize_fp8(
    v, fmt: Fp8Format = E4M3, scale: float | None = None
) -> QuantizedFp8:
    """Round-to-nearest-even onto the fp8 grid with per-tensor scaling.

    The default scale maps the tensor's absolute maximum onto the format's
    max normal; an all-zero tensor gets scale 1. Out-of-range magnitudes
    saturate to the max normal (or raise when the format is non-saturating).
    """
    a = np.asarray(v, dtype=np.float64)
    _require_finite(a, "quantize_fp8 requires finite inputs; non-finite value")
    if scale is None:
        scale = float(_amax_scale(a, fmt))
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return QuantizedFp8(codes=_fp8_encode(a, scale, fmt), scale=float(scale))


def dequantize_fp8(codes, scale: float, fmt: Fp8Format = E4M3) -> np.ndarray:
    """Map codes back to float64: grid magnitude over scale, NaN for the NaN slot."""
    c = np.asarray(codes, dtype=np.uint8)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return _fp8_decode(c, scale, fmt)


def _round_significand(v, stored_bits: int, what: str) -> np.ndarray:
    a = np.ascontiguousarray(v, dtype=np.float64)
    _require_finite(a, f"{what} requires finite inputs; non-finite value")
    bits = a.copy().view(np.uint64)
    shift = np.uint64(52 - stored_bits)
    one = np.uint64(1)
    half = one << np.uint64(int(shift) - 1)
    tail = bits & ((one << shift) - one)
    lsb = (bits >> shift) & one
    up = (tail > half) | ((tail == half) & (lsb == one))
    with np.errstate(over="ignore"):
        bits = (bits - tail) + up.astype(np.uint64) * (one << shift)
    return _require_finite(bits.view(np.float64).reshape(a.shape), f"{what} overflows")


def bf16_round(v) -> np.ndarray:
    """Round the float64 significand to bfloat16's 8 bits (nearest-even).

    Emulates bf16 mantissa precision at any exponent; the format's exponent
    clamping is irrelevant at desk scale and is not applied. Idempotent,
    and exact on powers of two. A value that rounds past the largest
    finite float64 raises ``ValueError`` naming its index.
    """
    return _round_significand(v, stored_bits=7, what="bf16_round")


def fp32_round(v) -> np.ndarray:
    """Round to the nearest IEEE single, re-expressed in float64.

    A value beyond the single range raises ``ValueError`` naming its index.
    """
    a = np.asarray(v, dtype=np.float64)
    _require_finite(a, "fp32_round requires finite inputs; non-finite value")
    with np.errstate(over="ignore"):
        rounded = a.astype(np.float32).astype(np.float64)
    return _require_finite(rounded, "fp32_round overflows")


def _fp8_roundtrip(w) -> np.ndarray:
    a = np.asarray(w, dtype=np.float64)
    _require_finite(a, "quantize_fp8 requires finite inputs; non-finite value")
    scale = _amax_scale(a, E4M3, axis=(-2, -1) if a.ndim >= 3 else None)
    return _fp8_decode(_fp8_encode(a, scale, E4M3), scale, E4M3)


_ROUNDERS = {
    "fp64": lambda w: np.asarray(w, dtype=np.float64),
    "fp32": fp32_round,
    "bf16": bf16_round,
    "fp8_e4m3": _fp8_roundtrip,
}


def apply_format(w, fmt_name: str) -> np.ndarray:
    """Round ``w`` onto the named format's grid, re-expressed in float64.

    Only fp8 scales, and per tensor: an array of up to two dimensions is one
    tensor, while an array of three or more is a stack whose every trailing
    matrix is its own tensor with its own amax scale, so rounding a stack
    equals rounding each matrix alone, bit for bit.
    """
    if fmt_name not in _ROUNDERS:
        raise ValueError(f"unknown format {fmt_name!r}; choose from {sorted(_ROUNDERS)}")
    return _ROUNDERS[fmt_name](w)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Format assignment per layer class of the toy model."""

    expert_weights: str = "fp8_e4m3"
    non_expert: str = "bf16"
    lm_head: str = "fp32"

    def __post_init__(self):
        for field_name in ("expert_weights", "non_expert", "lm_head"):
            fmt = getattr(self, field_name)
            if fmt not in _ROUNDERS:
                raise ValueError(f"{field_name}: unknown format {fmt!r}")


POLICIES: dict[str, PrecisionPolicy] = {
    "ref64": PrecisionPolicy("fp64", "fp64", "fp64"),
    "mixed_fp8": PrecisionPolicy("fp8_e4m3", "bf16", "fp32"),
    "mixed_fp8_bf16head": PrecisionPolicy("fp8_e4m3", "bf16", "bf16"),
    "all_bf16": PrecisionPolicy("bf16", "bf16", "bf16"),
    # Head-isolated pair: everything else full precision, so the measured
    # divergence is attributable to the head format alone.
    "fp32head": PrecisionPolicy("fp64", "fp64", "fp32"),
    "bf16head": PrecisionPolicy("fp64", "fp64", "bf16"),
}


def mixed_forward(
    x, bank: ExpertBank, w_router, head, spec: MoeLayerSpec, policy: PrecisionPolicy
) -> np.ndarray:
    """Expert-mixture forward with per-class weight rounding; returns logits.

    The selected experts' input and output weights pass through the expert
    format as two stacks (one tensor per weight matrix), the router through
    the non-expert format, and the head through the head format. Unselected
    experts are not rounded. The mixture sums in selection order, and all
    arithmetic stays in float64.
    """
    w_r = apply_format(w_router, policy.non_expert)
    decision = route_token(x, w_r, spec, mode="plain_topk")
    w_in = apply_format(bank.w_in[decision.selected], policy.expert_weights)
    w_out = apply_format(bank.w_out[decision.selected], policy.expert_weights)
    y = np.zeros(bank.model_dim)
    for gate, wi, wo in zip(decision.gates, w_in, w_out):
        y += gate * (wo @ np.maximum(wi @ x, 0.0))
    return apply_format(head, policy.lm_head) @ y


def divergence_trial(
    policy: PrecisionPolicy,
    seed: int,
    *,
    spec: MoeLayerSpec | None = None,
    vocab: int = 24,
    samples: int = 65536,
) -> dict[str, float]:
    """Paired engine comparison on one seeded toy layer.

    The rollout engine is the full-precision reference forward; the train
    engine applies the policy. The drift estimator reads a systematic
    (deterministic proportional-quota) sample of ``samples`` tokens from the
    rollout distribution: token v appears floor(cdf_v * samples) -
    floor(cdf_{v-1} * samples) times. Only the per-token log-prob gap
    matters, so the stream is built as each vocabulary entry's gap repeated
    that many times. That keeps ``kl_k1`` the engine_kl k1 estimate of
    KL(reference || policy) while removing Monte-Carlo noise, so the same
    seed reproduces the trial bit-for-bit.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if spec is None:
        spec = MoeLayerSpec(
            num_experts=8, active_k=2, num_groups=1, model_dim=16, hidden_dim=32
        )
    rng = Rng(seed)
    bank = ExpertBank.random(rng, spec)
    w_router = rng.normal_matrix(spec.num_experts, spec.model_dim)
    head = rng.normal_matrix(vocab, spec.model_dim) * (4.0 / np.sqrt(spec.model_dim))
    x = rng.normal(spec.model_dim)

    ref_logits = mixed_forward(x, bank, w_router, head, spec, POLICIES["ref64"])
    pol_logits = mixed_forward(x, bank, w_router, head, spec, policy)

    lp_ref = log_softmax(ref_logits)
    lp_pol = log_softmax(pol_logits)
    cdf = np.cumsum(np.exp(lp_ref))
    counts = np.diff(np.floor(cdf * samples).astype(np.int64), prepend=0)
    drift = EngineKl.from_gaps(np.repeat(lp_pol - lp_ref, counts))
    return {
        "kl_k1": drift.k1_estimate,
        "max_abs_logit_diff": float(np.max(np.abs(pol_logits - ref_logits))),
    }
