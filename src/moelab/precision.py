"""Low-precision rounding emulation and the targeted mixed-precision forward.

Rounding is representational only: values are snapped onto the target
format's grid by round-to-nearest-even and immediately re-expressed in
float64, so matmuls between rounding points stay in reference precision
(no accumulator error is modeled).

Supported formats: ``fp8_e4m3`` (4 exponent / 3 mantissa bits, bias 7, no
infinities, max normal 448, per-tensor amax scaling), ``bf16`` (8-bit
significand; emulated by direct mantissa rounding, exponent range not
clamped), ``fp32`` (IEEE single), and ``fp64`` (identity).

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
from moelab.rlloss import engine_kl
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


def quantize_fp8(
    v, fmt: Fp8Format = E4M3, scale: float | None = None
) -> QuantizedFp8:
    """Round-to-nearest-even onto the fp8 grid with per-tensor scaling.

    The default scale maps the tensor's absolute maximum onto the format's
    max normal; an all-zero tensor gets scale 1. Out-of-range magnitudes
    saturate to the max normal (or raise when the format is non-saturating).
    """
    a = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("quantize_fp8 requires finite inputs")
    if scale is None:
        amax = float(np.max(np.abs(a))) if a.size else 0.0
        scale = fmt.max_normal / amax if amax > 0.0 else 1.0
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")

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
    return QuantizedFp8(codes=code, scale=float(scale))


def dequantize_fp8(codes, scale: float, fmt: Fp8Format = E4M3) -> np.ndarray:
    """Map codes back to float64: grid magnitude over scale, NaN for the NaN slot."""
    c = np.asarray(codes, dtype=np.uint8)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    grid = _magnitudes(fmt)
    unsigned = (c & 0x7F).astype(np.int64)
    nan_slot = unsigned == grid.size
    mag = np.where(nan_slot, np.nan, grid[np.minimum(unsigned, grid.size - 1)])
    sign = np.where(c & 0x80, -1.0, 1.0)
    return sign * mag / scale


def _round_significand(v, stored_bits: int) -> np.ndarray:
    a = np.ascontiguousarray(v, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("rounding emulation requires finite inputs")
    bits = a.copy().view(np.uint64)
    shift = np.uint64(52 - stored_bits)
    one = np.uint64(1)
    half = one << np.uint64(int(shift) - 1)
    tail = bits & ((one << shift) - one)
    lsb = (bits >> shift) & one
    up = (tail > half) | ((tail == half) & (lsb == one))
    with np.errstate(over="ignore"):
        bits = (bits - tail) + up.astype(np.uint64) * (one << shift)
    return bits.view(np.float64).reshape(a.shape)


def bf16_round(v) -> np.ndarray:
    """Round the float64 significand to bfloat16's 8 bits (nearest-even).

    Emulates bf16 mantissa precision at any exponent; the format's exponent
    clamping is irrelevant at desk scale and is not applied. Idempotent,
    and exact on powers of two.
    """
    return _round_significand(v, stored_bits=7)


def fp32_round(v) -> np.ndarray:
    """Round to the nearest IEEE single, re-expressed in float64."""
    a = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("rounding emulation requires finite inputs")
    return a.astype(np.float32).astype(np.float64)


def _fp8_roundtrip(w) -> np.ndarray:
    q = quantize_fp8(w)
    return dequantize_fp8(q.codes, q.scale).reshape(np.shape(w))


_ROUNDERS = {
    "fp64": lambda w: np.asarray(w, dtype=np.float64),
    "fp32": fp32_round,
    "bf16": bf16_round,
    "fp8_e4m3": _fp8_roundtrip,
}


def apply_format(w, fmt_name: str) -> np.ndarray:
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

    Expert weight matrices pass through the expert format (per-tensor, one
    tensor per weight matrix), the router through the non-expert format,
    and the head through the head format. All arithmetic stays in float64.
    """
    w_r = apply_format(w_router, policy.non_expert)
    decision = route_token(x, w_r, spec, mode="plain_topk")
    y = np.zeros(bank.model_dim)
    for gate, idx in zip(decision.gates, decision.selected):
        i = int(idx)
        w_in = apply_format(bank.w_in[i], policy.expert_weights)
        w_out = apply_format(bank.w_out[i], policy.expert_weights)
        y += gate * (w_out @ np.maximum(w_in @ x, 0.0))
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
    engine applies the policy. The token stream fed to the drift estimator
    is a systematic (deterministic proportional-quota) sample of the
    rollout distribution: token v appears floor(cdf_v * samples) -
    floor(cdf_{v-1} * samples) times. That keeps ``kl_k1`` an engine_kl
    estimate of KL(reference || policy) while removing Monte-Carlo noise,
    so the same seed reproduces the trial bit-for-bit.
    """
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
    tokens = np.repeat(np.arange(vocab), np.maximum(counts, 0))
    drift = engine_kl(lp_pol[tokens], lp_ref[tokens])
    return {
        "kl_k1": drift.k1_estimate,
        "max_abs_logit_diff": float(np.max(np.abs(pol_logits - ref_logits))),
    }
