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
the policy's rounding applied to each class; :func:`divergence_trials`
compares policies' token log-probabilities against the full-precision
reference engine with the sampled-k1 drift estimator, on one seeded layer
that all of them share (:func:`divergence_trial` is its one-policy view),
and :func:`precision_sweep` returns the precision-sweep rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from moelab.core import Rng, as_vector, log_softmax
from moelab.rlloss import EngineKl
from moelab.routing import ExpertBank, MoeLayerSpec, _expert_mix, route_token

__all__ = [
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
    "divergence_trials",
    "precision_sweep",
]


# E4M3, the one fp8 format: sign, 4 exponent bits, 3 mantissa bits, bias 7,
# no infinities; magnitudes beyond the largest normal saturate to it.
_MAN_BITS, _BIAS = 3, 7
# Non-negative magnitudes, ascending, indexed by unsigned code. The all-ones
# code 0x7F is the NaN slot and is left out, so the grid has 2**7 - 1 entries.
_EXP, _MANT = np.divmod(np.arange(2**7 - 1), 2**_MAN_BITS)
_GRID = np.where(
    _EXP == 0,
    _MANT * 2.0 ** (1 - _BIAS - _MAN_BITS),  # subnormals
    (1.0 + _MANT * 2.0**-_MAN_BITS) * 2.0 ** (_EXP - _BIAS),
)
_MAX_NORMAL = float(_GRID[-1])  # 448


def fp8_grid() -> np.ndarray:
    """Copy of the E4M3 non-negative magnitude grid (index == code)."""
    return _GRID.copy()


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


def _amax_scale(a: np.ndarray, axis=None) -> np.ndarray:
    """Scale mapping each tensor's absolute maximum onto the max normal (1 if all zero)."""
    amax = np.max(np.abs(a), axis=axis, keepdims=axis is not None, initial=0.0)
    return np.divide(_MAX_NORMAL, amax, out=np.ones_like(amax), where=amax > 0.0)


def _fp8_encode(a: np.ndarray, scale) -> np.ndarray:
    """Codes of ``a * scale`` by round-to-nearest-even, saturating at the max
    normal; ``scale`` broadcasts against ``a``."""
    mag = np.minimum(np.abs(a) * scale, _MAX_NORMAL)
    hi = np.searchsorted(_GRID, mag).clip(max=_GRID.size - 1)
    lo = np.maximum(hi - 1, 0)
    d_lo = mag - _GRID[lo]
    d_hi = _GRID[hi] - mag
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0))
    code = np.where(pick_hi, hi, lo).astype(np.uint8)
    code |= np.where(np.signbit(a), np.uint8(0x80), np.uint8(0))
    return code


def _fp8_decode(codes: np.ndarray, scale) -> np.ndarray:
    unsigned = (codes & 0x7F).astype(np.int64)
    nan_slot = unsigned == _GRID.size
    mag = np.where(nan_slot, np.nan, _GRID[np.minimum(unsigned, _GRID.size - 1)])
    sign = np.where(codes & 0x80, -1.0, 1.0)
    return sign * mag / scale


def quantize_fp8(v, scale: float | None = None) -> QuantizedFp8:
    """Round-to-nearest-even onto the E4M3 grid with per-tensor scaling.

    The default scale maps the tensor's absolute maximum onto the max
    normal (448); an all-zero tensor gets scale 1. Out-of-range magnitudes
    saturate to the max normal.
    """
    a = np.asarray(v, dtype=np.float64)
    _require_finite(a, "quantize_fp8 requires finite inputs; non-finite value")
    if scale is None:
        scale = float(_amax_scale(a))
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return QuantizedFp8(codes=_fp8_encode(a, scale), scale=float(scale))


def dequantize_fp8(codes, scale: float) -> np.ndarray:
    """Map codes back to float64: grid magnitude over scale, NaN for the NaN slot."""
    c = np.asarray(codes, dtype=np.uint8)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return _fp8_decode(c, scale)


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
    scale = _amax_scale(a, axis=(-2, -1) if a.ndim >= 3 else None)
    return _fp8_decode(_fp8_encode(a, scale), scale)


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
    xv = as_vector(x, "x")
    w_r = apply_format(w_router, policy.non_expert)
    decision = route_token(xv, w_r, spec, mode="plain_topk")
    w_in = apply_format(bank.w_in[decision.selected], policy.expert_weights)
    w_out = apply_format(bank.w_out[decision.selected], policy.expert_weights)
    y = _expert_mix(xv, decision.gates, w_in, w_out)
    return apply_format(head, policy.lm_head) @ y


_TOY_SPEC = MoeLayerSpec(num_experts=8, active_k=2, num_groups=1, model_dim=16, hidden_dim=32)
_TOY_VOCAB = 24


def divergence_trials(
    policies: Sequence[PrecisionPolicy], seed: int, *, samples: int = 65536
) -> list[dict[str, float]]:
    """Paired engine comparisons of each policy on one seeded toy layer.

    The rollout engine is the full-precision reference forward; the train
    engine applies the policy. The drift estimator reads a systematic
    (deterministic proportional-quota) sample of ``samples`` tokens from the
    rollout distribution: token v appears floor(cdf_v * samples) -
    floor(cdf_{v-1} * samples) times. Only the per-token log-prob gap
    matters, so the stream is built as each vocabulary entry's gap repeated
    that many times. That keeps ``kl_k1`` the engine_kl k1 estimate of
    KL(reference || policy) while removing Monte-Carlo noise, so the same
    seed reproduces the trial bit-for-bit.

    The layer, reference forward and sample counts depend only on the seed
    and are shared by all the policies.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    spec = _TOY_SPEC
    rng = Rng(seed)
    bank = ExpertBank.random(rng, spec)
    w_router = rng.normal_matrix(spec.num_experts, spec.model_dim)
    head = rng.normal_matrix(_TOY_VOCAB, spec.model_dim) * (4.0 / np.sqrt(spec.model_dim))
    x = rng.normal(spec.model_dim)

    ref_logits = mixed_forward(x, bank, w_router, head, spec, POLICIES["ref64"])
    lp_ref = log_softmax(ref_logits)
    cdf = np.cumsum(np.exp(lp_ref))
    counts = np.diff(np.floor(cdf * samples).astype(np.int64), prepend=0)
    trials = []
    for policy in policies:
        pol_logits = mixed_forward(x, bank, w_router, head, spec, policy)
        drift = EngineKl.from_gaps(np.repeat(log_softmax(pol_logits) - lp_ref, counts))
        trials.append({
            "kl_k1": drift.k1_estimate,
            "max_abs_logit_diff": float(np.max(np.abs(pol_logits - ref_logits))),
        })
    return trials


def divergence_trial(
    policy: PrecisionPolicy, seed: int, *, samples: int = 65536
) -> dict[str, float]:
    """One-policy view of :func:`divergence_trials`."""
    return divergence_trials([policy], seed, samples=samples)[0]


def precision_sweep(
    names: Sequence[str], trials: int, seed: int, samples: int
) -> list[dict[str, object]]:
    """The precision-sweep CSV rows, policy-major over seeds
    ``seed .. seed + trials - 1``; each seed's trials share one layer."""
    if not names:
        raise ValueError("need at least one policy")
    unknown = [n for n in names if n not in POLICIES]
    if unknown:
        raise ValueError(f"unknown policies {unknown}; choose from {sorted(POLICIES)}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    policies = [POLICIES[n] for n in names]
    per_seed = [divergence_trials(policies, seed + i, samples=samples) for i in range(trials)]
    return [
        {"policy": name, "seed": seed + i, **per_seed[i][j]}
        for j, name in enumerate(names)
        for i in range(trials)
    ]
