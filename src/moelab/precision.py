"""Low-precision rounding emulation and the targeted mixed-precision forward.

Rounding is representational only: values are snapped onto the target
format's grid by round-to-nearest-even and immediately re-expressed in
float64, so matmuls between rounding points stay in reference precision
(no accumulator error is modeled).

Supported formats: ``fp8_e4m3`` (4 exponent / 3 mantissa bits, bias 7, no
infinities, max normal 448, per-tensor amax scaling), ``bf16`` (8-bit
significand over float32's exponent range, subnormals included, max finite
about 3.39e38), ``fp32`` (IEEE single, by the float32 cast), and ``fp64``
(identity). E4M3 and bf16 round by one rule: nearest-even on the float64
significand bits down to the format's smallest normal, and on its fixed
subnormal step below that. Rounding rejects non-finite input and a value
that overflows the target, naming the first offending index.

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
and :func:`precision_sweep` returns the precision-sweep rows. A trial's
expert bank is reserved, not drawn (``routing.ReservedBank``): unselected
experts are neither drawn nor rounded, so its cost follows the activated
experts rather than the expert count, with the bits of the drawn bank.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from moelab.core import Rng, as_vector, log_softmax
from moelab.rlloss import EngineKl
from moelab.routing import ExpertBank, MoeLayerSpec, ReservedBank, _expert_mix, route_token

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
_BF16_MAX = (2.0 - 2.0**-7) * 2.0**127


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


def _first_index(bad: np.ndarray):
    """Index of the row-major first true element of ``bad``, as errors name it."""
    i = int(np.argmax(bad))
    return i if bad.ndim == 1 else tuple(int(j) for j in np.unravel_index(i, bad.shape))


def _require_finite(a: np.ndarray, problem: str) -> np.ndarray:
    """Return ``a``, or raise ``problem`` at the row-major first non-finite element."""
    bad = ~np.isfinite(a)
    if bad.any():
        raise ValueError(f"{problem} at index {_first_index(bad)}")
    return a


def _amax_scale(a: np.ndarray, axis=None) -> np.ndarray:
    """Scale mapping each tensor's absolute maximum onto the max normal (1 if all zero)."""
    amax = np.max(np.abs(a), axis=axis, keepdims=axis is not None, initial=0.0)
    return np.divide(_MAX_NORMAL, amax, out=np.ones_like(amax), where=amax > 0.0)


def _fp8_magnitudes(a: np.ndarray, scale) -> np.ndarray:
    """E4M3 grid magnitudes of ``|a| * scale`` by round-to-nearest-even,
    saturating at the max normal; ``scale`` broadcasts against ``a``."""
    mag = np.minimum(np.abs(a) * scale, _MAX_NORMAL)
    return _round_significand(mag, _MAN_BITS, 1 - _BIAS)


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
    # The grid is strictly ascending and holds every magnitude: the search is exact.
    codes = np.searchsorted(_GRID, _fp8_magnitudes(a, scale)) | np.signbit(a) * 0x80
    return QuantizedFp8(codes=codes, scale=float(scale))


def dequantize_fp8(codes, scale: float) -> np.ndarray:
    """Map codes back to float64: grid magnitude over scale, NaN for the NaN slot."""
    c = np.asarray(codes, dtype=np.uint8)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return _fp8_decode(c, scale)


def _round_significand(a: np.ndarray, stored_bits: int, min_exp: int) -> np.ndarray:
    """The one rounding rule of the narrow formats, on finite float64 ``a``.

    At or above ``2**min_exp`` the significand keeps ``stored_bits`` bits
    after the leading one; below it the value lands on the fixed subnormal
    step ``2**(min_exp - stored_bits)``. Both round to nearest, ties to even.
    A value past the largest finite float64 becomes infinite.
    """
    drop = 52 - stored_bits  # float64 significand bits below the kept ones
    bits = a.view(np.uint64)
    # Adding half an ulp less one, plus the kept lsb, carries exactly when
    # the dropped tail is above half, or at half with an odd kept lsb.
    out = np.bitwise_and(bits >> np.uint64(drop), np.uint64(1), out=np.empty_like(bits))
    out += bits + np.uint64((1 << (drop - 1)) - 1)
    out = np.bitwise_and(out, ~np.uint64((1 << drop) - 1), out=out).view(np.float64)
    small = np.abs(a) < 2.0**min_exp
    if small.any():
        step = 2.0 ** (min_exp - stored_bits)
        out[small] = np.rint(a[small] / step) * step
    return out


def bf16_round(v) -> np.ndarray:
    """Round to the nearest bfloat16, ties to even, re-expressed in float64.

    Exact over the whole format: an 8-bit significand down to 2**-126,
    subnormals on the step 2**-133 below it, zero at half that step or less. A
    value that rounds past the largest finite bf16 (about 3.39e38) raises
    ``ValueError`` naming its index.
    """
    a = np.asarray(v, dtype=np.float64)
    _require_finite(a, "bf16_round requires finite inputs; non-finite value")
    rounded = _round_significand(a, 7, -126)
    over = np.abs(rounded) > _BF16_MAX
    if over.any():
        raise ValueError(f"bf16_round overflows at index {_first_index(over)}")
    return rounded


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
    # _fp8_decode's sign * magnitude / scale, without the codes
    return np.copysign(_fp8_magnitudes(a, scale), a) / scale


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
    x, bank: ExpertBank | ReservedBank, w_router, head, spec: MoeLayerSpec,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Expert-mixture forward with per-class weight rounding; returns logits.

    The selected experts' input and output weights pass through the expert
    format as two stacks (one tensor per weight matrix), the router through
    the non-expert format, and the head through the head format. Unselected
    experts are not rounded, and from a :class:`~moelab.routing.ReservedBank`
    not drawn either. The mixture sums in selection order, and all
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
    and are shared by all the policies. The bank is reserved in
    ``ExpertBank.random``'s counter order, so only the experts some engine
    routes to are drawn, once each, with the drawn bank's bits.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    spec = _TOY_SPEC
    rng = Rng(seed)
    bank = ReservedBank(rng, spec)
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
