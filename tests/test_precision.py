import math

import numpy as np
import pytest

from moelab import precision
from moelab.core import NormalDraw, Rng, log_softmax
from moelab.precision import (
    POLICIES,
    PrecisionPolicy,
    apply_format,
    bf16_round,
    dequantize_fp8,
    divergence_trial,
    divergence_trials,
    fp32_round,
    fp8_grid,
    mixed_forward,
    precision_sweep,
    quantize_fp8,
)
from moelab.routing import ExpertBank, MoeLayerSpec, moe_forward, route_token


def e4m3_value(code: int) -> float:
    # Independent bit-semantics oracle: sign / 4-bit exponent / 3-bit mantissa,
    # bias 7, subnormals at e=0, all-ones slot is NaN.
    s = -1.0 if code & 0x80 else 1.0
    e = (code >> 3) & 0xF
    m = code & 0x7
    if e == 0xF and m == 0x7:
        return float("nan")
    if e == 0:
        return s * m * 2.0**-9
    return s * (1.0 + m / 8.0) * 2.0 ** (e - 7)


def toy_layer(seed, vocab=12):
    rng = Rng(seed)
    spec = MoeLayerSpec(num_experts=6, active_k=2, num_groups=1, model_dim=8, hidden_dim=16)
    bank = ExpertBank.random(rng, spec)
    w = rng.normal_matrix(6, 8)
    head = rng.normal_matrix(vocab, 8)
    x = rng.normal(8)
    return spec, bank, w, head, x


class TestFormat:
    def test_grid_matches_bit_semantics(self):
        grid = fp8_grid()
        assert grid.size == 127
        want = np.array([e4m3_value(c) for c in range(127)])
        assert np.array_equal(grid, want)
        assert grid[-1] == 448.0
        assert np.all(np.diff(grid) > 0)


class TestQuantizeFp8:
    def test_zero_tensor(self):
        q = quantize_fp8(np.zeros(4))
        assert q.scale == 1.0
        assert np.all(q.codes == 0)
        assert np.array_equal(dequantize_fp8(q.codes, q.scale), np.zeros(4))

    def test_all_codes_round_trip_exactly(self):
        finite, nans = 0, 0
        for code in range(256):
            v = e4m3_value(code)
            if math.isnan(v):
                assert math.isnan(dequantize_fp8(np.array([code]), 1.0)[0])
                nans += 1
                continue
            q = quantize_fp8(np.array([v]), scale=1.0)
            assert q.codes[0] == code, f"code {code:#04x} did not survive"
            assert dequantize_fp8(q.codes, 1.0)[0] == v
            finite += 1
        assert finite == 254 and nans == 2

    # Every midpoint between adjacent codes at scale 1 goes to the even code;
    # one ulp below it rounds down and one ulp above rounds up, either sign.
    def test_midpoints_tie_to_even(self):
        values = np.array([e4m3_value(c) for c in range(127)])
        mid = (values[:-1] + values[1:]) / 2.0
        lower = np.arange(126)
        tie = np.where(lower % 2 == 0, lower, lower + 1)
        for probe, want in [(mid, tie), (np.nextafter(mid, 0.0), lower),
                            (np.nextafter(mid, np.inf), lower + 1)]:
            for sign, bit in [(1.0, 0x00), (-1.0, 0x80)]:
                codes = quantize_fp8(sign * probe, scale=1.0).codes
                assert np.array_equal(codes, (want | bit).astype(np.uint8)), sign

    def test_forced_scale_saturates(self):
        q = quantize_fp8(np.array([500.0]), scale=1.0)
        assert dequantize_fp8(q.codes, q.scale)[0] == 448.0
        q = quantize_fp8(np.array([-10_000.0]), scale=1.0)
        assert dequantize_fp8(q.codes, q.scale)[0] == -448.0

    def test_double_round_trip_idempotent(self):
        rng = Rng(1)
        v = rng.normal(512) * 30
        q1 = quantize_fp8(v)
        back1 = dequantize_fp8(q1.codes, q1.scale)
        q2 = quantize_fp8(back1, scale=q1.scale)
        back2 = dequantize_fp8(q2.codes, q2.scale)
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(back1, back2)

    def test_round_trip_matches_nearest_grid_point(self):
        rng = Rng(2)
        grid = fp8_grid()
        v = (rng.uniform(400) - 0.5) * 200
        q = quantize_fp8(v)
        chosen = grid[(q.codes & 0x7F).astype(np.int64)]
        for x, c in zip(v, chosen):
            mag = abs(x) * q.scale
            d = np.abs(grid - mag)
            nearest = {grid[i] for i in np.flatnonzero(d == d.min())}
            assert c in nearest

    def test_relative_error_bound_in_normal_range(self):
        rng = Rng(3)
        v = (rng.uniform(2000) - 0.5) * 200
        q = quantize_fp8(v)
        back = dequantize_fp8(q.codes, q.scale)
        scaled = np.abs(v) * q.scale
        normal = scaled >= 2.0**-6  # at or above the smallest normal
        rel = np.abs(back[normal] - v[normal]) / np.abs(v[normal])
        assert rel.max() <= 2.0**-4 + 1e-12

    def test_order_preserved(self):
        rng = Rng(4)
        v = np.sort(rng.normal(300) * 50)
        q = quantize_fp8(v)
        back = dequantize_fp8(q.codes, q.scale)
        assert np.all(np.diff(back) >= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="requires finite inputs"):
            quantize_fp8(np.array([1.0, np.inf]))

    # An infinite scale would map every value to the max-normal code, which
    # dequantizes to 0.0, and a zero entry to 0 * inf, which warns.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            quantize_fp8(np.array([0.0, 1.0, 2.0]), scale)
        with pytest.raises(ValueError, match="scale must be positive"):
            dequantize_fp8(np.array([0, 126, 254], dtype=np.uint8), scale)


class TestBf16Round:
    def test_powers_of_two_unchanged(self):
        v = np.array([2.0**e for e in range(-20, 21)])
        assert np.array_equal(bf16_round(v), v)

    def test_below_resolution_rounds_away(self):
        assert bf16_round(np.array([1.0 + 2.0**-9]))[0] == 1.0

    def test_ties_to_even(self):
        # halfway between 1.0 (mantissa 0, even) and 1 + 2^-7 (mantissa 1, odd)
        assert bf16_round(np.array([1.0 + 2.0**-8]))[0] == 1.0
        # halfway between 1 + 2^-7 (odd) and 1 + 2^-6 (even)
        assert bf16_round(np.array([1.0 + 3.0 * 2.0**-8]))[0] == 1.0 + 2.0**-6

    def test_idempotent_on_many_values(self):
        rng = Rng(5)
        v = (rng.uniform(100_000) - 0.5) * 1e6
        once = bf16_round(v)
        assert np.array_equal(bf16_round(once), once)

    def test_matches_ml_dtypes_if_available(self):
        ml_dtypes = pytest.importorskip("ml_dtypes")
        rng = Rng(6)
        v = (rng.uniform(5000) + 0.01) * np.where(rng.uniform(5000) < 0.5, -40.0, 40.0)
        want = v.astype(ml_dtypes.bfloat16).astype(np.float64)
        assert np.array_equal(bf16_round(v), want)

    def test_overflow_names_first_index(self):
        dbl_max = np.finfo(np.float64).max
        with pytest.raises(ValueError, match=r"bf16_round overflows at index 0\b"):
            bf16_round(np.array([dbl_max]))
        m = np.ones((2, 3))
        m[1, 2] = -dbl_max
        m[1, 1] = dbl_max
        with pytest.raises(ValueError, match=r"overflows at index \(1, 1\)"):
            bf16_round(m)

    def test_largest_finite_bf16_survives(self):
        top = (2.0 - 2.0**-7) * 2.0**127
        assert bf16_round(np.array([top, -top])).tolist() == [top, -top]
        # just short of the midpoint to 2**128 rounds down onto it
        below_mid = np.nextafter((2.0 - 2.0**-8) * 2.0**127, 0.0)
        assert bf16_round(np.array([below_mid]))[0] == top

    @pytest.mark.parametrize("v", [(2.0 - 2.0**-8) * 2.0**127, 2.0**128, 3.5e38, 1e300,
                                   (2.0 - 2.0**-7) * 2.0**1023])
    def test_beyond_largest_finite_bf16_raises(self, v):
        for sign in (1.0, -1.0):
            with pytest.raises(ValueError, match=r"bf16_round overflows at index 1\b"):
                bf16_round(np.array([1.0, sign * v]))

    @pytest.mark.parametrize("v,want", [
        (2.0**-126, 2.0**-126),  # smallest normal
        (1e-40, 2.0**-133),  # subnormal: the step is 2**-133
        (127.5 * 2.0**-133, 2.0**-126),  # tie between the top subnormal and 2**-126: even
        (3.0 * 2.0**-134, 2.0**-132),  # tie between steps 1 and 2: even
        (np.nextafter(2.0**-134, 1.0), 2.0**-133),
        (2.0**-134, 0.0),  # tie between zero and the first step: zero
        (1.5e-45, 0.0),
        (5e-324, 0.0),  # float64's own smallest subnormal
    ])
    def test_subnormals_and_underflow_to_zero(self, v, want):
        got = bf16_round(np.array([v, -v]))
        assert got.tolist() == [want, -want]
        assert np.signbit(got[1])  # a negative value that underflows keeps its sign

    def test_nonfinite_input_names_index(self):
        with pytest.raises(ValueError, match=r"requires finite inputs.*at index 2\b"):
            bf16_round(np.array([1.0, 2.0, np.nan]))


def bf16_values():
    """Every bf16 value by its 16-bit code: the top half of a float32."""
    with np.errstate(invalid="ignore"):  # the table holds signalling NaNs
        return (np.arange(2**16, dtype=np.uint32) << 16).view(np.float32).astype(np.float64)


class TestBf16AgainstEveryCode:
    """bf16_round against the format's own code table, written without it."""

    FINITE = 0x7F80  # codes below are +0 .. the largest finite, ascending

    @pytest.mark.parametrize("signed", [0x0000, 0x8000], ids=["positive", "negative"])
    def test_codes_midpoints_and_neighbours(self, signed):
        values = bf16_values()[signed:signed + self.FINITE]
        assert np.all(np.diff(np.abs(values)) > 0)
        lower, upper = values[:-1], values[1:]
        mid = (lower + upper) / 2.0  # nine significant bits: exact in float64
        even = np.where(np.arange(self.FINITE - 1) % 2 == 0, lower, upper)
        away = np.copysign(np.inf, mid)
        for probe, want in [(values, values), (mid, even), (np.nextafter(mid, 0.0), lower),
                            (np.nextafter(mid, away), upper)]:
            got = bf16_round(probe)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("signed", [0x0000, 0x8000], ids=["positive", "negative"])
    def test_overflow_boundary(self, signed):
        values = bf16_values()
        below, top = values[signed + self.FINITE - 2:signed + self.FINITE]
        assert np.isinf(values[signed + self.FINITE])  # the next code is infinity
        mid = top + (top - below) / 2.0  # the tie goes to the even code: infinity
        assert bf16_round(np.array([np.nextafter(mid, 0.0)]))[0] == top
        for beyond in (mid, np.nextafter(mid, 2.0 * mid)):
            with pytest.raises(ValueError, match=r"bf16_round overflows at index 0\b"):
                bf16_round(np.array([beyond]))

    def test_nonfinite_codes_rejected(self):
        values = bf16_values()
        for code in (0x7F80, 0xFF80, 0x7FC0):  # +inf, -inf, a NaN
            with pytest.raises(ValueError, match="requires finite inputs"):
                bf16_round(values[code:code + 1])


class TestFp32Round:
    def test_overflow_names_first_index(self):
        with pytest.raises(ValueError, match=r"fp32_round overflows at index 1\b"):
            fp32_round(np.array([1.0, 1e300, -1e300]))

    def test_single_max_neighbourhood_stays_finite(self):
        f32_max = float(np.finfo(np.float32).max)
        # within half an ulp of the single max: rounds down to it, no overflow
        assert fp32_round(np.array([f32_max * (1.0 + 2.0**-25)]))[0] == f32_max

    def test_identity_on_singles(self):
        v = np.array([0.5, 1.25, -3.75, 1024.0])
        assert np.array_equal(fp32_round(v), v)

    def test_idempotent(self):
        rng = Rng(7)
        v = rng.normal(1000) * 123.456
        once = fp32_round(v)
        assert np.array_equal(fp32_round(once), once)


E4M3_GRID = np.array([e4m3_value(c) for c in range(127)])  # code order, NaN slot left out


def e4m3_nearest_even(v):
    """One tensor's E4M3 round trip at its own amax scale, by brute force:
    the nearest grid point to each scaled magnitude, ties to the even code."""
    amax = np.max(np.abs(v))
    scale = 448.0 / amax if amax > 0 else 1.0
    mag = np.minimum(np.abs(v) * scale, 448.0).reshape(-1, 1)
    dist = np.abs(E4M3_GRID - mag)  # exact for the two nearest points (Sterbenz)
    nearest = dist == dist.min(axis=1, keepdims=True)
    tie = nearest.sum(axis=1) == 2
    code = np.argmax(nearest & (~tie[:, None] | (np.arange(127) % 2 == 0)), axis=1)
    return np.where(np.signbit(v), -1.0, 1.0) * E4M3_GRID[code].reshape(v.shape) / scale


def amax_probes():
    """(name, tensor) pairs: amax far from 448 either way, tensors mostly
    subnormal or zero after scaling, and ties placed exactly at a power-of-two scale."""
    rng = Rng(31)
    for amax in (1e-30, 3e-5, 1.0, 448.0, 1e6, 1e30):
        v = rng.normal_matrix(12, 9)
        yield f"amax{amax:g}", v * (amax / np.max(np.abs(v)))
    for ratio in (1e-4, 1e-5, 1e-6):  # 448 * ratio is below the smallest normal 2**-6
        v = rng.normal(200) * ratio
        v[7] = -1.0
        yield f"subnormal{ratio:g}", v
    mid = (E4M3_GRID[:-1] + E4M3_GRID[1:]) / 2.0
    for k in (-40, 0, 3):  # the amax 448 * 2**k makes the scale 2**-k, so ties stay ties
        probes = np.concatenate([[448.0], mid, np.nextafter(mid, 0.0), np.nextafter(mid, 448.0)])
        yield f"ties2^{k}", np.where(np.arange(probes.size) % 3 == 1, -1.0, 1.0) * probes * 2.0**k


class TestFp8AgainstAmaxScaleOracle:
    @pytest.mark.parametrize("v", [pytest.param(v, id=name) for name, v in amax_probes()])
    def test_apply_format_matches_brute_force(self, v):
        got = apply_format(v, "fp8_e4m3")
        assert np.array_equal(got.view(np.uint64), e4m3_nearest_even(v).view(np.uint64))

    def test_stack_matches_brute_force_per_matrix(self):
        stack = np.stack([v.ravel()[:60].reshape(12, 5) for _, v in amax_probes()])
        want = np.stack([e4m3_nearest_even(m) for m in stack])
        assert np.array_equal(apply_format(stack, "fp8_e4m3").view(np.uint64), want.view(np.uint64))


class TestQuantizeAgainstMlDtypes:
    def test_e4m3_matches_if_available(self):
        ml_dtypes = pytest.importorskip("ml_dtypes")
        rng = Rng(8)
        v = (rng.uniform(5000) * 440 + 0.1) * np.where(rng.uniform(5000) < 0.5, -1.0, 1.0)
        q = quantize_fp8(v, scale=1.0)
        got = dequantize_fp8(q.codes, 1.0)
        want = v.astype(ml_dtypes.float8_e4m3fn).astype(np.float64)
        assert np.array_equal(got, want)


class TestMixedForward:
    def test_identity_policy_matches_reference_composition(self):
        spec, bank, w, head, x = toy_layer(10)
        got = mixed_forward(x, bank, w, head, spec, POLICIES["ref64"])
        decision = route_token(x, w, spec)
        want = head @ moe_forward(x, bank, decision)
        assert np.array_equal(got, want)

    def test_fp32_policy_is_noop_on_representable_weights(self):
        spec, bank, w, head, x = toy_layer(11)
        bank.w_in = fp32_round(bank.w_in)
        bank.w_out = fp32_round(bank.w_out)
        w = fp32_round(w)
        head = fp32_round(head)
        all_fp32 = PrecisionPolicy("fp32", "fp32", "fp32")
        got = mixed_forward(x, bank, w, head, spec, all_fp32)
        want = mixed_forward(x, bank, w, head, spec, POLICIES["ref64"])
        assert np.array_equal(got, want)

    def test_zero_experts_give_zero_logits(self):
        spec, bank, w, head, x = toy_layer(12)
        bank.w_in = np.zeros_like(bank.w_in)
        bank.w_out = np.zeros_like(bank.w_out)
        got = mixed_forward(x, bank, w, head, spec, POLICIES["mixed_fp8"])
        assert np.array_equal(got, np.zeros(head.shape[0]))

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_matches_per_matrix_loop_bitwise(self, name):
        for seed in range(20, 30):
            spec, bank, w, head, x = toy_layer(seed)
            got = mixed_forward(x, bank, w, head, spec, POLICIES[name])
            want = longhand_mixed_forward(x, bank, w, head, spec, POLICIES[name])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seed

    def test_mixed_policy_differs_from_reference(self):
        spec, bank, w, head, x = toy_layer(13)
        mixed = mixed_forward(x, bank, w, head, spec, POLICIES["mixed_fp8"])
        ref = mixed_forward(x, bank, w, head, spec, POLICIES["ref64"])
        assert np.max(np.abs(mixed - ref)) > 0.0


def round_matrix(m, fmt_name):
    """Per-matrix rounding through each format's own public rounder."""
    if fmt_name == "fp8_e4m3":
        q = quantize_fp8(m)
        return dequantize_fp8(q.codes, q.scale).reshape(m.shape)
    return {"fp64": np.asarray, "fp32": fp32_round, "bf16": bf16_round}[fmt_name](m)


def longhand_mixed_forward(x, bank, w_router, head, spec, pol):
    """The mixed forward written out longhand: every selected expert matrix
    rounded on its own inside the mixture loop."""
    decision = route_token(x, round_matrix(w_router, pol.non_expert), spec, mode="plain_topk")
    y = np.zeros(spec.model_dim)
    for gate, i in zip(decision.gates, decision.selected):
        w_in = round_matrix(bank.w_in[i], pol.expert_weights)
        w_out = round_matrix(bank.w_out[i], pol.expert_weights)
        y += gate * (w_out @ np.maximum(w_in @ x, 0.0))
    return round_matrix(head, pol.lm_head) @ y


TOY_SPEC = MoeLayerSpec(num_experts=8, active_k=2, num_groups=1, model_dim=16, hidden_dim=32)
# The toy layer at a sparser expert count, same k, d and h.
SPARSE_SPEC = MoeLayerSpec(num_experts=256, active_k=2, num_groups=1, model_dim=16, hidden_dim=32)


def materialized_layer(seed, spec, vocab=24):
    """The trial's layer with every expert drawn: bank, router, head, token."""
    rng = Rng(seed)
    bank = ExpertBank.random(rng, spec)
    w_router = rng.normal_matrix(spec.num_experts, spec.model_dim)
    head = rng.normal_matrix(vocab, spec.model_dim) * (4.0 / np.sqrt(spec.model_dim))
    return bank, w_router, head, rng.normal(spec.model_dim)


def materialized_trial(policy, seed, samples, vocab=24, spec=TOY_SPEC):
    """The divergence trial written out longhand: the whole bank drawn, the
    longhand mixed forward, and the k1 mean taken over an explicit token
    stream gathered from both log-prob vectors."""
    bank, w_router, head, x = materialized_layer(seed, spec, vocab)

    ref_logits = longhand_mixed_forward(x, bank, w_router, head, spec, POLICIES["ref64"])
    pol_logits = longhand_mixed_forward(x, bank, w_router, head, spec, policy)
    lp_ref, lp_pol = log_softmax(ref_logits), log_softmax(pol_logits)
    cdf = np.cumsum(np.exp(lp_ref))
    counts = np.diff(np.floor(cdf * samples).astype(np.int64), prepend=0)
    tokens = np.repeat(np.arange(vocab), counts)
    # the cdf can end a hair below 1, so a tiny sample may hold no token: k1 is 0
    gaps = lp_pol[tokens] - lp_ref[tokens]
    return {
        "kl_k1": float(-gaps.mean()) if gaps.size else 0.0,
        "max_abs_logit_diff": float(np.max(np.abs(pol_logits - ref_logits))),
    }


class TestDivergenceTrials:
    @pytest.mark.parametrize("samples", [1, 7, 1000, 65536])
    def test_matches_materialized_token_stream_bitwise(self, samples):
        for seed in (0, 3, 19, 2**31 + 5):
            for name, policy in sorted(POLICIES.items()):
                got = divergence_trial(policy, seed, samples=samples)
                want = materialized_trial(policy, seed, samples)
                assert {k: v.hex() for k, v in got.items()} == {
                    k: v.hex() for k, v in want.items()
                }, (name, seed)

    # At 256 experts a trial draws two to four of them: the others' weights
    # never exist, yet every bit matches the trial over the whole drawn bank.
    def test_sparse_layer_matches_materialized_bank_bitwise(self, monkeypatch):
        monkeypatch.setattr(precision, "_TOY_SPEC", SPARSE_SPEC)
        for seed in (0, 5, 2**31 + 5):
            for name, policy in sorted(POLICIES.items()):
                got = divergence_trial(policy, seed, samples=1000)
                want = materialized_trial(policy, seed, 1000, spec=SPARSE_SPEC)
                assert {k: v.hex() for k, v in got.items()} == {
                    k: v.hex() for k, v in want.items()
                }, (name, seed)

    # The bank is evaluated only for the experts some engine routes to, and
    # each of those only once: |routed experts| x 2 stacks x h x d values.
    @pytest.mark.parametrize("spec", [TOY_SPEC, SPARSE_SPEC], ids=["N8", "N256"])
    def test_trial_draws_only_the_routed_experts(self, monkeypatch, spec):
        evaluated = []
        real_at = NormalDraw.at

        def counting(draw, positions):
            evaluated.append(np.size(positions))
            return real_at(draw, positions)

        monkeypatch.setattr(NormalDraw, "at", counting)
        monkeypatch.setattr(precision, "_TOY_SPEC", spec)
        policies = list(POLICIES.values())
        for seed in range(12):
            evaluated.clear()
            divergence_trials(policies, seed, samples=64)
            _, w_router, _, x = materialized_layer(seed, spec)
            formats = {"fp64"} | {p.non_expert for p in policies}
            routed = set()
            for fmt in formats:
                routed |= set(route_token(x, round_matrix(w_router, fmt), spec).selected.tolist())
            assert sum(evaluated) == len(routed) * 2 * spec.hidden_dim * spec.model_dim, seed

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            divergence_trial(POLICIES["mixed_fp8"], 0, samples=samples)

    def test_trial_is_deterministic(self):
        a = divergence_trial(POLICIES["mixed_fp8"], 42)
        b = divergence_trial(POLICIES["mixed_fp8"], 42)
        assert a == b

    def test_head_precision_ordering(self):
        fp32 = [divergence_trial(POLICIES["fp32head"], s)["kl_k1"] for s in range(50)]
        bf16 = [divergence_trial(POLICIES["bf16head"], s)["kl_k1"] for s in range(50)]
        assert np.median(fp32) <= np.median(bf16)
        # the paired per-seed comparison also holds with this trial design
        assert all(a <= b for a, b in zip(fp32, bf16))

    def test_mixed_policy_diverges_but_reference_does_not(self):
        row = divergence_trial(POLICIES["mixed_fp8"], 3)
        assert row["max_abs_logit_diff"] > 0.0
        ref = divergence_trial(POLICIES["ref64"], 3)
        assert ref["max_abs_logit_diff"] == 0.0
        assert ref["kl_k1"] == 0.0


class TestPrecisionSweep:
    @pytest.mark.parametrize("samples", [1, 7, 65536])
    def test_shared_layer_rows_equal_one_policy_trials_bitwise(self, samples):
        names = list(POLICIES)
        assert len(names) == 6
        rows = precision_sweep(names, 3, 5, samples)
        assert [(r["policy"], r["seed"]) for r in rows] == [
            (n, 5 + i) for n in names for i in range(3)
        ]
        for r in rows:
            want = divergence_trial(POLICIES[r["policy"]], r["seed"], samples=samples)
            got = np.array([r["kl_k1"], r["max_abs_logit_diff"]]).view(np.uint64)
            exp = np.array([want["kl_k1"], want["max_abs_logit_diff"]]).view(np.uint64)
            assert np.array_equal(got, exp), (r["policy"], r["seed"])

    def test_one_reference_forward_per_seed(self, monkeypatch):
        calls = []
        real = precision.mixed_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(precision, "mixed_forward", counting)
        precision_sweep(list(POLICIES), 3, 0, 64)
        assert len(calls) == 3 * 7  # per seed: the reference, then six policies

    @pytest.mark.parametrize(
        "names,trials,match",
        [([], 1, "at least one policy"), (["fp13"], 1, "unknown policies"),
         (["mixed_fp8"], 0, "trials must be at least 1"),
         (["mixed_fp8"], -1, "trials must be at least 1")],
    )
    def test_bad_arguments_rejected(self, names, trials, match):
        with pytest.raises(ValueError, match=match):
            precision_sweep(names, trials, 0, 64)


def awkward_stack():
    """Expert-like (k, h, d) stack: ordinary, all-zero, saturating-amax and tiny matrices."""
    rng = Rng(21)
    amax = 1.026  # (448 / amax) * amax rounds to just above 448
    assert (448.0 / amax) * amax > 448.0
    saturating = rng.normal_matrix(6, 5)
    saturating /= np.max(np.abs(saturating))
    saturating[2, 3] = -amax  # the only entry beyond magnitude 1
    tiny = rng.normal_matrix(6, 5) * 1e-6
    tiny[0, 0] = 3.0  # the rest of the matrix underflows towards subnormals
    return np.stack([rng.normal_matrix(6, 5) * 30.0, np.zeros((6, 5)), saturating, tiny])


class TestApplyFormat:
    @pytest.mark.parametrize("fmt_name", ["fp64", "fp32", "bf16", "fp8_e4m3"])
    def test_stack_equals_per_matrix_rounding(self, fmt_name):
        stack = awkward_stack()
        got = apply_format(stack, fmt_name)
        want = np.stack([round_matrix(m, fmt_name) for m in stack])
        assert got.shape == stack.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fp8_stack_scales_each_matrix(self):
        stack = awkward_stack()
        got = apply_format(stack, "fp8_e4m3")
        assert np.array_equal(got[1], np.zeros((6, 5)))  # all-zero: scale 1, exact
        assert got[2, 2, 3] == -1.026  # the amax maps onto 448 and back exactly
        # a single tensor over the whole stack would round the tiny matrix differently
        whole = round_matrix(stack.reshape(-1, 5), "fp8_e4m3").reshape(stack.shape)
        assert not np.array_equal(got[3], whole[3])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            apply_format(np.ones(3), "fp16")

    def test_policy_validates_formats(self):
        with pytest.raises(ValueError, match="lm_head: unknown format 'int8'"):
            PrecisionPolicy("fp8_e4m3", "bf16", "int8")
