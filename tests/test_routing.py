import math

import numpy as np
import pytest
from helpers import brute_grouped, brute_topk, linear_bank, traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moelab.core import Rng, finite_diff_grad
from moelab.routing import (
    ExpertBank,
    MoeLayerSpec,
    RoutingDecision,
    gate_weights,
    grouped_select,
    grouped_select_batch,
    moe_forward,
    route_token,
    router_probs,
    router_probs_batch,
    select,
    ste_backward,
    ste_gate_value,
    topk_select,
    topk_select_batch,
)


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


class TestSpecValidation:
    def test_valid(self):
        MoeLayerSpec(num_experts=8, active_k=2, num_groups=2, model_dim=4, hidden_dim=8)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            pytest.param(dict(num_experts=8, active_k=0, num_groups=1, model_dim=4, hidden_dim=8),
                         "active_k must satisfy 1 <= k <= 8, got 0", id="kwargs0"),
            pytest.param(dict(num_experts=8, active_k=9, num_groups=1, model_dim=4, hidden_dim=8),
                         "active_k must satisfy 1 <= k <= 8, got 9", id="kwargs1"),
            pytest.param(dict(num_experts=8, active_k=2, num_groups=3, model_dim=4, hidden_dim=8),
                         r"num_groups must divide num_experts \(8\), got 3", id="kwargs2"),
            pytest.param(dict(num_experts=8, active_k=2, num_groups=4, model_dim=4, hidden_dim=8),
                         r"num_groups must divide active_k \(2\), got 4", id="kwargs3"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MoeLayerSpec(**kwargs)

    def test_no_experts_named_before_k(self):
        with pytest.raises(ValueError, match="num_experts must be positive, got 0"):
            MoeLayerSpec(num_experts=0, active_k=8, num_groups=1, model_dim=4, hidden_dim=8)


class TestRouterProbs:
    def test_equal_logits_uniform(self):
        w = np.zeros((4, 3))
        p = router_probs(np.array([1.0, -2.0, 0.5]), w)
        assert np.allclose(p, 0.25, atol=1e-15)

    def test_analytic_softmax(self):
        # logits [ln 2, 0, 0] via an identity-ish router on a crafted token
        w = np.array([[1.0], [0.0], [0.0]])
        p = router_probs(np.array([math.log(2.0)]), w)
        assert np.allclose(p, [0.5, 0.25, 0.25], atol=1e-15)

    def test_sums_to_one(self):
        rng = Rng(11)
        for _ in range(50):
            p = router_probs(rng.normal(7), rng.normal_matrix(12, 7))
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_nonfinite_logit_names_expert(self):
        w = np.zeros((5, 2))
        w[3, 0] = np.inf
        with pytest.raises(ValueError, match="expert 3"):
            router_probs(np.array([1.0, 1.0]), w)

    def test_token_dim_must_match_router(self):
        with pytest.raises(ValueError, match=r"router shape \(4, 5\) incompatible with token dim 3"):
            router_probs_batch(np.ones((2, 3)), np.ones((4, 5)))

    def test_extreme_logits_stable(self):
        w = np.array([[1000.0], [0.0]])
        p = router_probs(np.array([1.0]), w)
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) <= 1e-12


class TestTopkSelect:
    def test_against_enumeration_oracle(self):
        p = np.array([0.4, 0.1, 0.2, 0.3])
        expected = brute_topk(p, 2)
        assert np.array_equal(expected, [0, 3])
        assert np.array_equal(topk_select(p, 2), expected)

    def test_k_equals_n(self):
        p = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(topk_select(p, 3), [0, 1, 2])

    def test_uniform_tie_break(self):
        p = np.full(5, 0.2)
        assert np.array_equal(topk_select(p, 2), [0, 1])

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="1 <= k <= 2, got 3"):
            topk_select(np.array([0.5, 0.5]), 3)

    def test_random_vs_oracle(self):
        rng = Rng(21)
        for _ in range(200):
            p = softmax(rng.normal(6))
            k = 1 + int(rng.uniform(1)[0] * 6)
            assert np.array_equal(topk_select(p, k), brute_topk(p, k))


class TestGroupedSelect:
    def test_single_group_degenerates_to_topk(self):
        spec = MoeLayerSpec(num_experts=8, active_k=3, num_groups=1, model_dim=2, hidden_dim=4)
        rng = Rng(5)
        for _ in range(1000):
            p = softmax(rng.normal(8))
            assert np.array_equal(grouped_select(p, spec), topk_select(p, 3))

    def test_two_block_example(self):
        spec = MoeLayerSpec(num_experts=4, active_k=2, num_groups=2, model_dim=2, hidden_dim=4)
        p = np.array([0.4, 0.1, 0.2, 0.3])
        expected = brute_grouped(p, spec)
        assert np.array_equal(expected, [0, 3])
        assert np.array_equal(grouped_select(p, spec), expected)

    def test_top1_per_group_config(self):
        # k=8 split over 8 groups: exactly one expert per contiguous block
        spec = MoeLayerSpec(num_experts=64, active_k=8, num_groups=8, model_dim=2, hidden_dim=4)
        rng = Rng(17)
        for _ in range(100):
            s = grouped_select(softmax(rng.normal(64)), spec)
            assert s.size == 8
            assert np.array_equal(s // 8, np.arange(8))

    def test_cardinality_always_k(self):
        spec = MoeLayerSpec(num_experts=12, active_k=4, num_groups=2, model_dim=2, hidden_dim=4)
        rng = Rng(29)
        for _ in range(300):
            s = grouped_select(softmax(rng.normal(12)), spec)
            assert s.size == 4 and np.unique(s).size == 4
            counts = np.bincount(s // 6, minlength=2)
            assert np.array_equal(counts, [2, 2])

    def test_disagrees_with_plain_topk_sometimes(self):
        spec = MoeLayerSpec(num_experts=64, active_k=8, num_groups=8, model_dim=2, hidden_dim=4)
        rng = Rng(31)
        disagreements = 0
        for _ in range(1000):
            p = softmax(rng.normal(64))
            if not np.array_equal(grouped_select(p, spec), topk_select(p, 8)):
                disagreements += 1
        assert disagreements > 0

    def test_wrong_length_rejected(self):
        spec = MoeLayerSpec(num_experts=8, active_k=2, num_groups=2, model_dim=2, hidden_dim=4)
        with pytest.raises(ValueError, match="probability width 6 != num_experts 8"):
            grouped_select(np.full(6, 1 / 6), spec)

    def test_unknown_mode_rejected(self):
        spec = MoeLayerSpec(num_experts=8, active_k=2, num_groups=2, model_dim=2, hidden_dim=4)
        with pytest.raises(ValueError, match="unknown routing mode 'top1'"):
            select(np.full((1, 8), 1 / 8), spec, "top1")


class TestGateWeights:
    def test_singleton(self):
        assert np.array_equal(gate_weights([0.1, 0.7, 0.2], [1]), [1.0])

    def test_full_set_returns_probs(self):
        p = softmax(Rng(2).normal(5))
        assert np.allclose(gate_weights(p, np.arange(5)), p, atol=1e-15)

    def test_hand_evaluation(self):
        g = gate_weights([0.4, 0.1, 0.2, 0.3], [0, 3])
        assert np.allclose(g, [4.0 / 7.0, 3.0 / 7.0], atol=1e-15)
        assert abs(g.sum() - 1.0) <= 1e-12

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="zero probability mass"):
            gate_weights([0.5, 0.5, 0.0], [2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="selected set must be nonempty"):
            gate_weights([0.5, 0.5], [])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=r"negative probability -1.0 at index 1"):
            gate_weights([2.0, -1.0, 0.0], [0, 1])
        assert np.array_equal(gate_weights([0.5, 0.5, -0.0], [0, 2]), [1.0, -0.0])

    @pytest.mark.parametrize("selected", [[-1], [0, 2], [2, 0]])
    def test_out_of_range_rejected(self, selected):
        with pytest.raises(ValueError, match=r"out of range \[0, 2\)"):
            gate_weights([0.5, 0.5], selected)


class TestMoeForward:
    def test_identity_experts_return_token(self):
        rng = Rng(13)
        bank = linear_bank(4, 6, np.ones(4))
        x = rng.normal(6)
        spec = MoeLayerSpec(num_experts=4, active_k=2, num_groups=1, model_dim=6, hidden_dim=12)
        decision = route_token(x, rng.normal_matrix(4, 6), spec)
        y = moe_forward(x, bank, decision)
        assert np.max(np.abs(y - x)) <= 1e-12

    def test_single_doubling_expert(self):
        bank = linear_bank(3, 4, np.array([5.0, 2.0, 7.0]))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        decision = RoutingDecision(probs=np.array([0.2, 0.5, 0.3]), selected=np.array([1]))
        assert np.allclose(moe_forward(x, bank, decision), 2.0 * x, atol=1e-15)

    def test_two_expert_convex_combination(self):
        a, b, g = 3.0, -1.5, 0.375
        bank = linear_bank(2, 3, np.array([a, b]))
        x = np.array([0.3, -0.7, 1.1])
        decision = RoutingDecision(probs=np.array([g, 1 - g]), selected=np.array([0, 1]))
        assert np.array_equal(decision.gates, [g, 1 - g])
        want = (g * a + (1 - g) * b) * x
        assert np.allclose(moe_forward(x, bank, decision), want, atol=1e-14)

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 4), (256, 1), (256, 8)])
    def test_matches_per_expert_sum_bitwise(self, n, k):
        # Longhand mixture: one FFN w_out @ relu(w_in @ x) per selected
        # expert, summed in selection order (k is capped at N).
        rng = Rng(1000 + n + k)
        spec = MoeLayerSpec(num_experts=n, active_k=k, num_groups=1, model_dim=8, hidden_dim=16)
        bank = ExpertBank.random(rng, spec)
        w = rng.normal_matrix(n, 8)
        for _ in range(20):
            x = rng.normal(8)
            decision = route_token(x, w, spec)
            want = np.zeros(8)
            for gate, i in zip(decision.gates, decision.selected):
                want += gate * (bank.w_out[i] @ np.maximum(bank.w_in[i] @ x, 0.0))
            got = moe_forward(x, bank, decision)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_shape_mismatch(self):
        bank = linear_bank(2, 3, np.ones(2))
        decision = RoutingDecision(probs=np.array([0.5, 0.5]), selected=np.array([0]))
        with pytest.raises(ValueError, match="token dim 4 != bank model dim 3"):
            moe_forward(np.ones(4), bank, decision)

    def test_expert_count_mismatch(self):
        bank = linear_bank(2, 3, np.ones(2))
        decision = RoutingDecision(probs=np.full(3, 1 / 3), selected=np.array([0]))
        with pytest.raises(ValueError, match="decision covers a different number of experts"):
            moe_forward(np.ones(3), bank, decision)


class TestSteGateValue:
    def test_forward_identity_with_gate_weights(self):
        rng = Rng(41)
        for _ in range(100):
            z = rng.normal(6)
            q = softmax(z)
            s = topk_select(q, 3)
            assert np.max(np.abs(ste_gate_value(z, s) - q[s] / q[s].sum())) <= 1e-12

    def test_singleton(self):
        assert np.array_equal(ste_gate_value(np.array([2.0, 1.0, 0.0]), [0]), [1.0])

    def test_explicit_instance(self):
        z = np.array([1.0, 0.0, -1.0])
        q = softmax(z)
        assert np.max(np.abs(ste_gate_value(z, [0, 1]) - q[:2] / q[:2].sum())) <= 1e-12


class TestSteBackward:
    def test_zero_upstream(self):
        g = ste_backward(np.zeros(2), np.array([1.0, 0.5, -0.3]), [0, 2])
        assert np.array_equal(g, np.zeros(3))

    def test_gradient_sums_to_zero(self):
        rng = Rng(51)
        for _ in range(100):
            n = 3 + int(rng.uniform(1)[0] * 10)
            z = rng.normal(n)
            k = 1 + int(rng.uniform(1)[0] * n)
            s = topk_select(softmax(z), k)
            g = ste_backward(rng.normal(k), z, s, 1.0)
            assert abs(g.sum()) <= 1e-12

    def test_matches_finite_differences(self):
        rng = Rng(61)
        taus = [0.5, 1.0, 2.0]
        worst = 0.0
        for trial in range(100):
            n = 3 + int(rng.uniform(1)[0] * 14)
            tau = taus[trial % 3]
            z = rng.normal(n)
            k = min(n, 2 + int(rng.uniform(1)[0] * 3))
            s = topk_select(softmax(z), k)
            up = rng.normal(k)

            def loss(zv):
                p = softmax(zv / tau)
                return float((up * p[s]).sum())

            fd = finite_diff_grad(loss, z, h=1e-6)
            an = ste_backward(up, z, s, tau)
            rel = np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-30)
            worst = max(worst, rel)
        assert worst <= 1e-6

    def test_unselected_experts_receive_gradient(self):
        rng = Rng(71)
        hits = 0
        for _ in range(100):
            z = rng.normal(8)
            s = topk_select(softmax(z), 2)
            g = ste_backward(rng.normal(2), z, s, 1.0)
            unselected = np.setdiff1d(np.arange(8), s)
            if np.any(np.abs(g[unselected]) > 0):
                hits += 1
        assert hits == 100

    def test_upstream_alignment_enforced(self):
        with pytest.raises(ValueError, match="upstream must align"):
            ste_backward(np.zeros(3), np.zeros(4), [0, 1])

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_nonpositive_temperature_rejected(self, tau):
        with pytest.raises(ValueError, match="temperature must be positive"):
            ste_backward([1.0], np.zeros(3), [0], tau)

    @pytest.mark.parametrize("selected", [[3], [-1]])
    def test_out_of_range_rejected(self, selected):
        with pytest.raises(ValueError, match=r"selected indices out of range \[0, 3\)"):
            ste_backward([1.0], np.zeros(3), selected)

    def test_repeated_indices_rejected(self):
        # Summing both upstreams would give [-0.300, 0.666, -0.366]; keeping
        # only the last one gave [-0.200, 0.444, -0.244].
        with pytest.raises(ValueError, match="selected indices must be distinct"):
            ste_backward([1.0, 2.0], [0.1, 0.2, 0.3], [1, 1])


class TestBatchForms:
    def test_probs_match_softmax_oracle(self):
        rng = Rng(81)
        x = rng.normal_matrix(20, 5)
        w = rng.normal_matrix(9, 5)
        batch = router_probs_batch(x, w)
        for t in range(20):
            assert np.allclose(batch[t], softmax(w @ x[t]), rtol=0, atol=1e-15)

    def test_topk_matches_enumeration_oracle(self):
        rng = Rng(82)
        p = router_probs_batch(rng.normal_matrix(50, 4), rng.normal_matrix(10, 4))
        sel = topk_select_batch(p, 3)
        for t in range(50):
            assert np.array_equal(sel[t], brute_topk(p[t], 3))

    def test_grouped_matches_enumeration_oracle(self):
        spec = MoeLayerSpec(num_experts=12, active_k=4, num_groups=4, model_dim=4, hidden_dim=8)
        rng = Rng(83)
        p = router_probs_batch(rng.normal_matrix(50, 4), rng.normal_matrix(12, 4))
        sel = grouped_select_batch(p, spec)
        for t in range(50):
            assert np.array_equal(sel[t], brute_grouped(p[t], spec))

    def test_ties_match_enumeration_oracle(self):
        # Dyadic scores: many exact ties, and subset sums the oracle adds exactly.
        spec = MoeLayerSpec(num_experts=8, active_k=4, num_groups=2, model_dim=1, hidden_dim=1)
        p = Rng(84).integers(40 * 8, 4).reshape(40, 8) * 0.125
        plain = topk_select_batch(p, 3)
        grouped = grouped_select_batch(p, spec)
        for t in range(40):
            assert np.array_equal(plain[t], brute_topk(p[t], 3))
            assert np.array_equal(grouped[t], brute_grouped(p[t], spec))


# A few dyadic values, both zeros among them: exact ties in almost every
# block, and subset sums the enumeration oracles add exactly.
TIED = st.sampled_from([-0.0, 0.0, 0.125, 0.25, 0.5])


@st.composite
def tied_rows(draw, max_groups, max_size):
    """(probs, num_groups, take): 1-3 rows of ``num_groups`` blocks."""
    groups = draw(st.integers(1, max_groups))
    size = draw(st.integers(1, max_size))
    take = draw(st.integers(1, size))
    rows = draw(st.integers(1, 3))
    n = groups * size
    p = np.array(draw(st.lists(TIED, min_size=rows * n, max_size=rows * n)))
    return p.reshape(rows, n), groups, take


class TestSelectionProperties:
    """The selection kernel against the enumeration oracles on tie-heavy input."""

    @settings(max_examples=300)
    @given(tied_rows(max_groups=4, max_size=5))
    @example((np.array([[0.25, 0.5, 0.5, 0.0]]), 2, 1))  # take == 1
    @example((np.array([[0.0, -0.0, 0.125, 0.125]]), 2, 2))  # take == group size
    @example((np.array([[0.125, 0.5, 0.125, 0.25, 0.125]]), 1, 3))  # one group, straddling tie
    @example((np.array([[-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]]), 3, 1))  # signed-zero ties
    def test_grouped_matches_oracle(self, case):
        p, groups, take = case
        n = p.shape[1]
        spec = MoeLayerSpec(num_experts=n, active_k=groups * take, num_groups=groups,
                            model_dim=1, hidden_dim=1)
        got = grouped_select_batch(p, spec)
        assert got.shape == (p.shape[0], spec.active_k)
        for row, sel in zip(p, got):
            assert np.array_equal(sel, brute_grouped(row, spec))

    @settings(max_examples=300)
    @given(tied_rows(max_groups=1, max_size=10))
    @example((np.array([[0.125, 0.25, 0.125, 0.5, 0.125, 0.125]]), 1, 3))  # straddling tie
    @example((np.array([[-0.0, 0.0, 0.0, -0.0]]), 1, 2))  # signed-zero ties
    @example((np.array([[0.5, 0.5, 0.5]]), 1, 3))  # k == N
    def test_topk_matches_oracle(self, case):
        p, _, k = case
        got = topk_select_batch(p, k)
        for row, sel in zip(p, got):
            assert np.array_equal(sel, brute_topk(row, k))


SPEC_4X2 = MoeLayerSpec(num_experts=4, active_k=2, num_groups=2, model_dim=1, hidden_dim=1)


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: topk_select_batch(p, 2),
            lambda p: grouped_select_batch(p, SPEC_4X2),
            lambda p: select(p, SPEC_4X2, "plain_topk"),
            lambda p: select(p, SPEC_4X2, "grouped"),
        ],
        ids=["topk_batch", "grouped_batch", "select_plain", "select_grouped"],
    )
    def test_batch_entry_points_name_the_entry(self, call, bad):
        p = np.full((3, 4), 0.25)
        p[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite probability .* row 1, column 2"):
            call(p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: topk_select(p, 2),
            lambda p: grouped_select(p, SPEC_4X2),
            lambda p: gate_weights(p, [0, 2]),
        ],
        ids=["topk", "grouped", "gate_weights"],
    )
    def test_vector_entry_points_name_the_entry(self, call, bad):
        with pytest.raises(ValueError, match="non-finite probability .* row 0, column 1"):
            call([0.1, bad, 0.5, 0.4])


class TestGateRule:
    """Derived gates against a test-local ``p[s] / p[s].sum()``, bit for bit."""

    @staticmethod
    def assert_rule(gates, p, s):
        want = p[s] / p[s].sum()
        assert np.array_equal(gates.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mode", ["plain_topk", "grouped"])
    def test_route_token(self, mode):
        spec = MoeLayerSpec(num_experts=16, active_k=4, num_groups=2, model_dim=6, hidden_dim=8)
        rng = Rng(91)
        w = rng.normal_matrix(16, 6)
        for _ in range(50):
            x = rng.normal(6)
            d = route_token(x, w, spec, mode)
            p = router_probs(x, w)
            assert np.array_equal(d.probs, p)
            self.assert_rule(d.gates, p, d.selected)

    def test_decision_from_probs_and_selection(self):
        rng = Rng(92)
        for _ in range(50):
            p = softmax(rng.normal(12))
            s = topk_select(p, 5)
            self.assert_rule(RoutingDecision(p, s).gates, p, s)


class TestRoutingDecisionInvariants:
    # The decision only coerces and derives; its producers check its input
    # (test_replay.py covers replay_select's probability checks).
    def test_accepts_valid_decision(self):
        d = RoutingDecision(probs=[0.5, 0.3, 0.2], selected=[0, 2])
        assert d.selected.dtype == np.int64
        assert d.probs.dtype == np.float64

    def test_bank_random_shapes(self):
        spec = MoeLayerSpec(num_experts=5, active_k=2, num_groups=1, model_dim=3, hidden_dim=7)
        bank = ExpertBank.random(Rng(1), spec)
        assert bank.num_experts == 5
        assert bank.param_count == 5 * (7 * 3 + 3 * 7)

    @pytest.mark.parametrize("w_in, w_out, match", [
        (np.zeros((2, 3)), np.zeros((2, 3)), "stacked 3-D arrays"),
        (np.zeros((2, 4, 3)), np.zeros((2, 4, 3)),
         r"w_out shape \(2, 4, 3\) inconsistent with w_in \(2, 4, 3\)"),
    ])
    def test_bank_shapes_rejected(self, w_in, w_out, match):
        with pytest.raises(ValueError, match=match):
            ExpertBank(w_in, w_out)

    # Generation in blocks and in-place scaling leave only a few block-sized
    # temporaries next to the bank; full-size ones would take about 3x it.
    def test_bank_random_peak_memory_is_the_bank(self):
        spec = MoeLayerSpec(num_experts=256, active_k=8, num_groups=8, model_dim=32, hidden_dim=64)
        bank, peak = traced_peak(lambda: ExpertBank.random(Rng(0), spec))
        assert peak <= bank.w_in.nbytes + bank.w_out.nbytes + (1 << 20)
