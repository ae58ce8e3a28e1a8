import io
import math
import struct

import numpy as np
import pytest

from moelab.core import Rng
from moelab.expansion import (
    ActivationStats,
    CheckpointError,
    activation_stats,
    expand_layer,
    frequency_ranking,
    load_layer,
    plan_expansion,
    save_layer,
)
from moelab.routing import (
    ExpertBank,
    MoeLayerSpec,
    grouped_select_batch,
    router_probs_batch,
    topk_select_batch,
)


def make_stats(rank1, rank2=None):
    rank1 = np.asarray(rank1, dtype=np.int64)
    if rank2 is None:
        rank2 = np.zeros_like(rank1)
        rank2[0] = rank1.sum()
    return ActivationStats(rank1=rank1, rank2=rank2)


class TestActivationStats:
    def test_dominant_expert_takes_all_rank1(self):
        rng = Rng(1)
        w = rng.normal_matrix(6, 4)
        w[2] = 50.0
        batch = np.abs(rng.normal_matrix(50, 4)) + 0.1
        stats = activation_stats(batch, w, k=2)
        assert stats.rank1[2] == 50

    def test_rank1_sums_to_token_count(self):
        rng = Rng(2)
        stats = activation_stats(rng.normal_matrix(33, 5), rng.normal_matrix(8, 5), k=2)
        assert stats.rank1.sum() == 33
        assert stats.rank2.sum() == 33

    def test_matches_brute_force_retally(self):
        rng = Rng(3)
        batch = rng.normal_matrix(1000, 6)
        w = rng.normal_matrix(8, 6)
        stats = activation_stats(batch, w, k=2)

        # Independent per-token tally via plain python sorting.
        r1 = np.zeros(8, dtype=np.int64)
        r2 = np.zeros(8, dtype=np.int64)
        for t in range(1000):
            z = w @ batch[t]
            order = sorted(range(8), key=lambda i: (-z[i], i))
            r1[order[0]] += 1
            r2[order[1]] += 1
        assert np.array_equal(stats.rank1, r1)
        assert np.array_equal(stats.rank2, r2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tied_experts_rank_lower_index_first(self, k):
        rng = Rng(5)
        w = rng.normal_matrix(6, 4)
        w[1] *= 4.0
        w[4] = w[1]  # experts 1 and 4 tie on every token
        batch = rng.normal_matrix(200, 4)
        stats = activation_stats(batch, w, k=k)

        r1 = np.zeros(6, dtype=np.int64)
        r2 = np.zeros(6, dtype=np.int64)
        for x in batch:
            z = w @ x
            order = sorted(range(6), key=lambda i: (-z[i], i))
            r1[order[0]] += 1
            if k >= 2:
                r2[order[1]] += 1
        assert r1[1] > 0 and r1[4] == 0  # the tie decided some rank-1 slots
        assert np.array_equal(stats.rank1, r1)
        assert np.array_equal(stats.rank2, r2)

    def test_k1_has_no_rank2(self):
        rng = Rng(4)
        stats = activation_stats(rng.normal_matrix(10, 3), rng.normal_matrix(4, 3), k=1)
        assert stats.rank2.sum() == 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one token"):
            activation_stats(np.zeros((0, 4)), np.zeros((4, 4)), k=2)


class TestPlanExpansion:
    def test_identity_when_unexpanded(self):
        stats = make_stats([5, 3, 2, 1])
        plan = plan_expansion(stats, factor=1, num_groups=1, strategy="grouped_top")
        assert np.array_equal(plan.mapping, np.arange(4))

    def test_top_expert_copied_into_every_group(self):
        rank1 = np.array([1, 2, 1, 40, 2, 1, 2, 1])
        plan = plan_expansion(make_stats(rank1), factor=4, num_groups=8, strategy="grouped_top")
        assert plan.new_count == 32
        groups = plan.mapping.reshape(plan.num_groups, -1)
        for g in range(8):
            assert 3 in groups[g]

    def test_differentiated_groups_are_single_family(self):
        rank1 = np.array([10, 80, 70, 60, 50, 40, 30, 20])
        ranking = frequency_ranking(make_stats(rank1))
        plan = plan_expansion(make_stats(rank1), factor=4, num_groups=8, strategy="differentiated")
        groups = plan.mapping.reshape(plan.num_groups, -1)
        for g in range(8):
            fam = np.unique(groups[g])
            assert fam.size == 1 and fam[0] == ranking[g]

    def test_grouped_top_coverage_of_high_frequency_experts(self):
        # Every group holds at least one expert from the top half of the
        # rank-1 frequency ordering, checkable from the plan alone.
        rng = Rng(9)
        for _ in range(20):
            counts = (rng.uniform(8) * 50).astype(np.int64) + 1
            stats = make_stats(counts)
            top_half = set(frequency_ranking(stats)[:4].tolist())
            plan = plan_expansion(stats, factor=4, num_groups=8, strategy="grouped_top")
            groups = plan.mapping.reshape(plan.num_groups, -1)
            for g in range(8):
                assert top_half & set(groups[g].tolist())

    def test_rank2_breaks_rank1_ties(self):
        stats = ActivationStats(rank1=np.array([5, 5, 0]), rank2=np.array([1, 9, 0]))
        assert np.array_equal(frequency_ranking(stats), [1, 0, 2])

    def test_bad_divisibility_rejected(self):
        with pytest.raises(ValueError, match="num_groups must divide the expanded count 6"):
            plan_expansion(make_stats([3, 2, 1]), factor=2, num_groups=4)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown expansion strategy 'random'"):
            plan_expansion(make_stats([3, 2, 1]), factor=1, num_groups=1, strategy="random")


class TestExpandLayer:
    def _layer(self, seed, n=4, d=8, hidden=6):
        rng = Rng(seed)
        spec = MoeLayerSpec(num_experts=n, active_k=2, num_groups=1, model_dim=d, hidden_dim=hidden)
        return ExpertBank.random(rng, spec), rng.normal_matrix(n, d), rng

    def test_identity_expansion_is_bitwise(self):
        bank, w, _ = self._layer(5)
        plan = plan_expansion(make_stats([10, 9, 8, 7]), factor=1, num_groups=1)
        nb, nw = expand_layer(bank, w, plan, noise=0.0)
        assert np.array_equal(nb.w_in, bank.w_in)
        assert np.array_equal(nb.w_out, bank.w_out)
        assert np.array_equal(nw, w)

    def test_zero_noise_copies_are_bitwise_faithful(self):
        bank, w, _ = self._layer(6)
        plan = plan_expansion(make_stats([10, 9, 8, 7]), factor=4, num_groups=4)
        nb, nw = expand_layer(bank, w, plan, noise=0.0)
        for e_new, e_src in enumerate(plan.mapping):
            assert np.array_equal(nb.w_in[e_new], bank.w_in[e_src])
            assert np.array_equal(nb.w_out[e_new], bank.w_out[e_src])
            assert np.array_equal(nw[e_new], w[e_src])

    def test_parameter_count_scales_exactly(self):
        bank, w, _ = self._layer(7)
        plan = plan_expansion(make_stats([10, 9, 8, 7]), factor=4, num_groups=4)
        nb, _ = expand_layer(bank, w, plan, noise=0.0)
        assert nb.param_count == 4 * bank.param_count

    def test_noise_perturbs_router_not_experts(self):
        bank, w, rng = self._layer(8)
        plan = plan_expansion(make_stats([10, 9, 8, 7]), factor=2, num_groups=2)
        source = (w.copy(), bank.w_in.copy(), bank.w_out.copy())
        nb, nw = expand_layer(bank, w, plan, noise=1e-3, rng=rng)
        for grown, src, before in zip((nw, nb.w_in, nb.w_out), (w, bank.w_in, bank.w_out), source):
            assert not np.shares_memory(grown, src) and np.array_equal(src, before)
        assert np.array_equal(nb.w_in, bank.w_in[plan.mapping])
        assert not np.array_equal(nw, w[plan.mapping])
        rel = np.linalg.norm(nw - w[plan.mapping]) / np.linalg.norm(w[plan.mapping])
        assert rel < 0.05

    def test_noise_requires_rng(self):
        bank, w, _ = self._layer(9)
        plan = plan_expansion(make_stats([10, 9, 8, 7]), factor=1, num_groups=1)
        with pytest.raises(ValueError, match="rng is required"):
            expand_layer(bank, w, plan, noise=1e-3, rng=None)

    @pytest.mark.parametrize("plan_experts, router_rows", [(3, 4), (4, 3)])
    def test_expert_counts_must_agree(self, plan_experts, router_rows):
        bank, w, _ = self._layer(10)
        plan = plan_expansion(make_stats(np.arange(plan_experts) + 1), factor=1, num_groups=1)
        with pytest.raises(ValueError, match="plan/bank/router expert counts disagree"):
            expand_layer(bank, w[:router_rows], plan, noise=0.0)

    def test_grouped_top_selections_stay_on_original_topk(self):
        # After expansion with copied rows, route fresh tokens with
        # top-1-per-group selection and map the chosen experts back to their
        # sources: the grouped_top seeding keeps the mapped set inside the
        # original layer's top-k set at least as often as the
        # differentiated seeding does.
        rng = Rng(10)
        n, d, k_orig, factor = 4, 8, 2, 4
        w = rng.normal_matrix(n, d)
        calib = rng.normal_matrix(256, d)
        stats = activation_stats(calib, w, k=k_orig)

        tokens = rng.normal_matrix(256, d)
        orig_probs = router_probs_batch(tokens, w)
        orig_top = topk_select_batch(orig_probs, k_orig)

        rates = {}
        for strategy in ("grouped_top", "differentiated"):
            plan = plan_expansion(stats, factor=factor, num_groups=4, strategy=strategy)
            bank = linear_stub_bank(n, d)
            nb, nw = expand_layer(bank, w, plan, noise=0.0)
            new_spec = MoeLayerSpec(
                num_experts=n * factor,
                active_k=4,
                num_groups=4,
                model_dim=d,
                hidden_dim=bank.w_in.shape[1],
            )
            probs = router_probs_batch(tokens, nw)
            sel = grouped_select_batch(probs, new_spec)
            mapped = plan.mapping[sel]
            ok = 0
            for t in range(tokens.shape[0]):
                if set(np.unique(mapped[t]).tolist()) <= set(orig_top[t].tolist()):
                    ok += 1
            rates[strategy] = ok / tokens.shape[0]
        assert rates["grouped_top"] >= rates["differentiated"]
        assert rates["grouped_top"] > 0


def linear_stub_bank(n, d):
    from helpers import linear_bank

    return linear_bank(n, d, np.arange(1.0, n + 1.0))


class TestCheckpointIO:
    def test_round_trip_bitwise(self):
        rng = Rng(20)
        spec = MoeLayerSpec(num_experts=3, active_k=1, num_groups=1, model_dim=5, hidden_dim=7)
        bank = ExpertBank.random(rng, spec)
        w = rng.normal_matrix(3, 5)
        buf = io.BytesIO()
        save_layer(buf, w, bank)
        buf.seek(0)
        w2, bank2 = load_layer(buf)
        assert np.array_equal(w, w2)
        assert np.array_equal(bank.w_in, bank2.w_in)
        assert np.array_equal(bank.w_out, bank2.w_out)

    def test_truncation_detected(self):
        rng = Rng(21)
        spec = MoeLayerSpec(num_experts=2, active_k=1, num_groups=1, model_dim=3, hidden_dim=4)
        buf = io.BytesIO()
        save_layer(buf, rng.normal_matrix(2, 3), ExpertBank.random(rng, spec))
        data = buf.getvalue()
        with pytest.raises(CheckpointError, match="truncated"):
            load_layer(io.BytesIO(data[:-8]))

    @pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 3, (2**20, 2**10, 2**10)])
    def test_oversized_header_rejected_before_reading(self, dims):
        header = struct.pack("<4sHIII", b"MOEC", 1, *dims)
        with pytest.raises(CheckpointError, match="truncated"):
            load_layer(io.BytesIO(header + bytes(64)))

    def _saved(self):
        rng = Rng(22)
        spec = MoeLayerSpec(num_experts=2, active_k=1, num_groups=1, model_dim=3, hidden_dim=4)
        buf = io.BytesIO()
        save_layer(buf, rng.normal_matrix(2, 3), ExpertBank.random(rng, spec))
        return buf.getvalue()

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_layer(io.BytesIO(self._saved() + bytes(8)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 6, 53])  # first router, first w_in, last w_out
    def test_nonfinite_weight_rejected(self, bad, index):
        data = bytearray(self._saved())
        struct.pack_into("<d", data, struct.calcsize("<4sHIII") + 8 * index, bad)
        with pytest.raises(CheckpointError, match=f"non-finite checkpoint weight .* index {index}$"):
            load_layer(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("n, d, hidden", [(0, 3, 4), (2, 0, 4), (2, 3, 0)])
    def test_empty_layer_refused_before_writing(self, n, d, hidden):
        # load_layer refuses a zero dimension, so nothing may be written.
        buf = io.BytesIO()
        bank = ExpertBank(np.zeros((n, hidden, d)), np.zeros((n, d, hidden)))
        with pytest.raises(CheckpointError, match="zero dimension"):
            save_layer(buf, np.zeros((n, d)), bank)
        assert buf.getvalue() == b""

    def test_router_must_match_bank(self):
        spec = MoeLayerSpec(num_experts=4, active_k=1, num_groups=1, model_dim=8, hidden_dim=6)
        bank = ExpertBank.random(Rng(11), spec)
        buf = io.BytesIO()
        with pytest.raises(ValueError, match=r"router shape \(3, 8\) inconsistent with bank \(4, 8\)"):
            save_layer(buf, np.zeros((3, 8)), bank)
        assert buf.getvalue() == b""

    def test_bad_magic_detected(self):
        with pytest.raises(CheckpointError, match="magic"):
            load_layer(io.BytesIO(b"NOPE" + bytes(64)))
