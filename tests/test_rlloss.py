import io
import math

import numpy as np
import pytest

from moelab.core import Rng, finite_diff_grad
from moelab.rlloss import (
    EngineKl,
    MaskConfig,
    RolloutBatch,
    ToyPolicy,
    batch_from_policy,
    dump_batch,
    engine_kl,
    load_batch,
    loo_advantage,
    mask_ratio,
    rl_loss,
    rl_loss_grad,
)

CFG = MaskConfig(alpha=0.5, beta=2.0)


def neg_logps(rng, n, scale=0.5):
    return -np.abs(rng.normal(n)) * scale - 1e-3


def random_batch(rng, group=4, max_len=5):
    lens = [2 + int(rng.uniform(1)[0] * (max_len - 1)) for _ in range(group)]
    mk = lambda: [neg_logps(rng, l) for l in lens]
    return RolloutBatch(
        logp_train=mk(),
        logp_rollout=mk(),
        logp_new=mk(),
        logp_old=mk(),
        rewards=rng.normal(group),
    )


def oracle_loss(batch, cfg):
    # Spreadsheet-style re-evaluation: plain python loops, math.exp only.
    g = batch.group_size
    total = 0.0
    for i in range(g):
        peers = [float(batch.rewards[j]) for j in range(g) if j != i]
        adv = float(batch.rewards[i]) - sum(peers) / (g - 1)
        n = batch.response_length(i)
        acc = 0.0
        for t in range(n):
            rho = math.exp(float(batch.logp_train[i][t]) - float(batch.logp_rollout[i][t]))
            r = math.exp(float(batch.logp_new[i][t]) - float(batch.logp_old[i][t]))
            m = rho if cfg.alpha < rho < cfg.beta else 0.0
            acc += m * r * adv * float(batch.logp_new[i][t])
        total += acc / n
    return -total / g


class TestLooAdvantage:
    def test_equal_rewards_zero(self):
        assert np.array_equal(loo_advantage(np.full(5, 3.25)), np.zeros(5))

    def test_hand_example(self):
        adv = loo_advantage(np.array([1.0, 0.0, 0.0, 1.0]))
        assert np.allclose(adv, [2 / 3, -2 / 3, -2 / 3, 2 / 3], atol=1e-15)

    def test_zero_sum_exact_for_dyadic_groups(self):
        # Binary rewards with G-1 a power of two keep every intermediate
        # value dyadic, so the cancellation is bit-exact.
        rng = Rng(1)
        for _ in range(200):
            g = int([2, 3, 5, 9, 17][int(rng.uniform(1)[0] * 5)])
            rewards = (rng.uniform(g) < 0.5).astype(np.float64)
            assert loo_advantage(rewards).sum() == 0.0

    def test_zero_sum_tight_for_float_rewards(self):
        rng = Rng(2)
        for _ in range(200):
            g = 2 + int(rng.uniform(1)[0] * 7)
            r = rng.normal(g) * 10
            assert abs(loo_advantage(r).sum()) <= 1e-12 * max(1.0, np.abs(r).sum())

    def test_too_small_group(self):
        with pytest.raises(ValueError):
            loo_advantage(np.array([1.0]))


class TestMaskRatio:
    def test_interior(self):
        assert mask_ratio(1.0, CFG) == 1.0

    def test_above_beta(self):
        assert mask_ratio(5.0, CFG) == 0.0

    def test_boundaries_are_exclusive(self):
        assert mask_ratio(2.0, CFG) == 0.0
        assert mask_ratio(0.5, CFG) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask_ratio(-0.1, CFG)

    def test_widening_never_masks_a_passing_token(self):
        rng = Rng(3)
        for _ in range(300):
            rho = float(rng.uniform(1)[0] * 4)
            a = 0.1 + rng.uniform(1)[0] * 0.8
            b = a + 0.1 + rng.uniform(1)[0] * 3
            inner = MaskConfig(alpha=a, beta=b)
            wider = MaskConfig(alpha=a / 2, beta=b * 2)
            if mask_ratio(rho, inner) != 0.0:
                assert mask_ratio(rho, wider) != 0.0


class TestRlLoss:
    def test_unit_ratio_reduces_to_reinforce_with_baseline(self):
        rng = Rng(4)
        for _ in range(20):
            g = 3
            lens = [3, 4, 2]
            lp = [neg_logps(rng, l) for l in lens]
            rewards = rng.normal(g)
            batch = RolloutBatch(
                logp_train=[a.copy() for a in lp],
                logp_rollout=[a.copy() for a in lp],
                logp_new=[a.copy() for a in lp],
                logp_old=[a.copy() for a in lp],
                rewards=rewards,
            )
            adv = loo_advantage(rewards)
            vanilla = -sum(adv[i] * lp[i].mean() for i in range(g)) / g
            assert abs(rl_loss(batch, CFG).loss - vanilla) <= 1e-12

    def test_all_masked_gives_zero(self):
        rng = Rng(5)
        lens = [3, 3]
        rollout = [neg_logps(rng, l, scale=0.1) - 4.0 for l in lens]
        train = [a + 3.0 for a in rollout]  # rho = e^3 > beta everywhere
        batch = RolloutBatch(
            logp_train=train,
            logp_rollout=rollout,
            logp_new=[neg_logps(rng, l) for l in lens],
            logp_old=[neg_logps(rng, l) for l in lens],
            rewards=np.array([1.0, 0.0]),
        )
        res = rl_loss(batch, CFG)
        assert res.loss == 0.0
        assert all(np.all(c == 0.0) for c in res.per_token_coef)

    def test_matches_independent_reevaluation(self):
        rng = Rng(6)
        lens = [3, 3]
        batch = RolloutBatch(
            logp_train=[neg_logps(rng, l) for l in lens],
            logp_rollout=[neg_logps(rng, l) for l in lens],
            logp_new=[neg_logps(rng, l) for l in lens],
            logp_old=[neg_logps(rng, l) for l in lens],
            rewards=np.array([1.0, 0.0]),
        )
        assert abs(rl_loss(batch, CFG).loss - oracle_loss(batch, CFG)) <= 1e-12

    def test_matches_oracle_on_random_batches(self):
        rng = Rng(7)
        for _ in range(25):
            batch = random_batch(rng)
            got = rl_loss(batch, CFG).loss
            want = oracle_loss(batch, CFG)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_reward_shift_leaves_loss_unchanged(self):
        rng = Rng(8)
        lens = [2, 3, 4, 2, 3]
        mk = lambda: [neg_logps(rng, l) for l in lens]
        kwargs = dict(logp_train=mk(), logp_rollout=mk(), logp_new=mk(), logp_old=mk())
        rewards = np.array([3.0, 0.0, 2.0, 5.0, 1.0])  # G-1 = 4: dyadic baseline
        base = rl_loss(RolloutBatch(rewards=rewards, **kwargs), CFG).loss
        shifted = rl_loss(RolloutBatch(rewards=rewards + 7.0, **kwargs), CFG).loss
        assert shifted == base

    def test_nonfinite_ratio_names_location(self):
        batch = RolloutBatch(
            logp_train=[np.array([-1.0, -2000.0]), np.array([-1.0])],
            logp_rollout=[np.array([-1.0, -3000.0]), np.array([-1.0])],
            logp_new=[np.array([-0.5, -0.5]), np.array([-0.5])],
            logp_old=[np.array([-0.5, -0.5]), np.array([-0.5])],
            rewards=np.array([1.0, 0.0]),
        )
        # exp(1000) overflows to inf at response 0, token 1
        with pytest.raises(ValueError, match=r"response 0, token 1"):
            rl_loss(batch, CFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_reward_names_response(self, bad):
        with pytest.raises(ValueError, match=r"reward of response 1 is not finite"):
            RolloutBatch(
                logp_train=[np.array([-1.0])] * 3,
                logp_rollout=[np.array([-1.0])] * 3,
                logp_new=[np.array([-1.0])] * 3,
                logp_old=[np.array([-1.0])] * 3,
                rewards=np.array([1.0, bad, bad]),
            )

    def test_group_of_one_rejected(self):
        with pytest.raises(ValueError):
            RolloutBatch(
                logp_train=[np.array([-1.0])],
                logp_rollout=[np.array([-1.0])],
                logp_new=[np.array([-1.0])],
                logp_old=[np.array([-1.0])],
                rewards=np.array([1.0]),
            )

    def test_positive_logp_rejected(self):
        with pytest.raises(ValueError, match="positive log-prob"):
            RolloutBatch(
                logp_train=[np.array([0.5]), np.array([-1.0])],
                logp_rollout=[np.array([-1.0]), np.array([-1.0])],
                logp_new=[np.array([-1.0]), np.array([-1.0])],
                logp_old=[np.array([-1.0]), np.array([-1.0])],
                rewards=np.array([1.0, 0.0]),
            )


def make_policy_instance(rng, group=2, max_len=4, vocab=5):
    lens = [1 + int(rng.uniform(1)[0] * max_len) for _ in range(group)]
    policy = ToyPolicy(
        logits=[rng.normal(l * vocab).reshape(l, vocab) for l in lens],
        tokens=[(rng.uniform(l) * vocab).astype(np.int64) for l in lens],
    )
    rollout = [neg_logps(rng, l) for l in lens]
    train = [np.minimum(r + rng.normal(r.size) * 0.4, 0.0) for r in rollout]
    old = [neg_logps(rng, l) for l in lens]
    rewards = rng.normal(group)
    batch = batch_from_policy(policy, train, rollout, old, rewards)
    return policy, batch


def flatten_logits(policy):
    return np.concatenate([l.ravel() for l in policy.logits])


def frozen_loss_fn(policy, batch, cfg):
    coefs = [c.copy() for c in rl_loss(batch, cfg).per_token_coef]
    shapes = [l.shape for l in policy.logits]
    g = batch.group_size

    def f(vec):
        total = 0.0
        off = 0
        for i, (rows, v) in enumerate(shapes):
            logits = vec[off : off + rows * v].reshape(rows, v)
            off += rows * v
            m = logits.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
            lp = logits[np.arange(rows), policy.tokens[i]] - lse
            total += float((coefs[i] * lp).sum()) / rows
        return -total / g

    return f


class TestRlLossGrad:
    def test_zero_coefficients_zero_gradient(self):
        rng = Rng(9)
        policy, batch = make_policy_instance(rng)
        # push every train/rollout ratio above beta
        batch = RolloutBatch(
            logp_train=[np.minimum(a + 3.0, 0.0) - 0.0 for a in batch.logp_rollout],
            logp_rollout=[a - 3.0 for a in batch.logp_rollout],
            logp_new=batch.logp_new,
            logp_old=batch.logp_old,
            rewards=batch.rewards,
        )
        grads = rl_loss_grad(policy, batch, CFG)
        assert all(np.all(g == 0.0) for g in grads)

    def test_matches_finite_differences(self):
        rng = Rng(10)
        worst = 0.0
        for _ in range(100):
            policy, batch = make_policy_instance(rng)
            analytic = np.concatenate([g.ravel() for g in rl_loss_grad(policy, batch, CFG)])
            fd = finite_diff_grad(frozen_loss_fn(policy, batch, CFG), flatten_logits(policy), h=1e-6)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30)
            worst = max(worst, rel)
        assert worst <= 1e-6

    def test_unit_ratio_single_token_gradient(self):
        rng = Rng(11)
        vocab = 4
        policy = ToyPolicy(
            logits=[rng.normal(vocab).reshape(1, vocab), rng.normal(vocab).reshape(1, vocab)],
            tokens=[np.array([2]), np.array([1])],
        )
        lp = policy.log_probs()
        batch = batch_from_policy(policy, lp, lp, lp, np.array([1.0, 0.0]))
        grads = rl_loss_grad(policy, batch, CFG)
        adv = loo_advantage(batch.rewards)
        for i in range(2):
            logits = policy.logits[i][0]
            p = np.exp(logits - logits.max())
            p /= p.sum()
            direction = -p
            direction[policy.tokens[i][0]] += 1.0
            want = -(adv[i] / 2.0) * direction
            assert np.allclose(grads[i][0], want, atol=1e-12)

    def test_masked_tokens_are_gradient_free(self):
        rng = Rng(12)
        lens = [3, 3]
        vocab = 5
        policy = ToyPolicy(
            logits=[rng.normal(l * vocab).reshape(l, vocab) for l in lens],
            tokens=[(rng.uniform(l) * vocab).astype(np.int64) for l in lens],
        )
        rollout = [neg_logps(rng, l) - 3.0 for l in lens]
        train = [r.copy() for r in rollout]
        train[0][1] = rollout[0][1] + math.log(10.0)  # rho = 10 > beta: masked
        old = [neg_logps(rng, l) for l in lens]
        rewards = np.array([1.0, 0.0])
        batch = batch_from_policy(policy, train, rollout, old, rewards)

        grads = rl_loss_grad(policy, batch, CFG)
        assert np.all(grads[0][1] == 0.0)

        base = rl_loss(batch, CFG).loss
        perturbed_logits = [l.copy() for l in policy.logits]
        perturbed_logits[0][1] += rng.normal(vocab) * 5.0
        policy2 = ToyPolicy(logits=perturbed_logits, tokens=policy.tokens)
        batch2 = batch_from_policy(policy2, train, rollout, old, rewards)
        assert rl_loss(batch2, CFG).loss == base

    def test_foreign_batch_rejected(self):
        rng = Rng(13)
        policy, batch = make_policy_instance(rng)
        other = RolloutBatch(
            logp_train=batch.logp_train,
            logp_rollout=batch.logp_rollout,
            logp_new=[a - 0.5 for a in batch.logp_new],
            logp_old=batch.logp_old,
            rewards=batch.rewards,
        )
        with pytest.raises(ValueError, match="do not come from this policy"):
            rl_loss_grad(policy, other, CFG)


class TestEngineKl:
    def test_identical_engines(self):
        lp = -np.abs(Rng(14).normal(50))
        res = engine_kl(lp, lp.copy())
        assert res.k1_estimate == 0.0
        assert np.all(res.per_token == 0.0)

    def test_constant_shift_recovered(self):
        rng = Rng(15)
        lr = neg_logps(rng, 64) - 1.0
        res = engine_kl(lr + 0.25, lr)
        assert np.allclose(res.per_token, 0.25, atol=1e-15)
        assert abs(res.k1_estimate + 0.25) <= 1e-12

    def test_monte_carlo_matches_closed_form_kl(self):
        q = np.array([0.4, 0.3, 0.2, 0.1])  # rollout engine
        p = np.array([0.25, 0.25, 0.25, 0.25])  # train engine
        true_kl = float((q * np.log(q / p)).sum())
        rng = Rng(16)
        n = 100_000
        tokens = np.searchsorted(np.cumsum(q), rng.uniform(n), side="right")
        lt = np.log(p[tokens])
        lr = np.log(q[tokens])
        res = engine_kl(lt, lr)
        per_sample = lr - lt
        se = per_sample.std(ddof=1) / math.sqrt(n)
        assert abs(res.k1_estimate - true_kl) <= 3 * se

    def test_from_gaps_takes_the_negated_mean(self):
        res = EngineKl.from_gaps([-0.5, -0.25, 0.0, 0.25])
        assert res.k1_estimate == 0.125
        assert np.array_equal(res.per_token, [-0.5, -0.25, 0.0, 0.25])
        assert EngineKl.from_gaps([]).k1_estimate == 0.0
        with pytest.raises(ValueError):
            EngineKl.from_gaps(np.zeros((2, 2)))

    def test_misaligned_streams_rejected(self):
        with pytest.raises(ValueError):
            engine_kl(np.zeros(3), np.zeros(4))


class TestSerialization:
    def test_round_trip_bitwise(self):
        batch = random_batch(Rng(17), group=3)
        buf = io.StringIO()
        dump_batch(batch, buf)
        buf.seek(0)
        again = load_batch(buf)
        assert np.array_equal(batch.rewards, again.rewards)
        for a, b in zip(batch.logp_train, again.logp_train):
            assert np.array_equal(a, b)
        for a, b in zip(batch.logp_old, again.logp_old):
            assert np.array_equal(a, b)
        assert rl_loss(batch, CFG).loss == rl_loss(again, CFG).loss

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_reward_rejected(self, bad):
        text = f"1.0 1 -0.5 -0.5 -0.5 -0.5\n{bad} 1 -0.5 -0.5 -0.5 -0.5\n"
        with pytest.raises(ValueError, match=r"reward of response 1 is not finite"):
            load_batch(io.StringIO(text))

    def test_field_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_batch(io.StringIO("1.0 3 -0.5 -0.5\n"))
