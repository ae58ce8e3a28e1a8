"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one ``[criterion N] name: PASS/FAIL`` line (run pytest
with ``-s`` to see the lines on success) and enforces its runtime budget.
"""

import math
import time

import numpy as np

from moelab.core import Rng, finite_diff_grad
from moelab.epsim import balance_metrics, dispatch
from moelab.expansion import activation_stats, expand_layer, plan_expansion
from moelab.precision import (
    POLICIES,
    bf16_round,
    dequantize_fp8,
    divergence_trial,
    fp8_grid,
    quantize_fp8,
)
from moelab.replay import deserialize_trace, record_trace, replay_select, serialize_trace
from moelab.rlloss import (
    MaskConfig,
    RolloutBatch,
    ToyPolicy,
    batch_from_policy,
    loo_advantage,
    rl_loss,
    rl_loss_grad,
)
from moelab.routing import (
    ExpertBank,
    MoeLayerSpec,
    route_token,
    router_probs,
    ste_backward,
    ste_gate_value,
    topk_select,
)
from moelab.timeseries import plan_patches

CFG = MaskConfig(alpha=0.5, beta=2.0)


def report(num: int, name: str, problems: list[str], elapsed: float, budget: float):
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num} ({name}): " + "; ".join(problems)


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_criterion_1_absolute_balance():
    problems = []
    grouped_spec = MoeLayerSpec(num_experts=64, active_k=8, num_groups=8,
                                model_dim=16, hidden_dim=32)
    plain_spec = MoeLayerSpec(num_experts=64, active_k=8, num_groups=1,
                              model_dim=16, hidden_dim=32)
    start = time.perf_counter()
    plain_imbalanced = 0
    for seed in range(1000):
        rng = Rng(seed)
        w = rng.normal_matrix(64, 16)
        batch = rng.normal_matrix(256, 16)
        grouped = balance_metrics(dispatch(batch, w, grouped_spec, 8, "grouped"))
        if grouped["max_over_mean"] != 1.0:
            problems.append(f"seed {seed}: grouped max/mean {grouped['max_over_mean']}")
            break
        plain = balance_metrics(dispatch(batch, w, plain_spec, 8, "plain_topk"))
        if plain["max_over_mean"] > 1.0:
            plain_imbalanced += 1
    elapsed = time.perf_counter() - start
    if plain_imbalanced < 950:
        problems.append(f"plain top-k imbalanced in only {plain_imbalanced}/1000 trials")
    report(1, "absolute load balance", problems, elapsed, budget=5.0)


def test_criterion_2_ste_gradient():
    problems = []
    rng = Rng(202)
    taus = [0.5, 1.0, 2.0]
    start = time.perf_counter()
    worst_rel = 0.0
    worst_forward = 0.0
    unselected_hits = 0
    for trial in range(100):
        n = 3 + int(rng.uniform(1)[0] * 14)  # n <= 16
        tau = taus[trial % 3]
        z = rng.normal(n)
        k = min(n, 1 + int(rng.uniform(1)[0] * 4))
        sel = topk_select(softmax(z), k)
        up = rng.normal(k)

        q = softmax(z)
        worst_forward = max(
            worst_forward, float(np.max(np.abs(ste_gate_value(z, sel) - q[sel] / q[sel].sum())))
        )

        def loss(zv, tau=tau, sel=sel, up=up):
            q = softmax(zv / tau)
            return float((up * q[sel]).sum())

        fd = finite_diff_grad(loss, z, h=1e-6)
        an = ste_backward(up, z, sel, tau)
        worst_rel = max(worst_rel, np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-30))
        others = np.setdiff1d(np.arange(n), sel)
        if others.size == 0 or np.any(np.abs(an[others]) > 0):
            unselected_hits += 1
    elapsed = time.perf_counter() - start
    if worst_rel > 1e-6:
        problems.append(f"gradient relative error {worst_rel:.3e} > 1e-6")
    if worst_forward > 1e-12:
        problems.append(f"forward gate mismatch {worst_forward:.3e} > 1e-12")
    if unselected_hits < 99:
        problems.append(f"unselected-expert gradient in only {unselected_hits}/100")
    report(2, "straight-through router gradient", problems, elapsed, budget=2.0)


def _random_grad_instance(rng, group=3, vocab=5, max_len=4):
    lens = [1 + int(rng.uniform(1)[0] * max_len) for _ in range(group)]
    policy = ToyPolicy(
        logits=[rng.normal(l * vocab).reshape(l, vocab) for l in lens],
        tokens=[(rng.uniform(l) * vocab).astype(np.int64) for l in lens],
    )
    rollout = [-np.abs(rng.normal(l)) * 0.5 - 1e-3 for l in lens]
    train = [np.minimum(r + rng.normal(r.size) * 0.4, 0.0) for r in rollout]
    old = [-np.abs(rng.normal(l)) * 0.5 - 1e-3 for l in lens]
    return policy, batch_from_policy(policy, train, rollout, old, rng.normal(group))


def test_criterion_3_rl_loss():
    problems = []
    rng = Rng(303)
    start = time.perf_counter()

    # unit-ratio reduction to REINFORCE with leave-one-out baseline
    worst_reduction = 0.0
    for _ in range(25):
        lens = [2, 3, 4]
        lp = [-np.abs(rng.normal(l)) - 0.01 for l in lens]
        rewards = rng.normal(3)
        batch = RolloutBatch(
            logp_train=[a.copy() for a in lp],
            logp_rollout=[a.copy() for a in lp],
            logp_new=[a.copy() for a in lp],
            logp_old=[a.copy() for a in lp],
            rewards=rewards,
        )
        adv = loo_advantage(rewards)
        vanilla = -sum(adv[i] * lp[i].mean() for i in range(3)) / 3
        worst_reduction = max(worst_reduction, abs(rl_loss(batch, CFG).loss - vanilla))
    if worst_reduction > 1e-12:
        problems.append(f"unit-ratio reduction off by {worst_reduction:.3e}")

    # advantages sum to exactly zero: binary rewards, dyadic peer counts
    for _ in range(100):
        g = int([2, 3, 5, 9, 17][int(rng.uniform(1)[0] * 5)])
        rewards = (rng.uniform(g) < 0.5).astype(np.float64)
        total = float(loo_advantage(rewards).sum())
        if total != 0.0:
            problems.append(f"advantage sum {total!r} != 0 for group {g}")
            break

    # analytic gradient vs central differences, coefficient frozen
    worst_rel = 0.0
    for _ in range(100):
        policy, batch = _random_grad_instance(rng)
        analytic = np.concatenate([a.ravel() for a in rl_loss_grad(policy, batch, CFG)])
        coefs = [c.copy() for c in rl_loss(batch, CFG).per_token_coef]
        shapes = [l.shape for l in policy.logits]
        flat0 = np.concatenate([l.ravel() for l in policy.logits])

        def frozen(vec, coefs=coefs, shapes=shapes, policy=policy):
            total, off = 0.0, 0
            for i, (rows, v) in enumerate(shapes):
                logits = vec[off: off + rows * v].reshape(rows, v)
                off += rows * v
                m = logits.max(axis=1, keepdims=True)
                lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
                lp = logits[np.arange(rows), policy.tokens[i]] - lse
                total += float((coefs[i] * lp).sum()) / rows
            return -total / len(shapes)

        fd = finite_diff_grad(frozen, flat0, h=1e-6)
        worst_rel = max(worst_rel, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
    if worst_rel > 1e-6:
        problems.append(f"gradient relative error {worst_rel:.3e} > 1e-6")

    # masked tokens are gradient-free: perturbing their logits leaves the loss alone
    vocab = 5
    lens = [3, 3]
    policy = ToyPolicy(
        logits=[rng.normal(l * vocab).reshape(l, vocab) for l in lens],
        tokens=[(rng.uniform(l) * vocab).astype(np.int64) for l in lens],
    )
    rollout = [-np.abs(rng.normal(l)) - 3.0 for l in lens]
    train = [r.copy() for r in rollout]
    train[0][1] = rollout[0][1] + math.log(10.0)  # ratio 10 > beta: masked
    old = [-np.abs(rng.normal(l)) - 0.5 for l in lens]
    rewards = np.array([1.0, 0.0])
    batch = batch_from_policy(policy, train, rollout, old, rewards)
    grads = rl_loss_grad(policy, batch, CFG)
    if np.any(grads[0][1] != 0.0):
        problems.append("masked token has nonzero analytic gradient")
    base = rl_loss(batch, CFG).loss
    for _ in range(10):
        bumped = [l.copy() for l in policy.logits]
        bumped[0][1] += rng.normal(vocab) * 3.0
        batch2 = batch_from_policy(ToyPolicy(bumped, policy.tokens), train, rollout, old, rewards)
        if abs(rl_loss(batch2, CFG).loss - base) > 1e-12:
            problems.append("perturbing a masked token moved the loss")
            break

    elapsed = time.perf_counter() - start
    report(3, "masked dual-ratio policy loss", problems, elapsed, budget=2.0)


def test_criterion_4_quantization():
    problems = []
    start = time.perf_counter()

    grid = fp8_grid()
    codes = np.arange(127, dtype=np.uint8)
    for sign_bit in (0, 0x80):
        signed = (codes | sign_bit).astype(np.uint8)
        values = dequantize_fp8(signed, 1.0)
        back = quantize_fp8(values, scale=1.0)
        if not np.array_equal(back.codes, signed):
            problems.append(f"grid round-trip failed for sign bit {sign_bit:#x}")
    if not (np.isnan(dequantize_fp8(np.array([0x7F]), 1.0)[0])
            and np.isnan(dequantize_fp8(np.array([0xFF]), 1.0)[0])):
        problems.append("NaN slots did not dequantize to NaN")
    if grid[-1] != 448.0:
        problems.append(f"max normal is {grid[-1]}, expected 448")

    rng = Rng(404)
    v = (rng.uniform(20_000) - 0.5) * 200
    q = quantize_fp8(v)
    back = dequantize_fp8(q.codes, q.scale)
    scaled = np.abs(v) * q.scale
    normal = scaled >= 2.0**-6
    rel = np.abs(back[normal] - v[normal]) / np.abs(v[normal])
    if rel.max() > 2.0**-4 + 1e-12:
        problems.append(f"round-trip relative error {rel.max():.4f} > 2^-4")

    w = (rng.uniform(100_000) - 0.5) * 1e6
    once = bf16_round(w)
    if not np.array_equal(bf16_round(once), once):
        problems.append("bf16 rounding is not idempotent")

    elapsed = time.perf_counter() - start
    report(4, "fp8/bf16 quantization", problems, elapsed, budget=2.0)


def test_criterion_5_mixed_precision_ordering():
    problems = []
    start = time.perf_counter()
    fp32 = [divergence_trial(POLICIES["fp32head"], s)["kl_k1"] for s in range(200)]
    bf16 = [divergence_trial(POLICIES["bf16head"], s)["kl_k1"] for s in range(200)]
    elapsed = time.perf_counter() - start
    med32, med16 = float(np.median(fp32)), float(np.median(bf16))
    if not med32 <= med16:
        problems.append(f"median kl fp32 head {med32:.3e} > bf16 head {med16:.3e}")
    report(5, "fp32-head divergence ordering", problems, elapsed, budget=10.0)


def test_criterion_6_router_replay():
    problems = []
    rng = Rng(606)
    spec = MoeLayerSpec(num_experts=64, active_k=8, num_groups=8,
                        model_dim=16, hidden_dim=32)
    layers = [(rng.normal_matrix(64, 16), spec) for _ in range(2)]
    batch = rng.normal_matrix(10, 16)
    start = time.perf_counter()
    trace = record_trace(batch, layers, "grouped")

    blob = serialize_trace(trace)
    if not np.array_equal(deserialize_trace(blob).indices, trace.indices):
        problems.append("trace serialization is not bit-exact")

    for trial in range(100):
        layer = trial % len(layers)
        w = layers[layer][0]
        direction = rng.normal_matrix(64, 16)
        direction /= np.linalg.norm(direction)
        w_pert = w + direction * (10.0 * np.linalg.norm(w) * rng.uniform(1)[0])
        for t in range(10):
            decision = replay_select(trace, t, layer, router_probs(batch[t], w_pert))
            if not np.array_equal(decision.selected, trace.entry(t, layer)):
                problems.append(f"trial {trial}: replayed selection diverged")
                break
            # Gates follow the perturbed router: its own softmax, renormalized
            # over the recorded set.
            frozen = softmax(w_pert @ batch[t])[trace.indices[t, layer].astype(np.int64)]
            if not np.allclose(decision.gates, frozen / frozen.sum(), rtol=1e-13, atol=0.0):
                problems.append(f"trial {trial}: replayed gates do not follow the live router")
                break
        if problems:
            break
    elapsed = time.perf_counter() - start
    report(6, "routing replay under perturbation", problems, elapsed, budget=2.0)


def test_criterion_7_expansion():
    problems = []
    rng = Rng(707)
    start = time.perf_counter()
    spec = MoeLayerSpec(num_experts=8, active_k=2, num_groups=1, model_dim=8, hidden_dim=16)
    bank = ExpertBank.random(rng, spec)
    w = rng.normal_matrix(8, 8)
    stats = activation_stats(rng.normal_matrix(512, 8), w, k=2)
    plan = plan_expansion(stats, factor=4, num_groups=8, strategy="grouped_top")

    from moelab.expansion import frequency_ranking

    top = int(frequency_ranking(stats)[0])
    for g in range(8):
        if top not in plan.group(g):
            problems.append(f"group {g} lacks a copy of top expert {top}")

    nb, nw = expand_layer(bank, w, plan, noise=0.0)
    if nb.param_count != 4 * bank.param_count:
        problems.append("parameter count is not exactly 4x")
    for e_new, e_src in enumerate(plan.mapping):
        if not (np.array_equal(nb.w_in[e_new], bank.w_in[e_src])
                and np.array_equal(nb.w_out[e_new], bank.w_out[e_src])
                and np.array_equal(nw[e_new], w[e_src])):
            problems.append(f"expert {e_new} is not a bitwise copy of {e_src}")
            break
    elapsed = time.perf_counter() - start
    report(7, "grouped expert expansion", problems, elapsed, budget=1.0)


def test_criterion_8_subsampling():
    problems = []
    start = time.perf_counter()
    lengths = np.unique(np.logspace(0, 6, 600).astype(np.int64))
    for length in lengths:
        plan = plan_patches(int(length), rate=100.0, f_max=4096)
        if not 1 <= plan.n_frames <= 4096:
            problems.append(f"length {length}: {plan.n_frames} frames")
            break
        last_start = (plan.n_frames - 1) * plan.stride
        if not (plan.stride <= plan.patch_size
                and last_start < length <= last_start + plan.patch_size):
            problems.append(f"length {length}: tiling leaves a gap")
            break
    elapsed = time.perf_counter() - start
    report(8, "adaptive patch budget", problems, elapsed, budget=1.0)
