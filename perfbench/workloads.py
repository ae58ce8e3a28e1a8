"""The three benchmark workloads.

Each workload builds a pool of seeded inputs at construction (set-up time)
and then serves operations ("ops"): op ``i`` uses input ``i % pool``. An op
is one unit of user work and is the only thing timed. ``check`` runs the
independent oracles from :mod:`oracles` on an op's outputs and returns the
names of the oracles that failed; ``fingerprint`` hashes the outputs for
the determinism digest. ``corruptions`` maps every oracle name to a
function that damages a good output so the harness can show that the
oracle is able to fail.

Library calls go through module attributes (``routing.router_probs``, not
a bare imported name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
from types import SimpleNamespace

import numpy as np

import oracles
from moelab import core, epsim, expansion, precision, replay, rlloss, routing


def sub_seed(seed: int, j: int, stream: int = 0) -> int:
    """Seed of input ``j`` (and an independent ``stream`` of it)."""
    return (seed * 1_000_003 + j) * 16 + stream


def _hash(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.digest()


def _replace(out: dict, **changes) -> dict:
    bad = dict(out)
    bad.update(changes)
    return bad


# --------------------------------------------------------------------------
# expand-balance


class ExpandBalance:
    """Grow a 64-expert layer to 256 experts, then dispatch through it."""

    name = "expand-balance"
    pool = 4
    source = routing.MoeLayerSpec(num_experts=64, active_k=2, num_groups=1, model_dim=32, hidden_dim=64)
    grown = routing.MoeLayerSpec(num_experts=256, active_k=8, num_groups=8, model_dim=32, hidden_dim=64)
    devices = 8
    calib_tokens = 256
    dispatch_tokens = 2048

    def __init__(self, seed: int):
        self.inputs = []
        for j in range(self.pool):
            rng = core.Rng(sub_seed(seed, j))
            bank = routing.ExpertBank.random(rng, self.source)
            router = rng.normal_matrix(self.source.num_experts, self.source.model_dim)
            self.inputs.append(
                SimpleNamespace(
                    router=router,
                    bank=bank,
                    blob=oracles.encode_moec(router, bank.w_in, bank.w_out),
                    calib=rng.normal_matrix(self.calib_tokens, self.source.model_dim),
                    tokens=rng.normal_matrix(self.dispatch_tokens, self.source.model_dim),
                    noise_seed=sub_seed(seed, j, 1),
                )
            )

    def op(self, i: int) -> dict:
        inp = self.inputs[i % self.pool]
        router, bank = expansion.load_layer(io.BytesIO(inp.blob))
        stats = expansion.activation_stats(inp.calib, router, k=2)
        plan = expansion.plan_expansion(stats, factor=4, num_groups=8, strategy="grouped_top")
        new_bank, new_router = expansion.expand_layer(
            bank, router, plan, noise=1e-3, rng=core.Rng(inp.noise_seed)
        )
        buf = io.BytesIO()
        expansion.save_layer(buf, new_router, new_bank)
        blob = buf.getvalue()
        router2, bank2 = expansion.load_layer(io.BytesIO(blob))
        grouped = epsim.dispatch(inp.tokens, router2, self.grown, self.devices, "grouped")
        plain = epsim.dispatch(inp.tokens, router2, self.grown, self.devices, "plain_topk")
        return {
            "loaded": (router, bank.w_in, bank.w_out),
            "rank1": stats.rank1,
            "rank2": stats.rank2,
            "mapping": plan.mapping,
            "new": (new_router, new_bank.w_in, new_bank.w_out),
            "blob": blob,
            "reloaded": (router2, bank2.w_in, bank2.w_out),
            "grouped_counts": grouped.counts,
            "grouped_metrics": epsim.balance_metrics(grouped),
            "plain_counts": plain.counts,
            "plain_metrics": epsim.balance_metrics(plain),
            "loss": epsim.balance_loss(inp.tokens, router2, self.grown),
        }

    def check(self, i: int, out: dict) -> list[str]:
        inp = self.inputs[i % self.pool]
        n, k, dev = self.grown.num_experts, self.grown.active_k, self.devices
        t = self.dispatch_tokens
        failed = []

        src = (inp.router, inp.bank.w_in, inp.bank.w_out)
        new = out["new"]
        if not (
            all(oracles.same_bits(a, b) for a, b in zip(out["loaded"], src))
            and out["blob"] == oracles.encode_moec(*new)
            and all(oracles.same_bits(a, b) for a, b in zip(out["reloaded"], new))
        ):
            failed.append("checkpoint_roundtrip")

        # Library probabilities feed the exact tie-sensitive tallies; the
        # oracle's own softmax feeds the tolerance checks.
        calib_probs = routing.router_probs_batch(inp.calib, inp.router)
        order = oracles.brute_topk_rows(calib_probs, 1)[:, 0]
        masked = calib_probs.copy()
        masked[np.arange(masked.shape[0]), order] = -np.inf
        second = np.argmax(masked, axis=1)
        m = self.source.num_experts
        rank1 = np.bincount(order, minlength=m)
        rank2 = np.bincount(second, minlength=m)
        if not (np.array_equal(out["rank1"], rank1) and np.array_equal(out["rank2"], rank2)):
            failed.append("activation_stats")

        ranking = np.lexsort((np.arange(m), -rank2, -rank1))
        groups = np.asarray(out["mapping"]).reshape(8, -1)
        if not (
            groups.size == 4 * m
            and all(set(ranking[:2]) <= set(g.tolist()) for g in groups)
            and np.all(np.diff(groups, axis=1) >= 0)
        ):
            failed.append("expansion_plan")

        # Each copied router row moves by noise * ||row|| * ||N(0, I_d)||,
        # about 1e-3 * sqrt(d) of its norm; allow four times that.
        mapping = np.asarray(out["mapping"])
        shift = np.linalg.norm(new[0] - inp.router[mapping], axis=1)
        limit = 1e-3 * np.linalg.norm(inp.router[mapping], axis=1) * 4.0 * np.sqrt(self.source.model_dim)
        if not (
            oracles.same_bits(new[1], inp.bank.w_in[mapping])
            and oracles.same_bits(new[2], inp.bank.w_out[mapping])
            and np.all(shift > 0.0)
            and np.all(shift <= limit)
        ):
            failed.append("expand_layer")

        router2 = out["reloaded"][0]
        probs = routing.router_probs_batch(inp.tokens, router2)
        per_device = n // dev
        plain_sel = oracles.brute_topk_rows(probs, k)
        plain_counts = np.bincount((plain_sel // per_device).ravel(), minlength=dev)
        if not np.array_equal(out["plain_counts"], plain_counts):
            failed.append("topk_tally")

        grouped_sel = oracles.brute_grouped_rows(probs, self.grown.num_groups, k)
        grouped_counts = np.bincount((grouped_sel // per_device).ravel(), minlength=dev)
        if not (
            np.array_equal(out["grouped_counts"], grouped_counts)
            and np.all(grouped_counts == t * k // dev)
            and out["grouped_metrics"]["max_over_mean"] == 1.0
        ):
            failed.append("grouped_balance")

        mean = t * k / dev
        pm = out["plain_metrics"]
        if not (
            pm["max_over_mean"] == plain_counts.max() / mean
            and oracles.close(pm["coefficient_of_variation"], plain_counts.std() / mean)
        ):
            failed.append("balance_metrics")

        ref_probs = oracles.softmax_rows(inp.tokens @ router2.T)
        f = np.bincount(plain_sel.ravel(), minlength=n) / (t * k)
        ref_loss = n * float(f @ ref_probs.mean(axis=0))
        if not (oracles.finite(out["loss"]) and oracles.close(out["loss"], ref_loss, rtol=1e-10)):
            failed.append("balance_loss")
        return failed

    def fingerprint(self, out: dict) -> bytes:
        gm, pm = out["grouped_metrics"], out["plain_metrics"]
        return _hash(
            out["rank1"], out["rank2"], out["mapping"], out["new"][0],
            hashlib.sha256(out["blob"]).digest(), out["grouped_counts"], out["plain_counts"],
            sorted(gm.items()), sorted(pm.items()), out["loss"],
        )

    @staticmethod
    def _bump_counts(c):
        c = np.array(c, copy=True)
        c[0] += 1
        c[1] -= 1
        return c

    corruptions = {
        "checkpoint_roundtrip": lambda out: _replace(
            out, blob=out["blob"][:-1] + bytes([out["blob"][-1] ^ 1])
        ),
        "activation_stats": lambda out: _replace(out, rank1=ExpandBalance._bump_counts(out["rank1"])),
        "expansion_plan": lambda out: _replace(
            out, mapping=np.concatenate([out["mapping"][:32][::-1], out["mapping"][32:]])
        ),
        "expand_layer": lambda out: _replace(
            out, new=(out["new"][0], out["new"][1] + 1e-9, out["new"][2])
        ),
        "topk_tally": lambda out: _replace(out, plain_counts=ExpandBalance._bump_counts(out["plain_counts"])),
        "grouped_balance": lambda out: _replace(
            out, grouped_metrics=dict(out["grouped_metrics"], max_over_mean=1.0 + 2.0**-52)
        ),
        "balance_metrics": lambda out: _replace(
            out,
            plain_metrics=dict(
                out["plain_metrics"],
                coefficient_of_variation=out["plain_metrics"]["coefficient_of_variation"] * 1.001,
            ),
        ),
        "balance_loss": lambda out: _replace(out, loss=float("nan")),
    }


# --------------------------------------------------------------------------
# precision-divergence


class PrecisionDivergence:
    """One paired engine-divergence trial per op, cycling the CLI's policies."""

    name = "precision-divergence"
    pool = 64
    policies = ("mixed_fp8", "all_bf16", "fp32head", "bf16head")

    def __init__(self, seed: int):
        self.trials = [
            (self.policies[j % len(self.policies)], sub_seed(seed, j)) for j in range(self.pool)
        ]

    def op(self, i: int) -> dict:
        name, trial_seed = self.trials[i % self.pool]
        r = precision.divergence_trial(precision.POLICIES[name], trial_seed)
        return {"kl_k1": r["kl_k1"], "max_abs_logit_diff": r["max_abs_logit_diff"]}

    def check(self, i: int, out: dict) -> list[str]:
        kl, diff = out["kl_k1"], out["max_abs_logit_diff"]
        if oracles.finite(kl, diff) and diff >= 0.0:
            return []
        return ["finite_kl"]

    def fingerprint(self, out: dict) -> bytes:
        return _hash(float(out["kl_k1"]).hex(), float(out["max_abs_logit_diff"]).hex())

    corruptions = {"finite_kl": lambda out: _replace(out, kl_k1=float("nan"))}


# --------------------------------------------------------------------------
# replay-rl-step


class ReplayRlStep:
    """Record, round-trip and replay a routing trace, then one RL loss step."""

    name = "replay-rl-step"
    pool = 2
    spec = routing.MoeLayerSpec(num_experts=256, active_k=8, num_groups=8, model_dim=64, hidden_dim=128)
    tokens = 128
    layers = 4
    perturb = 0.5
    prompts = 8
    responses = 16
    length = 64
    vocab = 32
    checked_ffn = 8

    def __init__(self, seed: int):
        spec = self.spec
        # One expert bank serves all layers and inputs: the four layers
        # differ in their routers, and the working set stays at ~34 MB.
        self.bank = routing.ExpertBank.random(core.Rng(sub_seed(seed, 0, 2)), spec)
        self.inputs = []
        for j in range(self.pool):
            rng = core.Rng(sub_seed(seed, j))
            routers = [rng.normal_matrix(spec.num_experts, spec.model_dim) for _ in range(self.layers)]
            batch = rng.normal_matrix(self.tokens, spec.model_dim)
            perturbed = []
            for w in routers:
                direction = rng.normal_matrix(*w.shape)
                direction /= np.linalg.norm(direction)
                scale = self.perturb * float(np.linalg.norm(w)) * float(rng.uniform(1)[0])
                perturbed.append(w + direction * scale)
            groups = [self._rollout_group(rng) for _ in range(self.prompts)]
            self.inputs.append(
                SimpleNamespace(routers=routers, batch=batch, perturbed=perturbed, groups=groups)
            )

    def _rollout_group(self, rng):
        def logp(logits, toks):
            z = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=1))
            return z[np.arange(toks.size), toks] - lse

        logits, toks, train, rollout, old = [], [], [], [], []
        for _ in range(self.responses):
            l = rng.normal_matrix(self.length, self.vocab)
            t = rng.integers(self.length, self.vocab)
            logits.append(l)
            toks.append(t)
            train.append(logp(l + 0.1 * rng.normal_matrix(self.length, self.vocab), t))
            rollout.append(logp(l + 0.1 * rng.normal_matrix(self.length, self.vocab), t))
            old.append(logp(l + 0.05 * rng.normal_matrix(self.length, self.vocab), t))
        rewards = (rng.uniform(self.responses) < 0.5).astype(np.float64)
        policy = rlloss.ToyPolicy(logits=logits, tokens=toks)
        batch = rlloss.batch_from_policy(policy, train, rollout, old, rewards)
        return SimpleNamespace(policy=policy, batch=batch)

    def op(self, i: int) -> dict:
        inp = self.inputs[i % self.pool]
        layers = [(w, self.spec) for w in inp.routers]
        recorded = replay.record_trace(inp.batch, layers, "grouped")
        blob = replay.serialize_trace(recorded)
        trace = replay.deserialize_trace(blob)
        decisions, ys = [], []
        for l, w in enumerate(inp.perturbed):
            for t in range(self.tokens):
                x = inp.batch[t]
                d = replay.replay_select(trace, t, l, routing.router_probs(x, w))
                decisions.append(d)
                ys.append(routing.moe_forward(x, self.bank, d))
        loaded, losses, grads = [], [], []
        for g in inp.groups:
            buf = io.StringIO()
            rlloss.dump_batch(g.batch, buf)
            buf.seek(0)
            b = rlloss.load_batch(buf)
            loaded.append(b)
            losses.append(rlloss.rl_loss(b).loss)
            grads.append(rlloss.rl_loss_grad(g.policy, b))
        return {
            "recorded": recorded.indices,
            "blob": blob,
            "trace": trace.indices,
            "decisions": decisions,
            "ys": ys,
            "loaded": loaded,
            "losses": losses,
            "grads": grads,
        }

    def check(self, i: int, out: dict) -> list[str]:
        inp = self.inputs[i % self.pool]
        spec, T, L = self.spec, self.tokens, self.layers
        failed = []
        recorded = np.asarray(out["recorded"], dtype=np.int64)

        ok = recorded.shape == (T, L, spec.active_k)
        for l, w in enumerate(inp.routers):
            probs = routing.router_probs_batch(inp.batch, w)
            ok = ok and np.array_equal(
                recorded[:, l, :], oracles.brute_grouped_rows(probs, spec.num_groups, spec.active_k)
            )
        if not ok:
            failed.append("grouped_topk")

        if not (
            out["blob"] == oracles.encode_rtrc(recorded)
            and np.array_equal(np.asarray(out["trace"], dtype=np.int64), recorded)
        ):
            failed.append("trace_roundtrip")

        sel = np.array([d.selected for d in out["decisions"]]).reshape(L, T, -1)
        if not np.array_equal(sel, recorded.transpose(1, 0, 2)):
            failed.append("replay_selection")

        gates_ok = True
        for n, d in enumerate(out["decisions"]):
            l, t = divmod(n, T)
            live = oracles.softmax_rows(inp.perturbed[l] @ inp.batch[t])
            gates_ok = (
                gates_ok
                and oracles.close(d.probs, live, rtol=1e-12, atol=1e-15)
                and oracles.close(d.gates, oracles.renormalized(d.probs, recorded[t, l]), rtol=1e-13, atol=1e-15)
            )
        if not gates_ok:
            failed.append("replay_gates")

        ffn_ok = len(out["ys"]) == L * T
        for n in range(self.checked_ffn):
            idx = (i * 7919 + n * 131) % (L * T)
            t = idx % T
            d = out["decisions"][idx]
            ref = oracles.expert_mix(inp.batch[t], self.bank.w_in, self.bank.w_out, recorded[t, idx // T], d.gates)
            ffn_ok = ffn_ok and oracles.close(out["ys"][idx], ref, rtol=1e-12, atol=1e-12)
        if not ffn_ok:
            failed.append("expert_ffn")

        rt_ok = len(out["loaded"]) == len(inp.groups)
        for g, b in zip(inp.groups, out["loaded"]):
            src = g.batch
            rt_ok = rt_ok and oracles.same_bits(b.rewards, src.rewards) and all(
                oracles.same_bits(x, y)
                for field in ("logp_train", "logp_rollout", "logp_new", "logp_old")
                for x, y in zip(getattr(b, field), getattr(src, field))
            )
        if not rt_ok:
            failed.append("rollout_roundtrip")

        loss_ok = True
        for g, loss, grad in zip(inp.groups, out["losses"], out["grads"]):
            b = g.batch
            ref_loss, coefs = oracles.rl_loss_ref(b.logp_train, b.logp_rollout, b.logp_new, b.logp_old, b.rewards)
            ref_grad = oracles.rl_grad_ref(g.policy.logits, g.policy.tokens, coefs)
            loss_ok = (
                loss_ok
                and oracles.finite(loss, *grad)
                and oracles.close(loss, ref_loss, rtol=1e-10)
                and all(oracles.close(a, r, rtol=1e-10) for a, r in zip(grad, ref_grad))
            )
        if not loss_ok:
            failed.append("finite_loss")
        return failed

    def fingerprint(self, out: dict) -> bytes:
        return _hash(
            out["recorded"], hashlib.sha256(out["blob"]).digest(),
            np.array([d.gates for d in out["decisions"]]), np.array(out["ys"]),
            [float(x).hex() for x in out["losses"]], *(a for g in out["grads"] for a in g),
        )

    @staticmethod
    def _decision(d, **changes):
        fields = {"selected": d.selected, "gates": d.gates, "probs": d.probs}
        fields.update(changes)
        return SimpleNamespace(**fields)

    @staticmethod
    def _corrupt_recorded(out):
        rec = np.array(out["recorded"], copy=True)
        rec[0, 0, 0] = (int(rec[0, 0, 0]) + 1) % ReplayRlStep.spec.group_size
        return _replace(out, recorded=rec)

    corruptions = {
        "grouped_topk": lambda out: ReplayRlStep._corrupt_recorded(out),
        "trace_roundtrip": lambda out: _replace(
            out, blob=out["blob"][:-1] + bytes([out["blob"][-1] ^ 1])
        ),
        "replay_selection": lambda out: _replace(
            out,
            decisions=[ReplayRlStep._decision(out["decisions"][0], selected=out["decisions"][0].selected[::-1])]
            + out["decisions"][1:],
        ),
        "replay_gates": lambda out: _replace(
            out,
            decisions=[ReplayRlStep._decision(out["decisions"][0], gates=out["decisions"][0].gates * (1 + 1e-9))]
            + out["decisions"][1:],
        ),
        "expert_ffn": lambda out: _replace(out, ys=[y + 1e-6 for y in out["ys"]]),
        "rollout_roundtrip": lambda out: _replace(
            out,
            loaded=[SimpleNamespace(**dict(vars(out["loaded"][0]), rewards=out["loaded"][0].rewards + 2.0**-40))]
            + out["loaded"][1:],
        ),
        "finite_loss": lambda out: _replace(out, losses=[float("inf")] + out["losses"][1:]),
    }


WORKLOADS = {w.name: w for w in (ExpandBalance, PrecisionDivergence, ReplayRlStep)}
