"""Masked dual-importance-sampling policy-gradient loss.

A rollout batch holds, for each of G responses to one prompt, per-token
log-probabilities under four policy snapshots: the training engine, the
rollout engine, and the new/old optimization snapshots, plus one scalar
reward per response. The loss is

    L = -(1/G) sum_i (1/|y_i|) sum_t  sg(M(rho_it) * r_it) * A_i * logp_new_it

with rho = exp(logp_train - logp_rollout) correcting the train/rollout
engine mismatch, r = exp(logp_new - logp_old) correcting mini-batch
off-policy drift, M the hard ratio mask (zero outside the open interval
(alpha, beta)), and A the leave-one-out advantage: each response's reward
minus the mean reward of its G-1 peers, broadcast to all its tokens. The
combined coefficient is wrapped in a stop-gradient, so only the logp term
is differentiated; :func:`rl_loss_grad` implements exactly that rule for a
toy per-token categorical policy and is checked against finite differences.

``engine_kl`` is the k1 diagnostic for train/rollout engine drift: over
tokens sampled by the rollout engine, the mean of logp_rollout - logp_train
estimates KL(rollout || train). Per-token gaps are reported as
logp_train - logp_rollout (positive where the training engine assigns the
higher likelihood).

A batch rejects a non-finite reward, and a positive or NaN log-prob in any
snapshot, naming the snapshot, response and token. ``-inf`` is rejected in
``logp_new`` only, where its token would enter the loss as ``0 * -inf``.
Elsewhere it is handled: in ``logp_train`` the ratio rho is 0 and the token
is masked; in ``logp_rollout`` or ``logp_old`` a ratio is infinite, which
:func:`rl_loss` rejects.

Batches serialize as line-delimited text records for CLI round-trips; see
:func:`dump_batch` for the field order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from moelab.core import Rng, as_vector, finite_diff_grad, log_softmax, softmax

__all__ = [
    "MaskConfig",
    "RolloutBatch",
    "RlLossResult",
    "ToyPolicy",
    "EngineKl",
    "loo_advantage",
    "mask_ratio",
    "rl_loss",
    "batch_from_policy",
    "rl_loss_grad",
    "engine_kl",
    "dump_batch",
    "load_batch",
    "evaluate_batch",
    "gradcheck_rl",
]


@dataclass(frozen=True)
class MaskConfig:
    """Open-interval bounds for the train/rollout ratio mask.

    Defaults are demo values, not tuned constants; override per experiment.
    """

    alpha: float = 0.5
    beta: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha < self.beta:
            raise ValueError(f"need 0 < alpha < beta, got ({self.alpha}, {self.beta})")


def _logp_list(arrays, name: str) -> list[np.ndarray]:
    """Validated log-prob vectors: nonempty, with no positive value and no NaN."""
    out = []
    for i, a in enumerate(arrays):
        v = as_vector(a, f"{name}[{i}]")
        if v.size < 1:
            raise ValueError(f"{name}[{i}] must contain at least one token")
        if not (v <= 0.0).all():  # one pass: fails on a positive value or a NaN
            positive = np.flatnonzero(v > 0.0)
            if positive.size:
                raise ValueError(
                    f"{name}[{i}] contains a positive log-probability at token {positive[0]}"
                )
            t = np.flatnonzero(np.isnan(v))[0]
            raise ValueError(f"{name}[{i}] has a NaN log-probability at token {t}")
        out.append(v)
    return out


@dataclass
class RolloutBatch:
    """Per-token log-probs under four policy snapshots plus sequence rewards."""

    logp_train: list[np.ndarray]
    logp_rollout: list[np.ndarray]
    logp_new: list[np.ndarray]
    logp_old: list[np.ndarray]
    rewards: np.ndarray

    def __post_init__(self):
        self.rewards = as_vector(self.rewards, "rewards")
        if not np.isfinite(self.rewards).all():
            i = np.flatnonzero(~np.isfinite(self.rewards))[0]
            raise ValueError(f"reward of response {i} is not finite ({self.rewards[i]})")
        g = self.rewards.size
        if g < 2:
            raise ValueError("a rollout group needs at least 2 responses")
        snapshots = {
            "logp_train": self.logp_train,
            "logp_rollout": self.logp_rollout,
            "logp_new": self.logp_new,
            "logp_old": self.logp_old,
        }
        for name, arrays in snapshots.items():
            if len(arrays) != g:
                raise ValueError(f"{name} must hold one array per response")
            setattr(self, name, _logp_list(arrays, name))
        # -inf in logp_new would enter the loss as 0 * -inf (see module doc).
        for i, v in enumerate(self.logp_new):
            if not (v > -np.inf).all():
                t = np.flatnonzero(v == -np.inf)[0]
                raise ValueError(f"logp_new[{i}] has a -inf log-probability at token {t}")
        for i in range(g):
            lens = {len(s[i]) for s in snapshots.values()}
            if len(lens) != 1:
                raise ValueError(f"snapshot token counts disagree for response {i}")

    @property
    def group_size(self) -> int:
        return self.rewards.size

    def response_length(self, i: int) -> int:
        return self.logp_new[i].size


def loo_advantage(rewards) -> np.ndarray:
    """Leave-one-out advantages: reward minus the mean of the other G-1.

    The same advantage applies to every token of a response. Advantages sum
    to zero algebraically, and bit-exactly whenever rewards and the peer
    count keep the arithmetic on dyadic values (e.g. binary rewards with
    G - 1 a power of two).
    """
    r = as_vector(rewards, "rewards")
    if r.size < 2:
        raise ValueError("leave-one-out baseline needs at least 2 responses")
    total = r.sum()
    baseline = (total - r) / (r.size - 1)
    return r - baseline


def mask_ratio(rho: float, cfg: MaskConfig) -> float:
    """Hard mask: pass the ratio inside the open interval, zero elsewhere.

    Boundary values map to zero (strict inequalities).
    """
    if rho < 0.0:
        raise ValueError(f"importance ratio must be >= 0, got {rho}")
    return float(_masked(np.float64(rho), cfg))


def _masked(rho: np.ndarray, cfg: MaskConfig) -> np.ndarray:
    """The mask rule, elementwise: the one place the bounds are applied."""
    return np.where((cfg.alpha < rho) & (rho < cfg.beta), rho, 0.0)


@dataclass
class RlLossResult:
    loss: float
    per_token_coef: list[np.ndarray] = field(repr=False)


def rl_loss(batch: RolloutBatch, cfg: MaskConfig = MaskConfig()) -> RlLossResult:
    """Evaluate the masked dual-ratio objective on one rollout group.

    Returns the scalar loss and the per-token coefficients
    ``c_it = M(rho_it) * r_it * A_i``; by the stop-gradient contract the
    coefficient is a constant with respect to the differentiated policy.
    """
    g = batch.group_size
    adv = loo_advantage(batch.rewards)
    coefs: list[np.ndarray] = []
    total = 0.0
    for i in range(g):
        with np.errstate(over="ignore"):  # overflow -> inf is caught just below
            rho = np.exp(batch.logp_train[i] - batch.logp_rollout[i])
            ratio = np.exp(batch.logp_new[i] - batch.logp_old[i])
        for name, arr in (("train/rollout", rho), ("new/old", ratio)):
            if not np.isfinite(arr).all():
                t = np.flatnonzero(~np.isfinite(arr))[0]
                raise ValueError(f"non-finite {name} importance ratio at response {i}, token {t}")
        c = _masked(rho, cfg) * ratio * adv[i]
        coefs.append(c)
        total += float((c * batch.logp_new[i]).sum()) / batch.response_length(i)
    return RlLossResult(loss=-total / g + 0.0, per_token_coef=coefs)


@dataclass
class ToyPolicy:
    """Per-token categorical policy over a small vocabulary.

    ``logits[i]`` has shape (len_i, V): an independent logit row per token
    position, so gradients localize per position. ``tokens[i]`` gives the
    realized token ids.
    """

    logits: list[np.ndarray]
    tokens: list[np.ndarray]

    def __post_init__(self):
        if len(self.logits) != len(self.tokens):
            raise ValueError("logits and tokens must align per response")
        self.logits = [np.asarray(l, dtype=np.float64) for l in self.logits]
        self.tokens = [np.asarray(t, dtype=np.int64) for t in self.tokens]
        for i, (l, t) in enumerate(zip(self.logits, self.tokens)):
            if l.ndim != 2 or t.ndim != 1 or l.shape[0] != t.size:
                raise ValueError(f"response {i}: logits must be (len, V) with aligned tokens")
            if np.any(t < 0) or np.any(t >= l.shape[1]):
                raise ValueError(f"response {i}: token id out of vocabulary")

    def log_probs(self) -> list[np.ndarray]:
        """log softmax(logits)[t, tokens[t]] per response."""
        return [log_softmax(l)[np.arange(t.size), t] for l, t in zip(self.logits, self.tokens)]


def batch_from_policy(
    policy: ToyPolicy, logp_train, logp_rollout, logp_old, rewards
) -> RolloutBatch:
    """Assemble a rollout batch whose new-snapshot log-probs come from the policy."""
    return RolloutBatch(
        logp_train=list(logp_train),
        logp_rollout=list(logp_rollout),
        logp_new=policy.log_probs(),
        logp_old=list(logp_old),
        rewards=rewards,
    )


def rl_loss_grad(
    policy: ToyPolicy, batch: RolloutBatch, cfg: MaskConfig = MaskConfig()
) -> list[np.ndarray]:
    """Analytic loss gradient w.r.t. the toy policy's logits.

    Treats the per-token coefficient as a constant (the stop-gradient
    rule), so per position t of response i:

        dL/dlogits_it = -(1/G) (1/len_i) c_it (onehot(y_it) - softmax(logits_it))

    The batch's new-snapshot log-probs must have been produced by this
    policy (see :func:`batch_from_policy`).
    """
    own = policy.log_probs()
    if len(own) != batch.group_size:
        raise ValueError("policy and batch disagree on group size")
    for i, lp in enumerate(own):
        if lp.size != batch.response_length(i) or np.abs(lp - batch.logp_new[i]).max() > 1e-12:
            raise ValueError("batch new-snapshot log-probs do not come from this policy")
    result = rl_loss(batch, cfg)
    g = batch.group_size
    grads = []
    for i, (logits, toks) in enumerate(zip(policy.logits, policy.tokens)):
        direction = -softmax(logits)
        direction[np.arange(toks.size), toks] += 1.0
        scale = -result.per_token_coef[i] / (g * toks.size)
        grads.append(scale[:, None] * direction)
    return grads


@dataclass
class EngineKl:
    """k1 drift diagnostic between the training and rollout engines."""

    k1_estimate: float
    per_token: np.ndarray

    @classmethod
    def from_gaps(cls, gap) -> EngineKl:
        """The diagnostic from per-token gaps ``logp_train - logp_rollout``
        over tokens sampled by the rollout engine."""
        gap = as_vector(gap, "gap")
        k1 = 0.0 if gap.size == 0 else float(-gap.mean())
        return cls(k1_estimate=k1, per_token=gap)


def engine_kl(logp_train, logp_rollout) -> EngineKl:
    """Sampled KL(rollout || train) and per-token log-prob gaps.

    Tokens are assumed sampled by the rollout engine, so the mean of
    ``logp_rollout - logp_train`` is the k1 Monte-Carlo KL estimate.
    ``per_token`` holds ``logp_train - logp_rollout``.
    """
    lt = as_vector(logp_train, "logp_train")
    lr = as_vector(logp_rollout, "logp_rollout")
    if lt.shape != lr.shape:
        raise ValueError("token streams must align")
    return EngineKl.from_gaps(lt - lr)


def dump_batch(batch: RolloutBatch, fp: IO[str]) -> None:
    """Write one response per line: reward, token count, then the four
    log-prob blocks in order train, rollout, new, old (space-separated,
    shortest round-trip float formatting)."""
    for i in range(batch.group_size):
        fields = [repr(float(batch.rewards[i])), str(batch.response_length(i))]
        for block in (batch.logp_train, batch.logp_rollout, batch.logp_new, batch.logp_old):
            fields.extend(map(repr, block[i].tolist()))
        fp.write(" ".join(fields) + "\n")


def load_batch(fp: IO[str]) -> RolloutBatch:
    rewards, blocks = [], ([], [], [], [])
    for lineno, line in enumerate(fp, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(f"rollout record line {lineno}: too few fields")
        reward, length = float(parts[0]), int(parts[1])
        if len(parts) != 2 + 4 * length:
            raise ValueError(
                f"rollout record line {lineno}: expected {2 + 4 * length} fields, got {len(parts)}"
            )
        rewards.append(reward)
        vals = np.fromiter(map(float, parts[2:]), np.float64, 4 * length)
        for b, chunk in zip(blocks, vals.reshape(4, length)):
            b.append(chunk)
    return RolloutBatch(
        logp_train=blocks[0],
        logp_rollout=blocks[1],
        logp_new=blocks[2],
        logp_old=blocks[3],
        rewards=np.array(rewards),
    )


def evaluate_batch(batch: RolloutBatch, cfg: MaskConfig) -> dict[str, object]:
    """The loss of one rollout group as a CSV row: loss, group size, tokens."""
    return {"loss": rl_loss(batch, cfg).loss, "group_size": batch.group_size,
            "tokens": sum(v.size for v in batch.logp_new)}


def gradcheck_rl(
    group: int, vocab: int, maxlen: int, trials: int, cfg: MaskConfig, seed: int
) -> dict[str, object]:
    """:func:`rl_loss_grad` against central differences over ``trials``
    seeded toy policies of ``group`` responses of 1 to ``maxlen`` tokens, as
    one CSV row. The loss closure freezes the coefficients (the
    stop-gradient rule) and keeps its own log-softmax as the oracle."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if maxlen < 1:
        raise ValueError(f"maxlen must be at least 1, got {maxlen}")
    if vocab < 2:  # one entry has a zero gradient by construction
        raise ValueError(f"vocab must be at least 2, got {vocab}")
    rng = Rng(seed)
    worst = 0.0
    for _ in range(trials):
        lens = [1 + int(rng.uniform(1)[0] * maxlen) for _ in range(group)]
        policy = ToyPolicy(
            logits=[rng.normal(l * vocab).reshape(l, vocab) for l in lens],
            tokens=[(rng.uniform(l) * vocab).astype(np.int64) for l in lens],
        )
        rollout = [-np.abs(rng.normal(l)) * 0.5 - 1e-3 for l in lens]
        train = [np.minimum(r + rng.normal(r.size) * 0.4, 0.0) for r in rollout]
        old = [-np.abs(rng.normal(l)) * 0.5 - 1e-3 for l in lens]
        batch = batch_from_policy(policy, train, rollout, old, rng.normal(group))
        analytic = np.concatenate([g.ravel() for g in rl_loss_grad(policy, batch, cfg)])

        coefs = [c.copy() for c in rl_loss(batch, cfg).per_token_coef]
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
            return -total / group

        fd = finite_diff_grad(frozen, flat0, h=1e-6)
        worst = max(worst, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
    return {"trials": trials, "group": group, "max_rel_err": float(worst)}
