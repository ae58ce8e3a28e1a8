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

A group is stored in one token layout: ``RolloutBatch.logp`` is a
``(4, total_tokens)`` array (rows train, rollout, new, old) and response i
is the column range ``offsets[i]:offsets[i + 1]``, so validation, ratios,
mask and coefficients each run once over all tokens. ``ToyPolicy`` stacks
its logits the same way. Batches serialize as line-delimited text records
for CLI round-trips; see :func:`dump_batch` for the field order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from moelab.core import Rng, as_vector, finite_diff_grad, log_softmax

__all__ = [
    "MaskConfig", "RolloutBatch", "RlLossResult", "ToyPolicy", "EngineKl", "loo_advantage",
    "mask_ratio", "rl_loss", "batch_from_policy", "rl_loss_grad", "engine_kl", "dump_batch",
    "load_batch", "evaluate_batch", "gradcheck_rl",
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


_SNAPSHOTS = ("logp_train", "logp_rollout", "logp_new", "logp_old")


def _views(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Per-response views ``flat[offsets[i]:offsets[i + 1]]`` (first axis)."""
    return [flat[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def _locate(offsets: np.ndarray, j) -> tuple[int, int]:
    """The (response, token) position of flat token ``j``."""
    i = int(np.searchsorted(offsets, j, side="right")) - 1
    return i, int(j - offsets[i])


@dataclass
class RolloutBatch:
    """Per-token log-probs under four policy snapshots plus sequence rewards.

    The four lists are copied into the rows of ``logp``; each field becomes a
    list of views of its row, so an in-place edit through a field reaches it."""

    logp_train: list[np.ndarray]
    logp_rollout: list[np.ndarray]
    logp_new: list[np.ndarray]
    logp_old: list[np.ndarray]
    rewards: np.ndarray
    logp: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rewards = as_vector(self.rewards, "rewards")
        if not np.isfinite(self.rewards).all():
            i = np.flatnonzero(~np.isfinite(self.rewards))[0]
            raise ValueError(f"reward of response {i} is not finite ({self.rewards[i]})")
        g = self.rewards.size
        if g < 2:
            raise ValueError("a rollout group needs at least 2 responses")
        vectors = []
        for name in _SNAPSHOTS:
            arrays = getattr(self, name)
            if len(arrays) != g:
                raise ValueError(f"{name} must hold one array per response")
            vectors.append([as_vector(a, f"{name}[{i}]") for i, a in enumerate(arrays)])
        lens = np.array([[v.size for v in row] for row in vectors])
        if not lens.all():
            r, i = np.argwhere(lens == 0)[0]
            raise ValueError(f"{_SNAPSHOTS[r]}[{i}] must contain at least one token")
        differ = np.flatnonzero((lens != lens[0]).any(axis=0))
        if differ.size:
            raise ValueError(f"snapshot token counts disagree for response {differ[0]}")
        self.offsets = np.concatenate(([0], np.cumsum(lens[0])))
        self.logp = np.concatenate([v for row in vectors for v in row]).reshape(4, -1)
        if not (self.logp <= 0.0).all():  # one pass: fails on a positive value or a NaN
            r, j = np.argwhere(~(self.logp <= 0.0))[0]
            (i, t), name = _locate(self.offsets, j), _SNAPSHOTS[r]
            positive = np.flatnonzero(self.logp[r, self.offsets[i]:self.offsets[i + 1]] > 0.0)
            if positive.size:  # within a response, a positive value is named first
                raise ValueError(
                    f"{name}[{i}] contains a positive log-probability at token {positive[0]}"
                )
            raise ValueError(f"{name}[{i}] has a NaN log-probability at token {t}")
        # -inf in logp_new would enter the loss as 0 * -inf (see module doc).
        if not (self.logp[2] > -np.inf).all():
            i, t = _locate(self.offsets, np.flatnonzero(self.logp[2] == -np.inf)[0])
            raise ValueError(f"logp_new[{i}] has a -inf log-probability at token {t}")
        for name, row in zip(_SNAPSHOTS, self.logp):
            setattr(self, name, _views(row, self.offsets))

    @property
    def group_size(self) -> int:
        return self.rewards.size


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
    g, o = batch.group_size, batch.offsets
    train, rollout, new, old = batch.logp
    total = 0.0
    # the inf or nan of an overflow is rejected below, naming the response
    with np.errstate(over="ignore", invalid="ignore"):
        adv = loo_advantage(batch.rewards)
        rho = np.exp(train - rollout)
        ratio = np.exp(new - old)
        for name, arr in (("train/rollout", rho), ("new/old", ratio)):
            if not np.isfinite(arr).all():
                i, t = _locate(o, np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(f"non-finite {name} importance ratio at response {i}, token {t}")
        coef = _masked(rho, cfg) * ratio * np.repeat(adv, np.diff(o))
        terms = coef * new
        for i, term in enumerate(_views(terms, o)):  # per-response sums keep their rounding
            total += float(term.sum()) / term.size
            if not np.isfinite(total):  # also catches a non-finite advantage or coefficient
                raise ValueError(f"loss is not finite at response {i} (advantage {adv[i]})")
    return RlLossResult(loss=-total / g + 0.0, per_token_coef=_views(coef, o))


@dataclass
class ToyPolicy:
    """Per-token categorical policy over one vocabulary of size V.

    ``logits[i]`` has shape (len_i, V): an independent logit row per token
    position, so gradients localize per position. ``tokens[i]`` gives the
    realized token ids. All responses share V, so both fields become views
    of ``flat_logits`` (total_tokens, V) and ``flat_tokens`` at ``offsets``.
    """

    logits: list[np.ndarray]
    tokens: list[np.ndarray]
    flat_logits: np.ndarray = field(init=False, repr=False)
    flat_tokens: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.logits) != len(self.tokens):
            raise ValueError("logits and tokens must align per response")
        if not self.logits:
            raise ValueError("a policy needs at least one response")
        logits = [np.asarray(l, dtype=np.float64) for l in self.logits]
        tokens = [np.asarray(t, dtype=np.int64) for t in self.tokens]
        for i, (l, t) in enumerate(zip(logits, tokens)):
            if l.ndim != 2 or t.ndim != 1 or l.shape[0] != t.size:
                raise ValueError(f"response {i}: logits must be (len, V) with aligned tokens")
            if l.shape[1] != logits[0].shape[1]:
                raise ValueError(f"response {i}: vocabulary size {l.shape[1]} differs from "
                                 f"response 0's {logits[0].shape[1]}")
        self.offsets = np.concatenate(([0], np.cumsum([t.size for t in tokens])))
        self.flat_logits = np.concatenate(logits)
        self.flat_tokens = np.concatenate(tokens)
        outside = (self.flat_tokens < 0) | (self.flat_tokens >= self.flat_logits.shape[1])
        if outside.any():
            i, _ = _locate(self.offsets, np.flatnonzero(outside)[0])
            raise ValueError(f"response {i}: token id out of vocabulary")
        self.logits = _views(self.flat_logits, self.offsets)
        self.tokens = _views(self.flat_tokens, self.offsets)

    def log_probs(self) -> list[np.ndarray]:
        """log softmax(logits)[t, tokens[t]] per response: views of one array."""
        lp = log_softmax(self.flat_logits)[np.arange(self.flat_tokens.size), self.flat_tokens]
        return _views(lp, self.offsets)


def batch_from_policy(
    policy: ToyPolicy, logp_train, logp_rollout, logp_old, rewards
) -> RolloutBatch:
    """Assemble a rollout batch whose new-snapshot log-probs come from the policy."""
    return RolloutBatch(list(logp_train), list(logp_rollout), policy.log_probs(),
                        list(logp_old), rewards)


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
    if len(policy.tokens) != batch.group_size:
        raise ValueError("policy and batch disagree on group size")
    # One exp serves both the provenance check and the softmax: these are
    # core's log_softmax and softmax, operation for operation.
    z, rows, tokens = policy.flat_logits, np.arange(policy.flat_tokens.size), policy.flat_tokens
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    own, new = z[rows, tokens] - (m + np.log(s))[:, 0], batch.logp[2]
    if not np.array_equal(policy.offsets, batch.offsets) or np.abs(own - new).max() > 1e-12:
        raise ValueError("batch new-snapshot log-probs do not come from this policy")
    coef = np.concatenate(rl_loss(batch, cfg).per_token_coef)
    lengths = np.diff(policy.offsets)
    e /= s
    direction = np.negative(e, out=e)
    direction[rows, tokens] += 1.0
    scale = -coef / np.repeat(batch.group_size * lengths, lengths)
    return _views(scale[:, None] * direction, policy.offsets)


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
    o = batch.offsets.tolist()
    for i in range(batch.group_size):
        fields = [repr(float(batch.rewards[i])), str(o[i + 1] - o[i])]
        fields.extend(map(repr, batch.logp[:, o[i]:o[i + 1]].ravel().tolist()))
        fp.write(" ".join(fields) + "\n")


def load_batch(fp: IO[str]) -> RolloutBatch:
    rewards, blocks = [], ([], [], [], [])
    for lineno, line in enumerate(fp, start=1):
        parts = line.split()
        if not parts:
            continue
        where = f"rollout record line {lineno}"
        if len(parts) < 2:
            raise ValueError(f"{where}: too few fields")
        try:  # float() and int() name the field but not the line
            reward, length = float(parts[0]), int(parts[1])
            vals = np.fromiter(map(float, parts[2:]), np.float64, len(parts) - 2)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if length < 0:
            raise ValueError(f"{where}: negative token count {length}")
        if len(parts) != 2 + 4 * length:
            raise ValueError(f"{where}: expected {2 + 4 * length} fields, got {len(parts)}")
        rewards.append(reward)
        for b, chunk in zip(blocks, vals.reshape(4, length)):
            b.append(chunk)
    return RolloutBatch(*blocks, rewards=np.array(rewards))


def evaluate_batch(batch: RolloutBatch, cfg: MaskConfig) -> dict[str, object]:
    """The loss of one rollout group as a CSV row: loss, group size, tokens."""
    return {"loss": rl_loss(batch, cfg).loss, "group_size": batch.group_size,
            "tokens": int(batch.offsets[-1])}


def gradcheck_rl(
    group: int, vocab: int, maxlen: int, trials: int, cfg: MaskConfig, seed: int
) -> dict[str, object]:
    """:func:`rl_loss_grad` against central differences over ``trials``
    seeded toy policies of ``group`` responses of 1 to ``maxlen`` tokens, as
    one CSV row. The loss closure freezes the coefficients (the
    stop-gradient rule) and keeps its own log-softmax as the oracle."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if group < 2:  # first: a negative count would fail in the length draw, naming no flag
        raise ValueError(f"group must be at least 2, got {group}")
    if maxlen < 1:
        raise ValueError(f"maxlen must be at least 1, got {maxlen}")
    if vocab < 2:  # one entry has a zero gradient by construction
        raise ValueError(f"vocab must be at least 2, got {vocab}")
    rng = Rng(seed)
    worst = 0.0
    for _ in range(trials):
        lens = (1 + (rng.uniform(group) * maxlen).astype(np.int64)).tolist()
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
