"""Sparse expert routing: top-k and grouped selection, gate normalization,
the expert-mixture forward pass, and the straight-through router gradient.

A router matrix ``W`` (one row per expert) scores a token ``x`` as
``z = W @ x``; probabilities are ``softmax(z)``. Plain top-k
picks the k highest-probability experts globally; grouped selection splits
the experts into contiguous blocks and picks ``k / num_groups`` within each
block, which pins the per-block (hence per-device) assignment count.

The straight-through path keeps the ordinary renormalized gate values in
the forward direction while the backward rule differentiates the full
temperature-scaled softmax, so every expert's router row receives a
gradient on every token, selected or not. Only that rule takes a temperature.

Ties in any selection are broken toward the lower expert index and
selections are returned in ascending index order. Both choices are
load-bearing: replay verification compares selections index-for-index.
Selection sorts nothing: each block's k-th largest probability is a
threshold, entries above it are taken, and the remaining slots are filled
with entries equal to it, lowest index first. Non-finite probabilities
are rejected, since they have no place in that order.

The routing core is batch-first: :func:`router_probs_batch`, one block
top-k kernel behind :func:`topk_select_batch` and
:func:`grouped_select_batch` (plain top-k is a single block), and
:func:`select`, the one routing-mode dispatch. :func:`router_probs`,
:func:`topk_select`, :func:`grouped_select` and :func:`route_token` are
1-row views of them. That direction keeps outputs bit-for-bit: a 1-row
``x[None] @ W.T`` rounds exactly like ``W @ x``, but a T-row matrix
product rounds differently from T matrix-vector products, so batch code
must not become a loop of per-token calls, nor per-token callers one
batch call.

A per-token decision is a :class:`RoutingDecision`, which derives its
gates; its two producers, :func:`route_token` and ``replay.replay_select``,
check what enters it.
:func:`moe_forward` and ``precision.mixed_forward`` share one
expert-mixture loop, which sums the experts in selection order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from moelab.core import Rng, as_matrix, as_vector, finite_diff_grad, softmax

__all__ = [
    "RoutingMode",
    "MoeLayerSpec",
    "ExpertBank",
    "RoutingDecision",
    "router_probs",
    "topk_select",
    "grouped_select",
    "gate_weights",
    "route_token",
    "moe_forward",
    "ste_gate_value",
    "ste_backward",
    "router_probs_batch",
    "topk_select_batch",
    "grouped_select_batch",
    "select",
    "gradcheck_ste",
]

RoutingMode = Literal["plain_topk", "grouped"]


@dataclass(frozen=True)
class MoeLayerSpec:
    """Static shape/selection parameters of one expert-mixture layer."""

    num_experts: int
    active_k: int
    num_groups: int
    model_dim: int
    hidden_dim: int

    def __post_init__(self):
        n, k, g = self.num_experts, self.active_k, self.num_groups
        if n < 1:
            raise ValueError(f"num_experts must be positive, got {n}")
        if not 1 <= k <= n:
            raise ValueError(f"active_k must satisfy 1 <= k <= {n}, got {k}")
        if g < 1 or n % g != 0:
            raise ValueError(f"num_groups must divide num_experts ({n}), got {g}")
        if k % g != 0:
            raise ValueError(f"num_groups must divide active_k ({k}), got {g}")
        if self.model_dim < 1 or self.hidden_dim < 1:
            raise ValueError("model_dim and hidden_dim must be positive")

    @property
    def group_size(self) -> int:
        return self.num_experts // self.num_groups

    @property
    def k_per_group(self) -> int:
        return self.active_k // self.num_groups


@dataclass
class ExpertBank:
    """Per-expert two-layer FFN parameters.

    Expert ``i`` computes ``w_out[i] @ relu(w_in[i] @ x)`` with shapes
    ``w_in: (N, hidden, d)`` and ``w_out: (N, d, hidden)``.
    """

    w_in: np.ndarray
    w_out: np.ndarray

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=np.float64)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        if self.w_in.ndim != 3 or self.w_out.ndim != 3:
            raise ValueError("expert weights must be stacked 3-D arrays")
        n, hidden, d = self.w_in.shape
        if self.w_out.shape != (n, d, hidden):
            raise ValueError(
                f"w_out shape {self.w_out.shape} inconsistent with w_in {self.w_in.shape}"
            )

    @property
    def num_experts(self) -> int:
        return self.w_in.shape[0]

    @property
    def model_dim(self) -> int:
        return self.w_in.shape[2]

    @property
    def param_count(self) -> int:
        return self.w_in.size + self.w_out.size

    @classmethod
    def random(cls, rng, spec: MoeLayerSpec) -> "ExpertBank":
        """Gaussian bank with 1/sqrt(fan-in) scaling, drawn w_in then w_out."""
        n, d, h = spec.num_experts, spec.model_dim, spec.hidden_dim
        w_in = rng.normal(n * h * d).reshape(n, h, d)
        w_in /= np.sqrt(d)
        w_out = rng.normal(n * d * h).reshape(n, d, h)
        w_out /= np.sqrt(h)
        return cls(w_in, w_out)


@dataclass
class RoutingDecision:
    """One token's routing outcome: probabilities ``p``, ascending selection
    ``s``, and the gates ``p[s] / p[s].sum()`` derived from them.

    Construction only coerces ``probs`` and ``selected`` and derives the
    gates, which raises on zero probability mass on the selection. The
    producers check the rest: :func:`route_token` selects from a softmax of
    finite logits, and ``replay.replay_select`` checks the caller's
    probabilities and the trace entry's range.
    """

    probs: np.ndarray
    selected: np.ndarray
    gates: np.ndarray = field(init=False)

    def __post_init__(self):
        self.probs = as_vector(self.probs, "probs")
        self.selected = np.asarray(self.selected, dtype=np.int64)
        self.gates = _renormalize(self.probs, self.selected)


def router_probs_batch(tokens, w_router) -> np.ndarray:
    """Routing probabilities ``softmax(tokens @ W.T)`` per row.

    Each row sums to 1 within 1e-12. Raises on a non-finite logit, naming
    the offending expert and token.
    """
    t = as_matrix(tokens, "tokens")
    w = as_matrix(w_router, "w_router")
    if w.shape[1] != t.shape[1]:
        raise ValueError(f"router shape {w.shape} incompatible with token dim {t.shape[1]}")
    z = t @ w.T
    if not np.isfinite(z).all():
        tok, exp = np.argwhere(~np.isfinite(z))[0]
        raise ValueError(f"non-finite router logit for expert {exp} (token {tok})")
    return softmax(z)


def router_probs(x, w_router) -> np.ndarray:
    """1-row view of :func:`router_probs_batch` for one token ``x``."""
    return router_probs_batch(as_vector(x, "x")[None], w_router)[0]


def _block_topk(probs: np.ndarray, num_groups: int, take: int) -> np.ndarray:
    """The selection kernel: top-``take`` of each contiguous block of each row.

    Returns (T, num_groups * take) indices, ascending per row, for finite
    ``probs``. Nothing is sorted. ``np.partition`` gives each block's
    ``take``-th largest value as its threshold; every entry strictly above
    the threshold is kept, and the slots left go to entries equal to it,
    lowest index first (``eq & (cumsum(eq) <= need)``), which is the
    lower-index tie-break. Blocks without surplus ties keep exactly the
    entries ``>=`` the threshold, so the tie fill runs only on blocks with
    more tied entries than slots. ``np.nonzero`` on the row-major mask
    returns each row's indices already ascending.
    """
    t, n = probs.shape
    size = n // num_groups
    blocks = probs.reshape(t * num_groups, size)
    kth = np.partition(blocks, size - take, axis=1)[:, size - take, None]
    keep = blocks >= kth
    if np.count_nonzero(keep) > t * num_groups * take:
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > take)
        sub, th = blocks[over], kth[over]
        gt, eq = sub > th, sub == th
        need = take - np.count_nonzero(gt, axis=1)[:, None]
        keep[over] = gt | (eq & (np.cumsum(eq, axis=1) <= need))
    return np.nonzero(keep.reshape(t, n))[1].reshape(t, num_groups * take)


def _finite_probs(probs) -> np.ndarray:
    """``probs`` as a float64 matrix; a non-finite entry raises ValueError
    naming its row and column."""
    pm = as_matrix(probs, "probs")
    if not np.isfinite(pm).all():
        row, col = np.argwhere(~np.isfinite(pm))[0]
        raise ValueError(f"non-finite probability {pm[row, col]} at row {row}, column {col}")
    return pm


def _nonnegative_probs(p: np.ndarray) -> None:
    """Raise ValueError naming the first negative entry of the vector ``p``;
    ``-0.0`` is not negative."""
    neg = p < 0.0
    if neg.any():
        i = int(np.argmax(neg))
        raise ValueError(f"negative probability {p[i]} at index {i}")


def topk_select_batch(probs, k: int) -> np.ndarray:
    """Per row, the k largest entries (lower index winning ties) as (T, k)
    ascending indices: block top-k with a single block. Raises ValueError
    on a non-finite probability."""
    pm = _finite_probs(probs)
    if not 1 <= k <= pm.shape[1]:
        raise ValueError(f"k must satisfy 1 <= k <= {pm.shape[1]}, got {k}")
    return _block_topk(pm, 1, k)


def grouped_select_batch(probs, spec: MoeLayerSpec) -> np.ndarray:
    """Per row, the union of per-group top-(k/G) selections; (T, k) ascending.

    Group g owns indices [g*N/G, (g+1)*N/G); exactly k/G experts are taken
    from each block, so every row has exactly ``spec.active_k`` entries
    with a fixed per-block count. Raises ValueError on a non-finite
    probability.
    """
    pm = _finite_probs(probs)
    if pm.shape[1] != spec.num_experts:
        raise ValueError(
            f"probability width {pm.shape[1]} != num_experts {spec.num_experts}"
        )
    return _block_topk(pm, spec.num_groups, spec.k_per_group)


def topk_select(p, k: int) -> np.ndarray:
    """1-row view of :func:`topk_select_batch` for one probability vector."""
    return topk_select_batch(as_vector(p, "p")[None], k)[0]


def grouped_select(p, spec: MoeLayerSpec) -> np.ndarray:
    """1-row view of :func:`grouped_select_batch` for one probability vector."""
    return grouped_select_batch(as_vector(p, "p")[None], spec)[0]


def select(probs, spec: MoeLayerSpec, mode: RoutingMode) -> np.ndarray:
    """(T, k) ascending expert indices per row of ``probs`` under ``mode``.

    The one place a routing mode is interpreted.
    """
    if mode == "grouped":
        return grouped_select_batch(probs, spec)
    if mode == "plain_topk":
        return topk_select_batch(probs, spec.active_k)
    raise ValueError(f"unknown routing mode {mode!r}")


def _renormalize(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The gate rule ``p[s] / p[s].sum()`` for finite ``p`` and in-range ``s``."""
    ps = p[s]
    mass = ps.sum()
    if not mass > 0.0:
        raise ValueError("zero probability mass on the selected set")
    return ps / mass


def gate_weights(p, selected) -> np.ndarray:
    """Probabilities restricted to the selected set, renormalized to sum 1.

    Raises ValueError on a non-finite or negative probability anywhere in
    ``p``.
    """
    pv = _finite_probs(as_vector(p, "p")[None])[0]
    _nonnegative_probs(pv)
    s = np.asarray(selected, dtype=np.int64)
    if s.size < 1:
        raise ValueError("selected set must be nonempty")
    if s.min() < 0 or s.max() >= pv.size:
        raise ValueError(f"selected indices out of range [0, {pv.size})")
    return _renormalize(pv, s)


def route_token(
    x, w_router, spec: MoeLayerSpec, mode: RoutingMode = "plain_topk"
) -> RoutingDecision:
    """Live routing of one token: probs, selection under ``mode``, and the
    decision, which derives the gates."""
    p = router_probs(x, w_router)
    return RoutingDecision(p, select(p[None], spec, mode)[0])


def _expert_mix(x: np.ndarray, gates: np.ndarray, w_ins, w_outs) -> np.ndarray:
    """``sum_j gates[j] * (w_outs[j] @ relu(w_ins[j] @ x))`` for a float64
    vector ``x``, summed in gate order: the one expert-mixture loop, shared
    by :func:`moe_forward` and ``precision.mixed_forward``."""
    y = np.zeros(x.size)
    for gate, wi, wo in zip(gates.tolist(), w_ins, w_outs):
        y += gate * (wo @ np.maximum(wi @ x, 0.0))
    return y


def moe_forward(x, bank: ExpertBank, decision: RoutingDecision) -> np.ndarray:
    """Gate-weighted sum of the selected experts' outputs."""
    xv = as_vector(x, "x")
    if xv.size != bank.model_dim:
        raise ValueError(f"token dim {xv.size} != bank model dim {bank.model_dim}")
    if decision.probs.size != bank.num_experts:
        raise ValueError("decision covers a different number of experts than the bank")
    sel = decision.selected.tolist()
    w_ins = [bank.w_in[i] for i in sel]  # views: no gathered copy of the weights
    return _expert_mix(xv, decision.gates, w_ins, [bank.w_out[i] for i in sel])


def ste_gate_value(z, selected) -> np.ndarray:
    """Forward value of the straight-through gates.

    Identical to ``gate_weights(softmax(z), selected)`` by construction:
    the straight-through surrogate only changes the backward rule, and the
    renormalized path avoids the cancellation noise of evaluating the
    stop-gradient expression literally.
    """
    return gate_weights(softmax(as_vector(z, "z")), selected)


def ste_backward(upstream, z, selected, temperature: float = 1.0) -> np.ndarray:
    """Loss gradient w.r.t. router logits under the straight-through rule.

    With ``p = softmax(z / temperature)`` and upstream cotangents ``u_i``
    on the selected gates, the gradient flows through the unrenormalized
    scaled softmax:

        dL/dz_j = p_j * (u_j - sum_i u_i p_i) / temperature

    where ``u_j`` is zero for unselected experts. Every coordinate is
    generically nonzero, so unselected experts' router rows still learn.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    zv = as_vector(z, "z")
    s = np.asarray(selected, dtype=np.int64)
    up = as_vector(upstream, "upstream")
    if up.shape != s.shape:
        raise ValueError("upstream must align positionally with selected")
    if (s < 0).any() or (s >= zv.size).any():
        raise ValueError(f"selected indices out of range [0, {zv.size})")
    if np.unique(s).size != s.size:  # u[s] = up would keep only one repeat's upstream
        raise ValueError("selected indices must be distinct")
    p = softmax(zv / temperature)
    u = np.zeros_like(zv)
    u[s] = up
    return p * (u - u @ p) / temperature


def gradcheck_ste(n: int, k: int, trials: int, taus, seed: int) -> dict[str, object]:
    """:func:`ste_backward` against central differences over ``trials``
    seeded draws (trial i at temperature ``taus[i % len(taus)]``), as one
    CSV row. The loss closure keeps its own softmax as the oracle."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not (n >= 2 and 1 <= k <= n):  # one expert has a zero gradient by construction
        raise ValueError(f"need n >= 2 and 1 <= k <= n, got k={k}, n={n}")
    if not taus or not all(0.0 < t < np.inf for t in taus):
        raise ValueError(f"temperatures must be finite, positive and at least one, got {taus}")
    rng = Rng(seed)
    worst = 0.0
    unselected_hits = 0
    for trial in range(trials):
        tau = taus[trial % len(taus)]
        z = rng.normal(n)
        sel = topk_select(softmax(z), k)
        up = rng.normal(k)

        def loss(zv, tau=tau, sel=sel, up=up):
            q = np.exp(zv / tau - (zv / tau).max())
            q /= q.sum()
            return float((up * q[sel]).sum())

        with np.errstate(over="ignore", invalid="ignore"):  # finite_diff_grad names a non-finite probe
            fd = finite_diff_grad(loss, z, h=1e-6)
        if not fd.any():  # the relative error would read 0 whatever ste_backward returns
            raise ValueError(f"finite-difference gradient is zero at temperature {tau}")
        an = ste_backward(up, z, sel, tau)
        worst = max(worst, np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-30))
        others = np.setdiff1d(np.arange(n), sel)
        if others.size and np.any(np.abs(an[others]) > 0):
            unselected_hits += 1
    return {"trials": trials, "n": n, "k": k, "max_rel_err": float(worst),
            "unselected_nonzero": unselected_hits}
