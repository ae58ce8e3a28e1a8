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
with entries equal to it, lowest index first. A block that keeps one
expert takes its ``argmax``, the first maximal index, which is the same
tie-break without the threshold. Non-finite probabilities are rejected,
since they have no place in that order.

The routing core is batch-first: :func:`router_probs_batch`, one block
top-k kernel (plain top-k is a single block), and :func:`select`, the one
routing-mode dispatch and the one check of a probability width against a
spec; :func:`grouped_select_batch` is its grouped view and
:func:`topk_select_batch` the kernel for a bare k. :func:`router_probs`,
:func:`topk_select`, :func:`grouped_select` and :func:`route_token` are
1-row views of them. That direction keeps outputs bit-for-bit: a 1-row
``x[None] @ W.T`` rounds exactly like ``W @ x``, but a T-row matrix
product rounds differently from T matrix-vector products, so batch code
must not become a loop of per-token calls, nor per-token callers one
batch call.

A :class:`RoutingDecision` records one token or a batch and derives its
gates row by row; its producers check what enters it. :func:`moe_forward`
and ``precision.mixed_forward`` share one expert-mixture loop, which sums
the experts in selection order. It stays per token: a segment-GEMM 1-row
view was bitwise equal but took 309-347 us a call against 138-175 us for
the loop (N=256, k=8, d=64, h=128), so it waits for a multi-row caller.

:meth:`ExpertBank.random` draws every expert. :class:`ReservedBank` claims
the same counters in the same order and evaluates an expert's weights only
when it is indexed, so a forward that reads only its routed experts costs
k experts' draws, not N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from moelab.core import Rng, as_matrix, as_vector, finite_diff_grad, softmax

__all__ = [
    "RoutingMode",
    "MoeLayerSpec",
    "ExpertBank",
    "ReservedBank",
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
_MODES = get_args(RoutingMode)  # out of select, which runs once per routed token


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
        w_in, w_out = (_fan_in_scaled(rng.normal(n * a * b).reshape(n, a, b))
                       for n, a, b in _stack_shapes(spec))
        return cls(w_in, w_out)


def _stack_shapes(spec: MoeLayerSpec) -> tuple[tuple[int, int, int], ...]:
    """The shapes of ``w_in`` and ``w_out``, in the order a random bank draws them."""
    n, d, h = spec.num_experts, spec.model_dim, spec.hidden_dim
    return (n, h, d), (n, d, h)


def _fan_in_scaled(w: np.ndarray) -> np.ndarray:
    """``w`` divided in place by the square root of its last axis, each
    matrix's fan-in: the scale of a random bank's weights."""
    w /= np.sqrt(w.shape[-1])
    return w


class _ReservedStack:
    """One weight stack of ``ExpertBank.random``, reserved rather than drawn.

    Indexing by a 1-D array of experts returns their matrices stacked, bit
    for bit what the drawn bank holds there. Each expert's matrix is
    evaluated from the reserved draw the first time it is asked for and
    kept for later lookups; the other experts are never drawn.
    """

    def __init__(self, draw, shape: tuple[int, int, int]):
        self._draw, self._shape = draw, shape
        self._matrices: dict[int, np.ndarray] = {}

    def __getitem__(self, experts) -> np.ndarray:
        wanted = np.asarray(experts, dtype=np.int64).tolist()
        new = [e for e in wanted if e not in self._matrices]
        if new:
            _, a, b = self._shape
            positions = np.array(new)[:, None] * (a * b) + np.arange(a * b)
            matrices = _fan_in_scaled(self._draw.at(positions).reshape(len(new), a, b))
            self._matrices.update(zip(new, matrices))
        return np.array([self._matrices[e] for e in wanted])


class ReservedBank:
    """The counters of ``ExpertBank.random(rng, spec)``, reserved in its draw
    order, with stacks that evaluate only the experts they are indexed by.

    It stands in for the drawn bank where only ``w_in[experts]`` and
    ``w_out[experts]`` are read (``precision.mixed_forward``), so a caller
    that routes to k of N experts draws k experts' weights, not N.
    """

    def __init__(self, rng, spec: MoeLayerSpec):
        self.w_in, self.w_out = (_ReservedStack(rng.normal_draw(n * a * b), (n, a, b))
                                 for n, a, b in _stack_shapes(spec))


@dataclass
class RoutingDecision:
    """One token's or a batch's routing: probabilities ``p`` (..., N),
    ascending selections ``s`` (..., k), gates ``p[s] / p[s].sum()`` per row.

    Construction only coerces ``probs`` and ``selected`` and derives the
    gates, which raises on zero probability mass on a row's selection. The
    producers check the rest: :func:`route_token` selects from a softmax of
    finite logits, ``replay.replay_select`` checks the caller's probabilities
    and the entry's range, ``replay.replay_verify`` its trace against its run.
    """

    probs: np.ndarray
    selected: np.ndarray
    gates: np.ndarray = field(init=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
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
    return softmax(z, out=z)


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
    more tied entries than slots. The flat indices of the row-major mask,
    modulo ``n``, are each row's indices already ascending. A block that
    keeps one expert needs none of this: ``argmax`` returns the first
    maximal index, the same lower-index tie-break.
    """
    t, n = probs.shape
    size = n // num_groups
    blocks = probs.reshape(t * num_groups, size)
    if take == 1:
        return blocks.argmax(axis=1).reshape(t, num_groups) + np.arange(0, n, size)
    kth = np.partition(blocks, size - take, axis=1)[:, size - take, None]
    keep = blocks >= kth
    if np.count_nonzero(keep) > t * num_groups * take:
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > take)
        sub, th = blocks[over], kth[over]
        gt, eq = sub > th, sub == th
        need = take - np.count_nonzero(gt, axis=1)[:, None]
        keep[over] = gt | (eq & (np.cumsum(eq, axis=1) <= need))
    return (np.flatnonzero(keep) % n).reshape(t, num_groups * take)


def _finite_probs(probs) -> np.ndarray:
    """``probs`` as a float64 matrix; a non-finite entry raises ValueError
    naming its row and column."""
    pm = as_matrix(probs, "probs")
    if not np.isfinite(pm).all():
        row, col = np.argwhere(~np.isfinite(pm))[0]
        raise ValueError(f"non-finite probability {pm[row, col]} at row {row}, column {col}")
    return pm


def _checked_probs(p) -> np.ndarray:
    """``p`` as a float64 vector whose entries are finite and nonnegative
    (``-0.0`` is not negative); else ValueError naming the first bad entry."""
    pv = _finite_probs(as_vector(p, "p")[None])[0]
    neg = pv < 0.0
    if neg.any():
        i = int(np.argmax(neg))
        raise ValueError(f"negative probability {pv[i]} at index {i}")
    return pv


def _checked_selection(selected, n: int) -> np.ndarray:
    """``selected`` as int64 indices into ``n`` experts: 1-D, nonempty, in
    range and without repeats; else ValueError."""
    s = np.asarray(selected, dtype=np.int64)
    if s.ndim != 1:
        raise ValueError(f"selected must be 1-D, got shape {s.shape}")
    if s.size < 1:
        raise ValueError("selected set must be nonempty")
    if s.min() < 0 or s.max() >= n:
        raise ValueError(f"selected indices out of range [0, {n})")
    if np.unique(s).size != s.size:
        raise ValueError("selected indices must be distinct")
    return s


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
    with a fixed per-block count. The grouped view of :func:`select`.
    """
    return select(probs, spec, "grouped")


def topk_select(p, k: int) -> np.ndarray:
    """1-row view of :func:`topk_select_batch` for one probability vector."""
    return topk_select_batch(as_vector(p, "p")[None], k)[0]


def grouped_select(p, spec: MoeLayerSpec) -> np.ndarray:
    """1-row view of :func:`grouped_select_batch` for one probability vector."""
    return grouped_select_batch(as_vector(p, "p")[None], spec)[0]


def select(probs, spec: MoeLayerSpec, mode: RoutingMode) -> np.ndarray:
    """(T, k) ascending expert indices per row of ``probs`` under ``mode``.

    The one place a routing mode is interpreted and the probabilities are
    checked against ``spec``: ValueError on an unknown mode, a non-finite
    probability, or a width other than ``spec.num_experts``. Plain top-k is
    the kernel with one block.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown routing mode {mode!r}")
    pm = _finite_probs(probs)
    if pm.shape[1] != spec.num_experts:
        raise ValueError(f"probability width {pm.shape[1]} != num_experts {spec.num_experts}")
    groups = spec.num_groups if mode == "grouped" else 1
    return _block_topk(pm, groups, spec.active_k // groups)


def _renormalize(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The gate rule ``p[s] / p[s].sum()`` on each row of finite ``p`` and
    in-range ``s``; a row rounds exactly as it would alone."""
    ps = p[s] if p.ndim == s.ndim == 1 else np.take_along_axis(p, s, axis=-1)
    mass = ps.sum(axis=-1, keepdims=True)
    if not (mass > 0.0).all():
        raise ValueError("zero probability mass on the selected set")
    return ps / mass


def gate_weights(p, selected) -> np.ndarray:
    """Probabilities restricted to the selected set, renormalized to sum 1.

    Raises ValueError on a non-finite or negative probability anywhere in
    ``p``, and on a selection that is not 1-D, nonempty, in range and
    distinct.
    """
    pv = _checked_probs(p)
    return _renormalize(pv, _checked_selection(selected, pv.size))


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
    """Gate-weighted sum of the selected experts' outputs for one token's
    decision (probabilities of shape ``(N,)``); a batch's is refused."""
    xv = as_vector(x, "x")
    if xv.size != bank.model_dim:
        raise ValueError(f"token dim {xv.size} != bank model dim {bank.model_dim}")
    if decision.probs.shape != (bank.num_experts,):
        raise ValueError(
            "decision covers a different number of experts than the bank, or more than "
            f"one token: moe_forward takes one token's decision, probabilities of shape "
            f"({bank.num_experts},), got {decision.probs.shape}"
        )
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
    s = _checked_selection(selected, zv.size)  # u[s] = up would keep one repeat's upstream
    up = as_vector(upstream, "upstream")
    if up.shape != s.shape:
        raise ValueError("upstream must align positionally with selected")
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
