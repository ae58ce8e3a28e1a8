"""Independent correctness oracles for the benchmark workloads.

Nothing here imports moelab: every check recomputes its expectation from
the documented formats and formulas with plain numpy, so a defect in the
library cannot hide in its own oracle.
"""

from __future__ import annotations

import struct

import numpy as np

MOEC_HEADER = struct.Struct("<4sHIII")
RTRC_HEADER = struct.Struct("<4sHIIH")


def brute_topk_rows(probs: np.ndarray, k: int) -> np.ndarray:
    """Top-k per row by k rounds of argmax; ties go to the lower index.

    ``np.argmax`` returns the first maximal position, which is exactly the
    lower-index tie-break. Selections come back ascending per row.
    """
    p = np.array(probs, dtype=np.float64, copy=True)
    rows = np.arange(p.shape[0])
    picks = np.empty((p.shape[0], k), dtype=np.int64)
    for r in range(k):
        best = np.argmax(p, axis=1)
        picks[:, r] = best
        p[rows, best] = -np.inf
    return np.sort(picks, axis=1)


def brute_grouped_rows(probs: np.ndarray, num_groups: int, k: int) -> np.ndarray:
    """Per contiguous block top-(k/G) by :func:`brute_topk_rows`, ascending."""
    t, n = probs.shape
    size, take = n // num_groups, k // num_groups
    parts = [
        brute_topk_rows(probs[:, g * size : (g + 1) * size], take) + g * size
        for g in range(num_groups)
    ]
    return np.sort(np.concatenate(parts, axis=1), axis=1)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def encode_moec(router: np.ndarray, w_in: np.ndarray, w_out: np.ndarray) -> bytes:
    """Layer checkpoint bytes as the README's file-format section defines them."""
    n, hidden, d = w_in.shape
    return b"".join(
        [
            MOEC_HEADER.pack(b"MOEC", 1, n, d, hidden),
            np.ascontiguousarray(router, dtype="<f8").tobytes(),
            np.ascontiguousarray(w_in, dtype="<f8").tobytes(),
            np.ascontiguousarray(w_out, dtype="<f8").tobytes(),
        ]
    )


def encode_rtrc(indices: np.ndarray) -> bytes:
    """Routing-trace bytes as the README's file-format section defines them."""
    tokens, layers, k = indices.shape
    return RTRC_HEADER.pack(b"RTRC", 1, tokens, layers, k) + np.ascontiguousarray(
        indices, dtype="<u2"
    ).tobytes()


def same_bits(a, b) -> bool:
    """Bitwise equality of two float64 arrays (shape and every bit)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def renormalized(p: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Live probabilities restricted to a frozen set, renormalized to sum 1."""
    s = np.asarray(selected, dtype=np.int64)
    return p[s] / p[s].sum()


def expert_mix(x, w_in, w_out, selected, gates) -> np.ndarray:
    """Gate-weighted sum of two-layer ReLU experts, written out longhand."""
    y = np.zeros(w_out.shape[1])
    for g, i in zip(gates, selected):
        h = np.maximum(w_in[i] @ x, 0.0)
        y = y + g * (w_out[i] @ h)
    return y


def rl_loss_ref(train, rollout, new, old, rewards, alpha=0.5, beta=2.0):
    """Masked dual-ratio loss and its logit gradient direction coefficients.

    Returns ``(loss, coefs)`` where ``coefs[i]`` is the stop-gradient
    per-token coefficient ``M(rho) * r * A_i`` of response ``i``.
    """
    r = np.asarray(rewards, dtype=np.float64)
    g = r.size
    adv = r - (r.sum() - r) / (g - 1)
    total = 0.0
    coefs = []
    for i in range(g):
        rho = np.exp(train[i] - rollout[i])
        ratio = np.exp(new[i] - old[i])
        c = np.where((alpha < rho) & (rho < beta), rho, 0.0) * ratio * adv[i]
        coefs.append(c)
        total += float((c * new[i]).sum()) / new[i].size
    return -total / g, coefs


def rl_grad_ref(logits, tokens, coefs):
    """Per-response logit gradients of the loss with stop-gradient coefficients."""
    g = len(logits)
    out = []
    for l, t, c in zip(logits, tokens, coefs):
        p = softmax_rows(l)
        onehot = np.zeros_like(p)
        onehot[np.arange(t.size), t] = 1.0
        out.append((-c / (g * t.size))[:, None] * (onehot - p))
    return out


def close(a, b, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def finite(*values) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(v, dtype=np.float64)))) for v in values)
