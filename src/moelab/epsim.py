"""Expert-parallel dispatch simulation.

Experts are sharded over devices in contiguous blocks (device s hosts
experts [s*N/S, (s+1)*N/S)). Dispatching a token batch tallies how many
token-expert assignments land on each device. Plain top-k routing lets
popular experts pile work onto one device; grouped routing with one group
per device forces exactly k/G assignments per device per token, so every
report from that mode is perfectly flat.

Also provides the standard auxiliary balance loss, N * sum_i f_i * P_i,
where f_i is expert i's share of assignments and P_i its mean routing
probability: 1.0 at perfect uniformity, N when one expert takes all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moelab.core import Rng, as_matrix
from moelab.routing import (
    MoeLayerSpec,
    RoutingMode,
    router_probs_batch,
    select,
    topk_select_batch,
)

__all__ = [
    "LoadReport", "dispatch", "balance_metrics", "balance_loss", "balance_trial", "balance_trials",
]


@dataclass
class LoadReport:
    """Per-device token-expert assignment counts for one dispatched batch."""

    num_devices: int
    counts: np.ndarray
    mode: RoutingMode
    num_tokens: int
    active_k: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.num_devices,):
            raise ValueError("counts must have one entry per device")
        if self.counts.sum() != self.num_tokens * self.active_k:
            raise ValueError("assignment counts must sum to tokens * k")


def _dispatch(
    b: np.ndarray, w_router, spec: MoeLayerSpec, num_devices: int, mode: RoutingMode
) -> tuple[np.ndarray, np.ndarray, LoadReport]:
    """:func:`dispatch`, also returning the probabilities and selection."""
    n = spec.num_experts
    if num_devices < 1 or n % num_devices != 0:
        raise ValueError(f"devices must evenly partition {n} experts, got {num_devices}")
    if mode == "grouped" and num_devices != spec.num_groups:
        raise ValueError(
            f"grouped dispatch needs one group per device "
            f"(groups={spec.num_groups}, devices={num_devices})"
        )
    probs = router_probs_batch(b, w_router)
    sel = select(probs, spec, mode)
    per_device = n // num_devices
    counts = np.bincount((sel // per_device).ravel(), minlength=num_devices)
    return probs, sel, LoadReport(
        num_devices=num_devices,
        counts=counts,
        mode=mode,
        num_tokens=b.shape[0],
        active_k=spec.active_k,
    )


def dispatch(
    batch,
    w_router,
    spec: MoeLayerSpec,
    num_devices: int,
    mode: RoutingMode = "plain_topk",
) -> LoadReport:
    """Route every token and tally assignments per hosting device.

    Grouped mode requires one group per device (device g hosts group g).
    Tallies use a fixed reduction (bincount over the flattened selection),
    so reports are bit-reproducible regardless of token order of work.
    """
    return _dispatch(as_matrix(batch, "batch"), w_router, spec, num_devices, mode)[2]


def balance_metrics(report: LoadReport) -> dict[str, float]:
    """Max-over-mean device load and coefficient of variation."""
    total = int(report.counts.sum())
    if total <= 0:
        raise ValueError("balance metrics need a nonempty dispatch")
    mean = total / report.num_devices
    return {
        "max_over_mean": float(report.counts.max() / mean),
        "coefficient_of_variation": float(report.counts.std() / mean),
    }


def _aux_loss(probs: np.ndarray, plain_sel: np.ndarray) -> float:
    """N * sum_i f_i * P_i from the probabilities and their plain top-k."""
    t, n = probs.shape
    f = np.bincount(plain_sel.ravel(), minlength=n) / (t * plain_sel.shape[1])
    return float(n * (f @ probs.mean(axis=0)))


def balance_loss(batch, w_router, spec: MoeLayerSpec) -> float:
    """Auxiliary load-balance loss N * sum_i f_i * P_i under plain top-k.

    f_i is the fraction of token-expert assignments hitting expert i and
    P_i the batch-mean routing probability of expert i. The minimum 1.0 is
    attained exactly when both distributions are uniform.
    """
    b = as_matrix(batch, "batch")
    if b.shape[0] < 1:
        raise ValueError("balance loss needs at least one token")
    probs = router_probs_batch(b, w_router)
    return _aux_loss(probs, topk_select_batch(probs, spec.active_k))


def balance_trial(
    mode: RoutingMode,
    seed: int,
    spec: MoeLayerSpec,
    num_devices: int,
    num_tokens: int,
) -> dict[str, object]:
    """One seeded simulation row: fresh router and batch, dispatch, metrics.

    Draw order is router first, then tokens, so a trial is reproducible
    from (seed, spec, num_tokens) alone. The batch is routed once: the
    balance loss reuses the dispatch's probabilities, and in ``plain_topk``
    mode its selection too.
    """
    rng = Rng(seed)
    w = rng.normal_matrix(spec.num_experts, spec.model_dim)
    batch = rng.normal_matrix(num_tokens, spec.model_dim)
    probs, sel, report = _dispatch(batch, w, spec, num_devices, mode)
    metrics = balance_metrics(report)
    plain = sel if mode == "plain_topk" else topk_select_batch(probs, spec.active_k)
    return {
        "mode": mode,
        "T": num_tokens,
        "seed": seed,
        "max_over_mean": metrics["max_over_mean"],
        "cv": metrics["coefficient_of_variation"],
        "balance_loss": _aux_loss(probs, plain),
    }


def balance_trials(
    mode: RoutingMode, seed: int, spec: MoeLayerSpec, num_devices: int, num_tokens: int, trials: int
) -> list[dict[str, object]]:
    """:func:`balance_trial` rows at seeds ``seed .. seed + trials - 1``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return [balance_trial(mode, seed + i, spec, num_devices, num_tokens) for i in range(trials)]
