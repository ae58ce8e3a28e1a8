"""Expert expansion: growing a trained layer from N experts to r*N.

The expansion copies expert FFN weights verbatim according to a mapping
from new expert slots to source experts, and copies router rows with a
small Gaussian perturbation so duplicated experts do not tie forever under
deterministic selection. Two seeding strategies are provided:

* ``grouped_top`` leads every destination group with copies of the
  globally most-activated experts (rank-1 frequency, rank-2 as tiebreak)
  and fills remaining slots round-robin from the rest, so each group owns
  at least one well-trained expert.
* ``differentiated`` seeds group g entirely with the g-th ranked expert,
  the baseline whose group-level selections drift away from the original
  layer's preferred experts.

Activation frequency comes from a calibration batch routed through the
original layer. Layer checkpoints round-trip through a little-endian
binary format, declared once as a ``core._Format`` as routing traces are;
:func:`expand_checkpoint` grows one checkpoint file into another and is
the experiment of ``moelab expand``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Literal

import numpy as np

from moelab.core import Rng, _Format, as_matrix
from moelab.routing import ExpertBank, router_probs_batch, topk_select_batch

__all__ = [
    "ActivationStats",
    "ExpansionPlan",
    "ExpansionStrategy",
    "activation_stats",
    "frequency_ranking",
    "plan_expansion",
    "expand_layer",
    "save_layer",
    "load_layer",
    "expand_checkpoint",
    "CheckpointError",
]

ExpansionStrategy = Literal["grouped_top", "differentiated"]


class CheckpointError(ValueError):
    """Malformed or truncated layer checkpoint."""


_FORMAT = _Format("checkpoint", CheckpointError, b"MOEC", 1, {"experts": "I", "dim": "I", "hidden": "I"},
                  "<f8", lambda n, d, hidden: [(n, d), (n, hidden, d), (n, d, hidden)])


@dataclass
class ActivationStats:
    """Per-expert tallies of first- and second-ranked selections.

    :func:`activation_stats` validates its batch and builds aligned 1-D
    tallies; the record itself checks nothing.
    """

    rank1: np.ndarray
    rank2: np.ndarray

    def __post_init__(self):
        self.rank1 = np.asarray(self.rank1, dtype=np.int64)
        self.rank2 = np.asarray(self.rank2, dtype=np.int64)

    @property
    def num_experts(self) -> int:
        return self.rank1.size


def activation_stats(batch, w_router, k: int) -> ActivationStats:
    """Tally rank-1/rank-2 expert occurrences over a calibration batch.

    Each token is routed by plain top-k at temperature 1; the expert with
    the highest probability counts as rank-1, the runner-up (when k >= 2)
    as rank-2, lower index first among equal probabilities.
    """
    b = as_matrix(batch, "batch")
    if b.shape[0] < 1:
        raise ValueError("calibration batch must contain at least one token")
    probs = router_probs_batch(b, w_router)
    n = probs.shape[1]
    top = topk_select_batch(probs, k)
    # top is ascending per row, so a stable sort of its k columns breaks ties low
    order = np.argsort(-np.take_along_axis(probs, top, axis=1), axis=1, kind="stable")
    ranked = np.take_along_axis(top, order, axis=1)
    rank1 = np.bincount(ranked[:, 0], minlength=n)
    rank2 = np.bincount(ranked[:, 1], minlength=n) if k >= 2 else np.zeros(n, dtype=np.int64)
    return ActivationStats(rank1=rank1, rank2=rank2)


def frequency_ranking(stats: ActivationStats) -> np.ndarray:
    """Experts ordered best-first by rank-1 count, rank-2 count, then index."""
    keys = np.lexsort(
        (np.arange(stats.num_experts), -stats.rank2, -stats.rank1)
    )
    return keys.astype(np.int64)


@dataclass
class ExpansionPlan:
    """Mapping from each new expert slot to the source expert it copies.

    New expert e' lands in destination group ``e' // (len(mapping) // num_groups)``;
    slots within a group are stored in ascending source-index order.
    :func:`plan_expansion` validates the factor and the group count; the
    record itself checks nothing.
    """

    num_groups: int
    mapping: np.ndarray
    num_source: int

    def __post_init__(self):
        self.mapping = np.asarray(self.mapping, dtype=np.int64)

    @property
    def new_count(self) -> int:
        return self.mapping.size


def plan_expansion(
    stats: ActivationStats,
    factor: int,
    num_groups: int,
    strategy: ExpansionStrategy = "grouped_top",
) -> ExpansionPlan:
    """Map the ``factor * N`` new slots onto source experts, group by group.

    Experts are ranked by :func:`frequency_ranking`, and each of the
    ``num_groups`` destination groups holds ``m = factor * N / num_groups``
    slots. ``grouped_top`` leads every group with the top ``min(2, m, N)``
    experts and fills the remaining slots from the rest of the ranking (the
    whole ranking when no expert is left), in ranking order, cycling and
    continuing from one group into the next; each group's slots are then
    sorted by source index. ``differentiated`` gives group g m copies of
    the ``g mod N``-th ranked expert. ValueError on a factor below 1, a
    group count that does not divide the expanded count, or an unknown
    strategy, in that order.
    """
    n = stats.num_experts
    new_count = factor * n
    if factor < 1:
        raise ValueError("expansion factor must be >= 1")
    if num_groups < 1 or new_count % num_groups != 0:
        raise ValueError(
            f"num_groups must divide the expanded count {new_count}, got {num_groups}"
        )
    m = new_count // num_groups
    ranking = frequency_ranking(stats)
    if strategy == "grouped_top":
        lead = ranking[: min(2, m, n)]
        pool = ranking[lead.size :] if n > lead.size else ranking
        fill = pool[np.arange(num_groups * (m - lead.size)) % pool.size].reshape(num_groups, -1)
        mapping = np.sort(np.hstack([np.tile(lead, (num_groups, 1)), fill]), axis=1).ravel()
    elif strategy == "differentiated":
        mapping = np.repeat(ranking[np.arange(num_groups) % n], m)
    else:
        raise ValueError(f"unknown expansion strategy {strategy!r}")
    return ExpansionPlan(num_groups=num_groups, mapping=mapping, num_source=n)


def expand_layer(
    bank: ExpertBank,
    w_router,
    plan: ExpansionPlan,
    noise: float = 1e-3,
    rng: Rng | None = None,
) -> tuple[ExpertBank, np.ndarray]:
    """Materialize an expansion plan: copied experts, perturbed router rows.

    Expert weights are copied verbatim per the mapping. Router rows are
    copied and then perturbed by Gaussian noise of scale ``noise`` relative
    to each row's 2-norm; ``noise=0`` produces bitwise-identical copies.
    """
    w = as_matrix(w_router, "w_router")
    if plan.num_source != bank.num_experts or w.shape[0] != bank.num_experts:
        raise ValueError("plan/bank/router expert counts disagree")
    if not 0 <= noise < np.inf:  # a NaN or infinite scale would write non-finite rows
        raise ValueError(f"noise scale must be finite and >= 0, got {noise}")
    if noise > 0 and rng is None:
        raise ValueError("rng is required when noise > 0")

    # Indexing by the mapping array already copies.
    new_bank = ExpertBank(bank.w_in[plan.mapping], bank.w_out[plan.mapping])
    new_router = w[plan.mapping]
    if noise > 0:
        d = w.shape[1]
        perturb = rng.normal(plan.new_count * d).reshape(plan.new_count, d)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is rejected below
            row_norms = np.linalg.norm(new_router, axis=1, keepdims=True)
            new_router += noise * row_norms * perturb
        bad = ~np.isfinite(new_router).all(axis=1)
        if bad.any():
            raise ValueError(f"perturbed router row {np.flatnonzero(bad)[0]} is not finite (noise {noise})")
    return new_bank, new_router


def save_layer(fp: BinaryIO, w_router, bank: ExpertBank) -> None:
    """Write a layer checkpoint (``_FORMAT``): header (N, d, hidden), then the
    router, stacked w_in and stacked w_out as little-endian float64."""
    w = as_matrix(w_router, "w_router")
    n, hidden, d = bank.w_in.shape
    if w.shape != (n, d):
        raise ValueError(f"router shape {w.shape} inconsistent with bank ({n}, {d})")
    _FORMAT.write(fp, (n, d, hidden), (w, bank.w_in, bank.w_out))


def load_layer(fp: BinaryIO) -> tuple[np.ndarray, ExpertBank]:
    """Read a checkpoint written by :func:`save_layer` that fills ``fp`` from
    its position; the framing is checked before the payload is read, and
    every weight must be finite.
    """
    flat, w, w_in, w_out = _FORMAT.read(fp)
    if not np.isfinite(flat).all():
        at = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise CheckpointError(f"non-finite checkpoint weight {flat[at]} at payload index {at}")
    return w, ExpertBank(w_in, w_out)


def expand_checkpoint(source, destination, *, factor: int, num_groups: int,
                      strategy: ExpansionStrategy, noise: float, calib_tokens: int, k: int,
                      seed: int) -> dict[str, object]:
    """Expand the checkpoint file ``source`` into ``destination``, as one CSV row.

    ``Rng(seed)`` draws a batch of ``calib_tokens`` tokens whose top-``k``
    tallies rank the experts; the same stream then perturbs the copied
    router rows. ``destination`` is opened only once the expansion succeeded.
    """
    with open(source, "rb") as fp:
        w_router, bank = load_layer(fp)
    rng = Rng(seed)
    stats = activation_stats(rng.normal_matrix(calib_tokens, bank.model_dim), w_router, k)
    plan = plan_expansion(stats, factor, num_groups, strategy)
    new_bank, new_router = expand_layer(bank, w_router, plan, noise, rng)
    with open(destination, "wb") as fp:
        save_layer(fp, new_router, new_bank)
    return {"experts_before": bank.num_experts, "experts_after": new_bank.num_experts,
            "param_ratio": float(new_bank.param_count / bank.param_count), "strategy": strategy}
