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
binary format so expansion is drivable from the command line.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, Literal

import numpy as np

from moelab.core import Rng, as_matrix
from moelab.routing import ExpertBank, router_probs_batch

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
    "CheckpointError",
]

ExpansionStrategy = Literal["grouped_top", "differentiated"]

_MAGIC = b"MOEC"
_VERSION = 1
_HEADER = struct.Struct("<4sHIII")


class CheckpointError(ValueError):
    """Malformed or truncated layer checkpoint."""


@dataclass
class ActivationStats:
    """Per-expert tallies of first- and second-ranked selections."""

    rank1: np.ndarray
    rank2: np.ndarray
    total_tokens: int

    def __post_init__(self):
        self.rank1 = np.asarray(self.rank1, dtype=np.int64)
        self.rank2 = np.asarray(self.rank2, dtype=np.int64)
        if self.rank1.shape != self.rank2.shape or self.rank1.ndim != 1:
            raise ValueError("rank tallies must be aligned 1-D arrays")
        if self.total_tokens < 1:
            raise ValueError("stats require at least one observed token")
        if self.rank1.sum() != self.total_tokens:
            raise ValueError("rank-1 tallies must sum to the token count")
        if np.any(self.rank1 > self.total_tokens) or np.any(self.rank2 > self.total_tokens):
            raise ValueError("tallies cannot exceed the token count")

    @property
    def num_experts(self) -> int:
        return self.rank1.size


def activation_stats(batch, w_router, k: int) -> ActivationStats:
    """Tally rank-1/rank-2 expert occurrences over a calibration batch.

    Each token is routed by plain top-k at temperature 1; the expert with
    the highest probability counts as rank-1, the runner-up (when k >= 2)
    as rank-2.
    """
    b = as_matrix(batch, "batch")
    if b.shape[0] < 1:
        raise ValueError("calibration batch must contain at least one token")
    w = as_matrix(w_router, "w_router")
    n = w.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    probs = router_probs_batch(b, w)
    order = np.argsort(-probs, axis=1, kind="stable")
    rank1 = np.bincount(order[:, 0], minlength=n)
    if k >= 2:
        rank2 = np.bincount(order[:, 1], minlength=n)
    else:
        rank2 = np.zeros(n, dtype=np.int64)
    return ActivationStats(rank1=rank1, rank2=rank2, total_tokens=b.shape[0])


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
    """

    factor: int
    num_groups: int
    strategy: ExpansionStrategy
    mapping: np.ndarray
    num_source: int

    def __post_init__(self):
        self.mapping = np.asarray(self.mapping, dtype=np.int64)
        if self.factor < 1:
            raise ValueError("expansion factor must be >= 1")
        if self.mapping.size != self.factor * self.num_source:
            raise ValueError("mapping length must equal factor * source experts")
        if self.mapping.size % self.num_groups != 0:
            raise ValueError("num_groups must divide the expanded expert count")
        if np.any(self.mapping < 0) or np.any(self.mapping >= self.num_source):
            raise ValueError("mapping entries must reference source experts")

    @property
    def new_count(self) -> int:
        return self.mapping.size

    @property
    def group_size(self) -> int:
        return self.mapping.size // self.num_groups

    def group(self, g: int) -> np.ndarray:
        lo = g * self.group_size
        return self.mapping[lo : lo + self.group_size]


def plan_expansion(
    stats: ActivationStats,
    factor: int,
    num_groups: int,
    strategy: ExpansionStrategy = "grouped_top",
) -> ExpansionPlan:
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

    groups: list[list[int]] = []
    if strategy == "grouped_top":
        lead = list(ranking[: min(2, m, n)])
        pool = list(ranking[len(lead) :]) or list(ranking)
        cursor = 0
        for _ in range(num_groups):
            slots = list(lead)
            while len(slots) < m:
                slots.append(int(pool[cursor % len(pool)]))
                cursor += 1
            groups.append(sorted(slots))
    elif strategy == "differentiated":
        for g in range(num_groups):
            groups.append([int(ranking[g % n])] * m)
    else:
        raise ValueError(f"unknown expansion strategy {strategy!r}")

    mapping = np.array([i for grp in groups for i in grp], dtype=np.int64)
    return ExpansionPlan(
        factor=factor,
        num_groups=num_groups,
        strategy=strategy,
        mapping=mapping,
        num_source=n,
    )


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

    new_bank = ExpertBank(bank.w_in[plan.mapping].copy(), bank.w_out[plan.mapping].copy())
    new_router = w[plan.mapping].copy()
    if noise > 0:
        d = w.shape[1]
        row_norms = np.linalg.norm(new_router, axis=1, keepdims=True)
        perturb = rng.normal(plan.new_count * d).reshape(plan.new_count, d)
        new_router += noise * row_norms * perturb
    return new_bank, new_router


def save_layer(fp: BinaryIO, w_router, bank: ExpertBank) -> None:
    """Write a layer checkpoint: header (dims) then little-endian f64 weights.

    Layout: magic ``MOEC``, version u16, N u32, d u32, hidden u32, then the
    router (N*d), stacked w_in (N*hidden*d), stacked w_out (N*d*hidden),
    all row-major float64.
    """
    w = as_matrix(w_router, "w_router")
    n, hidden, d = bank.w_in.shape
    if w.shape != (n, d):
        raise ValueError(f"router shape {w.shape} inconsistent with bank ({n}, {d})")
    fp.write(_HEADER.pack(_MAGIC, _VERSION, n, d, hidden))
    fp.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
    fp.write(np.ascontiguousarray(bank.w_in, dtype="<f8").tobytes())
    fp.write(np.ascontiguousarray(bank.w_out, dtype="<f8").tobytes())


def load_layer(fp: BinaryIO) -> tuple[np.ndarray, ExpertBank]:
    """Read a checkpoint written by :func:`save_layer` from a seekable stream.

    The payload size the header declares is checked against the bytes left
    in the stream before anything is read, so a crafted header cannot make
    the reader allocate more than the input holds. The payload must end
    the stream and every weight must be finite.
    """
    header = fp.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise CheckpointError("truncated checkpoint header")
    magic, version, n, d, hidden = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    counts = [n * d, n * hidden * d, n * d * hidden]
    size = 8 * sum(counts)
    start = fp.tell()
    available = fp.seek(0, io.SEEK_END) - start
    fp.seek(start)
    if size > available:
        raise CheckpointError(
            f"truncated checkpoint payload: {size} bytes declared, {available} left"
        )
    if size < available:
        raise CheckpointError(f"{available - size} trailing bytes after checkpoint payload")
    flat = np.frombuffer(fp.read(size), dtype="<f8")
    if not np.isfinite(flat).all():
        at = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise CheckpointError(f"non-finite checkpoint weight {flat[at]} at payload index {at}")
    w = flat[: counts[0]].reshape(n, d).astype(np.float64)
    w_in = flat[counts[0] : counts[0] + counts[1]].reshape(n, hidden, d).astype(np.float64)
    w_out = flat[counts[0] + counts[1] :].reshape(n, d, hidden).astype(np.float64)
    return w, ExpertBank(w_in, w_out)
