"""Routing-trace recording and forced replay.

During a rollout pass, :func:`record_trace` stores the selected expert
indices for every (token, layer). A later training pass calls
:func:`replay_select` to force those selections regardless of how the
router has moved since: the selected set comes from the trace, while the
``RoutingDecision`` built from it recomputes gate weights from the
*current* probabilities renormalized over the frozen set.

Traces serialize to a compact binary format: magic ``RTRC``, version u16,
token count u32, layer count u32, k u16, then token-major packed
little-endian u16 expert indices (ascending within each entry). The u16
payload caps expert counts at 65536. The framing rules are
``core._read_framed``'s, shared with layer checkpoints.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from moelab.core import Rng, _read_framed, as_matrix, as_vector
from moelab.routing import (
    MoeLayerSpec,
    RoutingDecision,
    RoutingMode,
    _finite_probs,
    _nonnegative_probs,
    router_probs,
    router_probs_batch,
    select,
)

__all__ = [
    "RoutingTrace",
    "TraceError",
    "record_trace",
    "replay_select",
    "serialize_trace",
    "deserialize_trace",
    "save_trace",
    "load_trace",
    "replay_verify",
]

_MAGIC = b"RTRC"
_VERSION = 1
_HEADER = struct.Struct("<4sHIIH")
MAX_EXPERTS = 1 << 16


class TraceError(ValueError):
    """Malformed routing trace."""


@dataclass
class RoutingTrace:
    """Selected expert indices per (token, layer), ascending within an entry."""

    indices: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.indices)
        if a.ndim != 3:
            raise TraceError("trace indices must be (tokens, layers, k)")
        if min(a.shape) < 1:
            raise TraceError("trace must cover at least one token, layer, and expert")
        # checked before the uint16 cast, which would wrap or truncate silently
        ok = (a >= 0) & (a < MAX_EXPERTS) if a.dtype.kind in "iu" else np.zeros(a.shape, bool)
        if not ok.all():
            raise TraceError(f"trace index {a[~ok][0]} is not an integer in [0, {MAX_EXPERTS})")
        if a.shape[2] > 1 and not (np.diff(a.astype(np.int64), axis=2) > 0).all():
            raise TraceError("trace entries must hold distinct ascending indices")
        self.indices = a.astype(np.uint16, copy=False)

    @property
    def num_tokens(self) -> int:
        return self.indices.shape[0]

    @property
    def num_layers(self) -> int:
        return self.indices.shape[1]

    @property
    def active_k(self) -> int:
        return self.indices.shape[2]

    def entry(self, token: int, layer: int) -> np.ndarray:
        if not (0 <= token < self.num_tokens and 0 <= layer < self.num_layers):
            raise TraceError(
                f"no trace entry for token {token}, layer {layer} "
                f"(trace is {self.num_tokens} x {self.num_layers})"
            )
        return self.indices[token, layer].astype(np.int64)


def record_trace(
    batch,
    layers: Sequence[tuple[np.ndarray, MoeLayerSpec]],
    mode: RoutingMode = "plain_topk",
) -> RoutingTrace:
    """Route a token batch through each layer and store every selection."""
    b = as_matrix(batch, "batch")
    if not layers:
        raise ValueError("need at least one (router, spec) layer")
    ks = {spec.active_k for _, spec in layers}
    if len(ks) != 1:
        raise ValueError(f"all layers must share one k, got {sorted(ks)}")
    per_layer = []
    for w, spec in layers:
        # RoutingTrace's range check would reject only the indices a seed happens to select
        if spec.num_experts > MAX_EXPERTS:
            raise ValueError(f"trace format caps experts at {MAX_EXPERTS}")
        per_layer.append(select(router_probs_batch(b, w), spec, mode))
    return RoutingTrace(indices=np.stack(per_layer, axis=1))


def replay_select(trace: RoutingTrace, token: int, layer: int, current_probs) -> RoutingDecision:
    """Force the recorded selection; gates follow the current router.

    Gates are the current probabilities renormalized over the frozen set,
    so they stay differentiable w.r.t. the live router. The caller's
    probabilities must be finite, nonnegative (``-0.0`` is not negative)
    and sum to 1 within 1e-12, and the trace entry must lie within them.
    """
    p = as_vector(current_probs, "current_probs")
    s = trace.entry(token, layer)
    if s.max() >= p.size:
        raise TraceError(
            f"trace entry for token {token}, layer {layer} references expert "
            f"{int(s.max())} but only {p.size} experts exist"
        )
    _finite_probs(p[None])  # before the sum: a NaN sum passes any tolerance test
    _nonnegative_probs(p)  # before the sum: [2, -1] sums to 1
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probs must sum to 1 within 1e-12")
    return RoutingDecision(p, s)


def serialize_trace(trace: RoutingTrace) -> bytes:
    header = _HEADER.pack(
        _MAGIC, _VERSION, trace.num_tokens, trace.num_layers, trace.active_k
    )
    return header + np.ascontiguousarray(trace.indices, dtype="<u2").tobytes()


def _read_trace(fp) -> RoutingTrace:
    """Read a trace that fills a seekable stream from its position."""
    dims, payload = _read_framed(
        fp, _HEADER, _MAGIC, _VERSION, lambda tokens, layers, k: 2 * tokens * layers * k,
        "trace", TraceError,
    )
    return RoutingTrace(indices=np.frombuffer(payload, dtype="<u2").reshape(dims).copy())


def deserialize_trace(data: bytes) -> RoutingTrace:
    return _read_trace(io.BytesIO(data))


def save_trace(path, trace: RoutingTrace) -> None:
    with open(path, "wb") as fp:
        fp.write(serialize_trace(trace))


def load_trace(path) -> RoutingTrace:
    """Read a trace file; its size is checked before the payload is read."""
    with open(path, "rb") as fp:
        return _read_trace(fp)


def replay_verify(
    spec: MoeLayerSpec,
    mode: RoutingMode,
    num_tokens: int,
    num_layers: int,
    perturb: float,
    seed: int,
    *,
    record_path=None,
    replay_path=None,
) -> dict[str, int]:
    """Record a seeded batch's trace (saved to ``record_path`` if given),
    move each router by up to ``perturb`` times its Frobenius norm, and count
    forced replays of its codec round trip (or of the trace at ``replay_path``)
    whose selection differs from the recorded one, as one CSV row."""
    if not 0.0 <= perturb < np.inf:
        raise ValueError(f"perturb must be finite and >= 0, got {perturb}")
    rng = Rng(seed)
    layers = [(rng.normal_matrix(spec.num_experts, spec.model_dim), spec) for _ in range(num_layers)]
    batch = rng.normal_matrix(num_tokens, spec.model_dim)
    recorded = record_trace(batch, layers, mode)
    if record_path:
        save_trace(record_path, recorded)
    trace = (load_trace(replay_path) if replay_path
             else deserialize_trace(serialize_trace(recorded)))

    mismatches = 0
    # router_probs rejects the non-finite logits of a perturbation near the
    # float64 limit; numpy's overflow warnings would only repeat that error.
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, _) in enumerate(layers):
            direction = rng.normal_matrix(*w.shape)
            direction /= np.linalg.norm(direction)
            scale = perturb * float(np.linalg.norm(w)) * float(rng.uniform(1)[0])
            w_pert = w + direction * scale
            for t in range(num_tokens):
                decision = replay_select(trace, t, l, router_probs(batch[t], w_pert))
                if not np.array_equal(decision.selected, recorded.entry(t, l)):
                    mismatches += 1
    return {"tokens": num_tokens, "layers": num_layers, "k": spec.active_k,
            "checked": num_tokens * num_layers, "mismatches": mismatches}
