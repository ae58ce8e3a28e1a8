"""Routing-trace recording and forced replay.

During a rollout pass, :func:`record_trace` stores the selected expert
indices for every (token, layer). A later training pass calls
:func:`replay_select` to force those selections regardless of how the
router has moved since: the selected set comes from the trace, while gate
weights are recomputed from the *current* probabilities renormalized over
the frozen set (pass ``gate_override`` to replay recorded gate values as
constants instead).

Traces serialize to a compact binary format: magic ``RTRC``, version u16,
token count u32, layer count u32, k u16, then token-major packed
little-endian u16 expert indices (ascending within each entry). The u16
payload caps expert counts at 65536.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from moelab.core import Rng, as_matrix, as_vector
from moelab.routing import (
    MoeLayerSpec,
    RoutingDecision,
    RoutingMode,
    gate_weights,
    router_probs,
    router_probs_batch,
    select,
)

__all__ = [
    "RoutingTrace",
    "TraceError",
    "TraceMagicError",
    "TraceVersionError",
    "TraceTruncatedError",
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


class TraceMagicError(TraceError):
    """Stream does not start with the trace magic."""


class TraceVersionError(TraceError):
    """Unsupported trace format version."""


class TraceTruncatedError(TraceError):
    """Stream ends before the declared payload."""


@dataclass
class RoutingTrace:
    """Selected expert indices per (token, layer), ascending within an entry."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.uint16)
        if self.indices.ndim != 3:
            raise TraceError("trace indices must be (tokens, layers, k)")
        if min(self.indices.shape) < 1:
            raise TraceError("trace must cover at least one token, layer, and expert")
        if self.indices.shape[2] > 1 and not (
            np.diff(self.indices.astype(np.int64), axis=2) > 0
        ).all():
            raise TraceError("trace entries must hold distinct ascending indices")

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
    k = ks.pop()
    per_layer = []
    for w, spec in layers:
        if spec.num_experts > MAX_EXPERTS:
            raise ValueError(f"trace format caps experts at {MAX_EXPERTS}")
        sel = select(router_probs_batch(b, w), spec, mode)
        per_layer.append(sel.astype(np.uint16))
    stacked = np.stack(per_layer, axis=1)
    assert stacked.shape == (b.shape[0], len(layers), k)
    return RoutingTrace(indices=stacked)


def replay_select(
    trace: RoutingTrace,
    token: int,
    layer: int,
    current_probs,
    gate_override=None,
) -> RoutingDecision:
    """Force the recorded selection; gates follow the current router.

    Gates are the current probabilities renormalized over the frozen set,
    so they stay differentiable w.r.t. the live router. ``gate_override``
    replays fixed gate values instead (they must sum to 1).
    """
    p = as_vector(current_probs, "current_probs")
    s = trace.entry(token, layer)
    if s.max() >= p.size:
        raise TraceError(
            f"trace entry for token {token}, layer {layer} references expert "
            f"{int(s.max())} but only {p.size} experts exist"
        )
    if gate_override is not None:
        gates = as_vector(gate_override, "gate_override")
    else:
        gates = gate_weights(p, s)
    return RoutingDecision(probs=p, selected=s, gates=gates, logits=None)


def serialize_trace(trace: RoutingTrace) -> bytes:
    header = _HEADER.pack(
        _MAGIC, _VERSION, trace.num_tokens, trace.num_layers, trace.active_k
    )
    return header + np.ascontiguousarray(trace.indices, dtype="<u2").tobytes()


def _trace_dims(header: bytes, payload_bytes: int) -> tuple[int, int, int]:
    """(tokens, layers, k) of a trace header followed by ``payload_bytes``
    bytes; a short header, wrong magic or version, or wrong size raises."""
    if len(header) < _HEADER.size:
        raise TraceTruncatedError(
            f"trace header needs {_HEADER.size} bytes, got {len(header)}"
        )
    magic, version, tokens, layers, k = _HEADER.unpack(header[: _HEADER.size])
    if magic != _MAGIC:
        raise TraceMagicError(f"bad trace magic {magic!r}")
    if version != _VERSION:
        raise TraceVersionError(f"unsupported trace version {version}")
    expected = tokens * layers * k * 2
    if payload_bytes < expected:
        raise TraceTruncatedError(
            f"trace payload needs {expected} bytes, got {payload_bytes}"
        )
    if payload_bytes > expected:
        raise TraceError(f"{payload_bytes - expected} trailing bytes after trace payload")
    return tokens, layers, k


def deserialize_trace(data: bytes) -> RoutingTrace:
    dims = _trace_dims(data, len(data) - _HEADER.size)
    indices = np.frombuffer(data, dtype="<u2", offset=_HEADER.size).reshape(dims)
    return RoutingTrace(indices=indices.copy())


def save_trace(path, trace: RoutingTrace) -> None:
    with open(path, "wb") as fp:
        fp.write(serialize_trace(trace))


def load_trace(path) -> RoutingTrace:
    """Read a trace file, checking the header against the file size before
    the payload is read: a file cannot make the reader allocate more than it holds."""
    with open(path, "rb") as fp:
        header = fp.read(_HEADER.size)
        _trace_dims(header, fp.seek(0, io.SEEK_END) - len(header))
        fp.seek(len(header))
        return deserialize_trace(header + fp.read())


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
    move each router by up to ``perturb`` times its Frobenius norm, and
    count forced replays of the trace (or of the one at ``replay_path``)
    whose selection differs from the recorded one, as one CSV row."""
    if not 0.0 <= perturb < np.inf:
        raise ValueError(f"perturb must be finite and >= 0, got {perturb}")
    rng = Rng(seed)
    layers = [(rng.normal_matrix(spec.num_experts, spec.model_dim), spec) for _ in range(num_layers)]
    batch = rng.normal_matrix(num_tokens, spec.model_dim)
    recorded = record_trace(batch, layers, mode)
    if record_path:
        save_trace(record_path, recorded)
    trace = load_trace(replay_path) if replay_path else recorded

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
