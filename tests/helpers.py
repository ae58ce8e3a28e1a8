"""Shared test scaffolding: exactly-linear expert banks, brute-force
oracles, a read-counting stream and a traced-memory probe."""

import io
import itertools
import tracemalloc

import numpy as np

from moelab.routing import ExpertBank


def linear_bank(num_experts: int, dim: int, scales) -> ExpertBank:
    """Bank whose expert i computes ``scales[i] * x`` exactly.

    Uses the ReLU split trick: w_in = [I; -I] separates positive and
    negative parts, w_out = [s*I, -s*I] recombines them, so the FFN is
    linear despite the ReLU.
    """
    scales = np.asarray(scales, dtype=np.float64)
    assert scales.shape == (num_experts,)
    eye = np.eye(dim)
    w_in = np.stack([np.vstack([eye, -eye])] * num_experts)
    w_out = np.stack([np.hstack([s * eye, -s * eye]) for s in scales])
    return ExpertBank(w_in, w_out)


def brute_topk(p, k):
    """Exhaustive-enumeration top-k oracle.

    Scans every k-subset, maximizing total mass; equal-mass ties resolve to
    the lexicographically smallest index tuple (lower indices win).
    """
    p = np.asarray(p, dtype=np.float64)
    best = None
    for combo in itertools.combinations(range(p.size), k):
        key = (p[list(combo)].sum(), tuple(-i for i in combo))
        if best is None or key > best[0]:
            best = (key, combo)
    return np.array(best[1], dtype=np.int64)


def brute_grouped(p, spec):
    """Per-block exhaustive selection oracle for grouped routing."""
    p = np.asarray(p, dtype=np.float64)
    out = []
    for g in range(spec.num_groups):
        lo = g * spec.group_size
        block = p[lo : lo + spec.group_size]
        out.extend(lo + i for i in brute_topk(block, spec.active_k // spec.num_groups))
    return np.sort(np.array(out, dtype=np.int64))


class CountingStream(io.BytesIO):
    """In-memory file that counts the bytes handed out by ``read``."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, n=-1):
        data = super().read(n)
        self.bytes_read += len(data)
        return data


def traced_peak(fn):
    """(result, peak bytes allocated while ``fn()`` ran), by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
