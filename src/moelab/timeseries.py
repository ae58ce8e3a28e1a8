"""Adaptive patch planning for heterogeneous time series.

Long signals are split into non-overlapping patches so the frame count
stays within a fixed budget regardless of input length (from single-sample
signals up to millions of steps). The patch size is the smallest length
that fits the budget, rounded up to a sampling-rate-linked granularity of
roughly 10 ms so patch boundaries stay aligned to a physically meaningful
grid. Signals shorter than the minimum frame budget pass through
sample-per-frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PatchPlan", "plan_patches"]


@dataclass(frozen=True)
class PatchPlan:
    """Non-overlapping segmentation: frame f covers samples
    [f * stride, f * stride + patch_size), the final frame possibly partial.
    :func:`plan_patches` validates its inputs, so every field is positive."""

    patch_size: int
    stride: int
    n_frames: int


def plan_patches(length: int, rate: float, f_min: int = 1, f_max: int = 4096) -> PatchPlan:
    """Choose a patch size whose frame count lands in [1, f_max].

    Signals shorter than ``f_min`` samples are kept sample-per-frame.
    Otherwise the patch size is ceil(length / f_max) rounded up to a
    multiple of max(1, round(rate / 100)) samples (~10 ms at the given
    sampling rate), with stride equal to patch size; the trailing partial
    patch counts as a frame.
    """
    if length < 1:
        raise ValueError(f"signal length must be >= 1, got {length}")
    if not 0 < rate < float("inf"):
        raise ValueError(f"sampling rate must be positive and finite, got {rate}")
    if not 1 <= f_min <= f_max:
        raise ValueError(f"need 1 <= f_min <= f_max, got ({f_min}, {f_max})")

    if length < f_min:
        return PatchPlan(patch_size=1, stride=1, n_frames=length)

    granule = max(1, round(rate / 100.0))
    base = max(1, math.ceil(length / f_max))
    patch = math.ceil(base / granule) * granule
    n_frames = math.ceil(length / patch)
    return PatchPlan(patch_size=patch, stride=patch, n_frames=n_frames)
