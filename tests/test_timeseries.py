import math

import numpy as np
import pytest

from moelab.timeseries import plan_patches


def log_lengths(lo, hi, count=400):
    grid = np.unique(np.logspace(math.log10(lo), math.log10(hi), count).astype(np.int64))
    return grid[(grid >= lo) & (grid <= hi)]


class TestPlanPatches:
    def test_short_signal_is_sample_per_frame(self):
        plan = plan_patches(10, rate=100.0, f_min=1, f_max=4096)
        assert (plan.patch_size, plan.stride, plan.n_frames) == (1, 1, 10)

    def test_below_fmin_branch(self):
        plan = plan_patches(10, rate=48000.0, f_min=64, f_max=4096)
        assert (plan.patch_size, plan.stride, plan.n_frames) == (1, 1, 10)

    def test_million_samples_fit_budget(self):
        plan = plan_patches(1_000_000, rate=100.0, f_max=4096)
        # recompute the stated policy independently
        base = math.ceil(1_000_000 / 4096)
        assert plan.patch_size == base
        assert plan.n_frames == math.ceil(1_000_000 / base)
        assert plan.n_frames <= 4096

    def test_rate_linked_granularity(self):
        plan = plan_patches(100_000, rate=48000.0, f_max=4096)
        assert plan.patch_size % 480 == 0

    def test_frames_nondecreasing_until_saturation(self):
        # Monotone growth holds up to the first length whose frame count
        # reaches the budget; past saturation the patch size steps up and
        # the count may legitimately drop.
        f_max = 256
        sweep = sorted(set(log_lengths(1, 100_000).tolist()) | {f_max})
        prev = 0
        for length in sweep:
            n = plan_patches(int(length), rate=100.0, f_max=f_max).n_frames
            if n == f_max:
                break
            assert n >= prev
            prev = n
        else:
            pytest.fail("sweep never reached the frame budget")

    def test_budget_holds_over_full_range(self):
        for rate in (1.0, 100.0, 48000.0):
            for length in log_lengths(1, 1_000_000):
                plan = plan_patches(int(length), rate=rate, f_max=4096)
                assert 1 <= plan.n_frames <= 4096

    def test_tiling_covers_signal(self):
        for length in log_lengths(1, 1_000_000, count=200):
            plan = plan_patches(int(length), rate=100.0, f_max=4096)
            # the frames tile [0, length) without gaps
            last_start = (plan.n_frames - 1) * plan.stride
            assert plan.stride <= plan.patch_size
            assert last_start < length <= last_start + plan.patch_size
            # padded-length frame formula agrees with the count
            padded = plan.n_frames * plan.patch_size
            assert (padded - plan.patch_size) // plan.stride + 1 == plan.n_frames
            assert padded >= length

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="signal length"):
            plan_patches(0, rate=100.0)
        with pytest.raises(ValueError, match="sampling rate"):
            plan_patches(10, rate=0.0)
        with pytest.raises(ValueError, match=r"f_min <= f_max, got \(0, 4096\)"):
            plan_patches(10, rate=100.0, f_min=0)
        with pytest.raises(ValueError, match=r"f_min <= f_max, got \(8, 4\)"):
            plan_patches(10, rate=100.0, f_min=8, f_max=4)
