import numpy as np
import pytest

from moelab import epsim
from moelab.core import Rng
from moelab.epsim import (
    LoadReport,
    balance_loss,
    balance_metrics,
    balance_trial,
    balance_trials,
    dispatch,
)
from moelab.routing import MoeLayerSpec


def spec64(groups=8, k=8):
    return MoeLayerSpec(
        num_experts=64, active_k=k, num_groups=groups, model_dim=16, hidden_dim=32
    )


class TestDispatch:
    def test_grouped_counts_are_forced_flat(self):
        rng = Rng(1)
        spec = spec64()
        report = dispatch(
            rng.normal_matrix(100, 16), rng.normal_matrix(64, 16), spec, 8, "grouped"
        )
        assert np.array_equal(report.counts, np.full(8, 100))

    def test_adversarial_router_floods_one_device(self):
        rng = Rng(2)
        spec = spec64(groups=1)
        w = rng.normal_matrix(64, 16)
        w[:8] = 10.0
        batch = np.abs(rng.normal_matrix(100, 16)) + 0.1
        report = dispatch(batch, w, spec, 8, "plain_topk")
        assert report.counts[0] == 800
        assert report.counts[1:].sum() == 0
        assert balance_metrics(report)["max_over_mean"] == 8.0

    def test_random_plain_topk_is_imbalanced(self):
        rng = Rng(3)
        spec = spec64(groups=1)
        report = dispatch(
            rng.normal_matrix(10_000, 16), rng.normal_matrix(64, 16), spec, 8, "plain_topk"
        )
        assert balance_metrics(report)["max_over_mean"] > 1.0

    def test_conservation_both_modes(self):
        rng = Rng(4)
        w = rng.normal_matrix(64, 16)
        batch = rng.normal_matrix(77, 16)
        for mode, spec in (("plain_topk", spec64(groups=1)), ("grouped", spec64())):
            report = dispatch(batch, w, spec, 8, mode)
            assert report.counts.sum() == 77 * 8

    def test_grouped_needs_one_group_per_device(self):
        rng = Rng(5)
        with pytest.raises(ValueError, match="one group per device"):
            dispatch(rng.normal_matrix(4, 16), rng.normal_matrix(64, 16), spec64(groups=4), 8, "grouped")

    def test_devices_must_partition_experts(self):
        rng = Rng(6)
        with pytest.raises(ValueError, match="partition"):
            dispatch(rng.normal_matrix(4, 16), rng.normal_matrix(64, 16), spec64(groups=1), 7)

    def test_deterministic_given_seed(self):
        a = balance_trial("plain_topk", 99, spec64(groups=1), 8, 128)
        b = balance_trial("plain_topk", 99, spec64(groups=1), 8, 128)
        assert a == b


class TestBalanceMetrics:
    def test_perfectly_equal(self):
        report = LoadReport(np.full(4, 25))
        m = balance_metrics(report)
        assert m["max_over_mean"] == 1.0
        assert m["coefficient_of_variation"] == 0.0

    def test_degenerate_counts(self):
        report = LoadReport(np.array([800, 0, 0, 0, 0, 0, 0, 0]))
        assert balance_metrics(report)["max_over_mean"] == 8.0

    def test_grouped_always_exactly_one(self):
        spec = spec64()
        for seed in range(100):
            rng = Rng(seed)
            report = dispatch(
                rng.normal_matrix(64, 16), rng.normal_matrix(64, 16), spec, 8, "grouped"
            )
            assert balance_metrics(report)["max_over_mean"] == 1.0

    def test_empty_dispatch_rejected(self):
        report = LoadReport(np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="nonempty dispatch"):
            balance_metrics(report)


class TestBalanceLoss:
    def test_uniform_is_exactly_one(self):
        # Zero router: uniform probabilities; k = N: uniform assignments.
        spec = MoeLayerSpec(num_experts=64, active_k=64, num_groups=1, model_dim=8, hidden_dim=8)
        loss = balance_loss(Rng(7).normal_matrix(32, 8), np.zeros((64, 8)), spec)
        assert loss == 1.0

    def test_single_expert_maximum(self):
        spec = MoeLayerSpec(num_experts=16, active_k=1, num_groups=1, model_dim=4, hidden_dim=4)
        w = np.zeros((16, 4))
        w[0] = 1000.0
        batch = np.abs(Rng(8).normal_matrix(40, 4)) + 0.1
        assert balance_loss(batch, w, spec) == 16.0

    def test_empty_batch_rejected(self):
        spec = MoeLayerSpec(num_experts=16, active_k=4, num_groups=1, model_dim=8, hidden_dim=8)
        with pytest.raises(ValueError, match="balance loss needs at least one token"):
            balance_loss(np.zeros((0, 8)), np.zeros((16, 8)), spec)

    def test_random_batches_at_least_one(self):
        spec = MoeLayerSpec(num_experts=16, active_k=4, num_groups=1, model_dim=8, hidden_dim=8)
        rng = Rng(9)
        for _ in range(200):
            loss = balance_loss(rng.normal_matrix(64, 8), rng.normal_matrix(16, 8), spec)
            assert loss >= 1.0 - 1e-12


def as_bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


class TestBalanceTrial:
    @pytest.mark.parametrize("mode,groups", [("plain_topk", 1), ("grouped", 8)])
    def test_equals_longhand_dispatch_and_loss_bitwise(self, mode, groups):
        spec = spec64(groups=groups)
        for seed in (0, 5, 2**40 + 3):
            # longhand: router first, then tokens, each routed by its own call
            rng = Rng(seed)
            w = rng.normal_matrix(64, 16)
            batch = rng.normal_matrix(300, 16)
            m = balance_metrics(dispatch(batch, w, spec, 8, mode))
            want = [m["max_over_mean"], m["coefficient_of_variation"], balance_loss(batch, w, spec)]
            row = balance_trial(mode, seed, spec, 8, 300)
            assert (row["mode"], row["T"], row["seed"]) == (mode, 300, seed)
            got = [row["max_over_mean"], row["cv"], row["balance_loss"]]
            assert np.array_equal(as_bits(got), as_bits(want)), seed

    @pytest.mark.parametrize("mode,groups", [("plain_topk", 1), ("grouped", 8)])
    def test_routes_the_batch_once(self, monkeypatch, mode, groups):
        calls = []
        real = epsim.router_probs_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(epsim, "router_probs_batch", counting)
        balance_trial(mode, 1, spec64(groups=groups), 8, 64)
        assert len(calls) == 1

    def test_trials_are_consecutive_seeds(self):
        rows = balance_trials("grouped", 10, spec64(), 8, 32, 3)
        assert [r["seed"] for r in rows] == [10, 11, 12]
        assert rows[1] == balance_trial("grouped", 11, spec64(), 8, 32)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            balance_trials("grouped", 0, spec64(), 8, 32, trials)
