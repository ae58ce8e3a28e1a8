import math
import struct

import numpy as np
import pytest

from helpers import CountingStream
from moelab import replay
from moelab.cli import run
from moelab.core import Rng
from moelab.replay import (
    RoutingTrace,
    TraceError,
    deserialize_trace,
    load_trace,
    record_trace,
    replay_select,
    save_trace,
    serialize_trace,
)
from moelab.routing import MoeLayerSpec, route_token, router_probs


def make_layers(rng, num_layers=3, n=8, d=5, k=2, groups=1):
    spec = MoeLayerSpec(num_experts=n, active_k=k, num_groups=groups, model_dim=d, hidden_dim=2 * d)
    return [(rng.normal_matrix(n, d), spec) for _ in range(num_layers)]


class TestRecordTrace:
    def test_single_token_single_layer(self):
        rng = Rng(1)
        layers = make_layers(rng, num_layers=1)
        x = rng.normal(5)
        trace = record_trace(x[None, :], layers, "plain_topk")
        live = route_token(x, layers[0][0], layers[0][1])
        assert np.array_equal(trace.entry(0, 0), live.selected)

    def test_rerecording_is_bit_identical(self):
        rng = Rng(2)
        layers = make_layers(rng)
        batch = rng.normal_matrix(20, 5)
        a = record_trace(batch, layers, "grouped")
        b = record_trace(batch, layers, "grouped")
        assert np.array_equal(a.indices, b.indices)

    def test_matches_per_token_recompute(self):
        rng = Rng(3)
        layers = make_layers(rng, num_layers=4)
        batch = rng.normal_matrix(100, 5)
        trace = record_trace(batch, layers, "plain_topk")
        for t in range(100):
            for l, (w, spec) in enumerate(layers):
                live = route_token(batch[t], w, spec)
                assert np.array_equal(trace.entry(t, l), live.selected)

    def test_mixed_k_rejected(self):
        rng = Rng(4)
        s2 = MoeLayerSpec(num_experts=8, active_k=2, num_groups=1, model_dim=5, hidden_dim=10)
        s3 = MoeLayerSpec(num_experts=8, active_k=3, num_groups=1, model_dim=5, hidden_dim=10)
        layers = [(rng.normal_matrix(8, 5), s2), (rng.normal_matrix(8, 5), s3)]
        with pytest.raises(ValueError, match="share one k"):
            record_trace(rng.normal_matrix(4, 5), layers)

    def test_expert_count_beyond_u16_rejected(self):
        # A zero router selects expert 0, which the trace could hold: only
        # the cap rejects the layer whatever the seed selects.
        n = replay.MAX_EXPERTS + 1
        spec = MoeLayerSpec(num_experts=n, active_k=1, num_groups=1, model_dim=2, hidden_dim=2)
        with pytest.raises(ValueError, match="trace format caps experts at 65536"):
            record_trace(np.ones((1, 2)), [(np.zeros((n, 2)), spec)])


class TestReplaySelect:
    def test_identical_router_reproduces_live_decision(self):
        rng = Rng(5)
        layers = make_layers(rng, num_layers=1)
        w, spec = layers[0]
        x = rng.normal(5)
        trace = record_trace(x[None, :], layers)
        p = router_probs(x, w)
        replayed = replay_select(trace, 0, 0, p)
        live = route_token(x, w, spec)
        assert np.array_equal(replayed.selected, live.selected)
        assert np.allclose(replayed.gates, live.gates, atol=1e-15)
        assert np.allclose(replayed.probs, live.probs, atol=1e-15)

    def test_perturbed_router_keeps_recorded_selection(self):
        rng = Rng(6)
        layers = make_layers(rng, num_layers=2)
        batch = rng.normal_matrix(30, 5)
        trace = record_trace(batch, layers)
        for t in range(30):
            for l, (w, spec) in enumerate(layers):
                direction = rng.normal_matrix(*w.shape)
                direction /= np.linalg.norm(direction)
                scale = 10.0 * np.linalg.norm(w) * rng.uniform(1)[0]
                w_pert = w + direction * scale
                p = router_probs(batch[t], w_pert)
                replayed = replay_select(trace, t, l, p)
                assert np.array_equal(replayed.selected, trace.entry(t, l))

    def test_forced_selection_beats_live_argmax_flip(self):
        rng = Rng(7)
        layers = make_layers(rng, num_layers=1, groups=2)
        w, spec = layers[0]
        x = rng.normal(5)
        trace = record_trace(x[None, :], layers, "grouped")
        # negating the router reverses every score ordering
        p_flipped = router_probs(x, -w)
        live_flipped = route_token(x, -w, spec, "grouped")
        replayed = replay_select(trace, 0, 0, p_flipped)
        assert np.array_equal(replayed.selected, trace.entry(0, 0))
        assert not np.array_equal(live_flipped.selected, replayed.selected)

    def test_gates_follow_current_probs(self):
        rng = Rng(8)
        layers = make_layers(rng, num_layers=1)
        w, spec = layers[0]
        x = rng.normal(5)
        trace = record_trace(x[None, :], layers)
        w2 = w + rng.normal_matrix(8, 5)
        p2 = router_probs(x, w2)
        replayed = replay_select(trace, 0, 0, p2)
        s = trace.entry(0, 0)
        want = p2[s] / p2[s].sum()
        assert np.array_equal(replayed.gates.view(np.uint64), want.view(np.uint64))

    # Every column is checked, inside the replayed set [0, 2] or not.
    @pytest.mark.parametrize(
        "col", [1, 0, 2], ids=["unselected", "first_selected", "last_selected"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_current_probs_rejected(self, bad, col):
        # A NaN sum passes any tolerance test, so finiteness is checked first.
        trace = RoutingTrace(indices=np.array([[[0, 2]]], dtype=np.uint16))
        p = np.array([0.25, 0.0, 0.25, 0.5])
        p[col] = bad
        with pytest.raises(ValueError, match=f"non-finite probability .* column {col}"):
            replay_select(trace, 0, 0, p)

    @pytest.mark.parametrize("p, match", [
        # finite and summing to 1: only a sign check rejects these two
        ([2.0, -1.0, 0.0, 0.0], r"negative probability -1.0 at index 1"),
        ([0.0, 2.0, -1.0, 0.0], r"negative probability -1.0 at index 2"),
        ([0.5, 0.4, 0.2, 0.0], "probs must sum to 1 within 1e-12"),
    ], ids=["negative", "negative_selected", "bad_sum"])
    def test_bad_current_probs_rejected(self, p, match):
        trace = RoutingTrace(indices=np.array([[[0, 2]]], dtype=np.uint16))
        with pytest.raises(ValueError, match=match):
            replay_select(trace, 0, 0, p)

    def test_negative_zero_is_not_negative(self):
        trace = RoutingTrace(indices=np.array([[[0, 1]]], dtype=np.uint16))
        d = replay_select(trace, 0, 0, [-0.0, 1.0, 0.0])
        assert np.array_equal(d.gates, [-0.0, 1.0]) and np.signbit(d.gates[0])
        assert np.array_equal(replay_select(trace, 0, 0, [0.5, 0.5, -0.0]).gates, [0.5, 0.5])

    def test_missing_entry_raises(self):
        rng = Rng(10)
        layers = make_layers(rng, num_layers=2)
        trace = record_trace(rng.normal_matrix(5, 5), layers)
        with pytest.raises(TraceError, match="no trace entry"):
            replay_select(trace, 5, 0, np.full(8, 1 / 8))
        with pytest.raises(TraceError, match="no trace entry"):
            replay_select(trace, 0, 2, np.full(8, 1 / 8))

    @pytest.mark.parametrize("entry", [[1, 4], [2, 7]])
    def test_entry_beyond_current_experts_raises(self, entry):
        trace = RoutingTrace(indices=np.array([[entry]], dtype=np.uint16))
        with pytest.raises(TraceError, match=f"references expert {entry[-1]} but only 4"):
            replay_select(trace, 0, 0, np.full(4, 0.25))

    def test_zero_mass_on_frozen_set_raises(self):
        trace = RoutingTrace(indices=np.array([[[0, 1]]], dtype=np.uint16))
        p = np.array([0.0, 0.0, 0.6, 0.4])
        with pytest.raises(ValueError, match="zero probability mass"):
            replay_select(trace, 0, 0, p)


class TestTraceSerialization:
    def test_round_trip_identity(self):
        rng = Rng(11)
        layers = make_layers(rng, num_layers=4, k=2)
        trace = record_trace(rng.normal_matrix(64, 5), layers, "plain_topk")
        again = deserialize_trace(serialize_trace(trace))
        assert np.array_equal(trace.indices, again.indices)

    def test_size_arithmetic(self):
        indices = np.tile(np.arange(8, dtype=np.uint16), (1000, 4, 1))
        blob = serialize_trace(RoutingTrace(indices=indices))
        assert len(blob) == 16 + 1000 * 4 * 8 * 2

    def test_truncation_categories(self):
        rng = Rng(12)
        layers = make_layers(rng, num_layers=2)
        blob = serialize_trace(record_trace(rng.normal_matrix(6, 5), layers))
        with pytest.raises(TraceError, match="truncated trace header"):
            deserialize_trace(blob[:10])
        with pytest.raises(TraceError, match="truncated trace payload"):
            deserialize_trace(blob[:-2])
        with pytest.raises(TraceError, match="bad trace magic"):
            deserialize_trace(b"XXXX" + blob[4:])
        with pytest.raises(TraceError, match="unsupported trace version"):
            deserialize_trace(blob[:4] + b"\x09\x00" + blob[6:])
        with pytest.raises(TraceError, match="trailing"):
            deserialize_trace(blob + b"\x00\x00")

    def test_file_round_trip(self, tmp_path):
        rng = Rng(13)
        layers = make_layers(rng, num_layers=3)
        trace = record_trace(rng.normal_matrix(16, 5), layers, "grouped")
        path = tmp_path / "trace.bin"
        save_trace(path, trace)
        assert np.array_equal(load_trace(path).indices, trace.indices)

    def test_trace_validation(self):
        with pytest.raises(TraceError, match="ascending"):
            RoutingTrace(indices=np.array([[[1, 0]]], dtype=np.uint16))

    # A repeated index is ascending but not strictly: only distinct indices pass.
    def test_repeated_index_rejected(self):
        with pytest.raises(TraceError, match="distinct ascending"):
            RoutingTrace(indices=[[[3, 3]]])

    def test_two_dimensional_indices_rejected(self):
        with pytest.raises(TraceError, match=r"trace indices must be \(tokens, layers, k\)"):
            RoutingTrace(indices=np.zeros((2, 2), dtype=np.uint16))


class TestTraceHeaderFields:
    """The u16 header field caps k at 65535: a wider trace is refused before
    anything is written, and the widest it holds round-trips bit for bit."""

    @staticmethod
    def full(k):
        return RoutingTrace(indices=np.arange(k).reshape(1, 1, k))

    def test_k_beyond_u16_refused(self, tmp_path):
        trace = self.full(65536)
        with pytest.raises(TraceError, match="^trace k 65536 does not fit its u16 header field$"):
            serialize_trace(trace)
        path = tmp_path / "wide.bin"
        with pytest.raises(TraceError, match="^trace k 65536 does not fit its u16 header field$"):
            save_trace(path, trace)
        assert not path.exists()

    def test_widest_k_round_trips(self, tmp_path):
        trace = self.full(65535)
        path = tmp_path / "widest.bin"
        save_trace(path, trace)
        blob = path.read_bytes()
        assert blob == serialize_trace(trace)
        assert blob[:16] == struct.pack("<4sHIIH", b"RTRC", 1, 1, 1, 65535)
        assert load_trace(path).indices.tobytes() == trace.indices.tobytes()


class TestLoadTraceBounded:
    HEADER = 16  # magic, u16 version, u32 tokens, u32 layers, u16 k

    def load_from(self, monkeypatch, data: bytes):
        stream = CountingStream(data)
        monkeypatch.setattr(replay, "open", lambda path, mode: stream, raising=False)
        return stream

    def test_zeros_rejected_after_the_header(self, monkeypatch):
        stream = self.load_from(monkeypatch, bytes(1 << 20))
        with pytest.raises(TraceError, match="bad trace magic"):
            load_trace("zeros.bin")
        assert stream.bytes_read <= self.HEADER

    def test_oversized_declaration_rejected_before_the_payload(self, monkeypatch):
        header = struct.pack("<4sHIIH", b"RTRC", 1, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF)
        stream = self.load_from(monkeypatch, header + bytes(64))
        with pytest.raises(TraceError, match="truncated trace payload.* got 64"):
            load_trace("crafted.bin")
        assert stream.bytes_read <= self.HEADER

    def test_trailing_bytes_rejected(self, monkeypatch):
        trace = RoutingTrace(indices=np.array([[[0, 3]]], dtype=np.uint16))
        self.load_from(monkeypatch, serialize_trace(trace) + b"\x00")
        with pytest.raises(TraceError, match="1 trailing bytes"):
            load_trace("trailing.bin")

    def test_valid_file_reads_exactly_its_bytes(self, monkeypatch):
        rng = Rng(14)
        trace = record_trace(rng.normal_matrix(9, 5), make_layers(rng, num_layers=2))
        blob = serialize_trace(trace)
        stream = self.load_from(monkeypatch, blob)
        assert np.array_equal(load_trace("ok.bin").indices, trace.indices)
        assert stream.bytes_read == len(blob)


class TestTraceIndexRange:
    """Indices the u16 trace cannot hold are rejected, not wrapped or truncated."""

    @pytest.mark.parametrize("indices,bad", [
        ([[[-1]]], "-1"),
        ([[[3, 70000]]], "70000"),
        ([[[1.7, 2.2]]], "1.7"),
        ([[[65536]]], "65536"),
    ])
    def test_unrepresentable_index_is_named(self, indices, bad):
        with pytest.raises(TraceError, match=rf"trace index {bad} is not an integer in \[0, 65536\)"):
            RoutingTrace(indices=np.array(indices))

    def test_largest_index_is_kept(self):
        trace = RoutingTrace(indices=np.array([[[0, 65535]]]))
        assert trace.indices.dtype == np.uint16
        assert trace.entry(0, 0).tolist() == [0, 65535]


class TestReplayVerifyRoundTrip:
    """Without --replay-trace the replayed trace is the recorded one after a
    codec round trip, so a codec that changes one index is one mismatch."""

    ARGS = dict(mode="plain_topk", num_tokens=6, num_layers=2, perturb=0.0, seed=3)

    @staticmethod
    def corrupt_codec(monkeypatch):
        real = replay.deserialize_trace

        def deserialize_one_off(blob):
            indices = real(blob).indices.astype(np.int64)
            indices[4, 1, 0] = (indices[4, 1, 0] + 1) % 8  # k = 1 of 8 experts
            return RoutingTrace(indices=indices)

        monkeypatch.setattr(replay, "deserialize_trace", deserialize_one_off)

    def test_corrupted_round_trip_is_one_mismatch(self, monkeypatch):
        spec = MoeLayerSpec(num_experts=8, active_k=1, num_groups=1, model_dim=4, hidden_dim=8)
        assert replay.replay_verify(spec, **self.ARGS)["mismatches"] == 0
        self.corrupt_codec(monkeypatch)
        assert replay.replay_verify(spec, **self.ARGS)["mismatches"] == 1

    def test_corrupted_round_trip_fails_the_cli(self, monkeypatch, tmp_path, capsys):
        argv = ["replay-verify", "--mode", "plain_topk", "--tokens", "6", "--layers", "2",
                "--experts", "8", "--k", "1", "--groups", "1", "--dim", "4", "--perturb", "0",
                "--seed", "3", "--out", str(tmp_path / "o.csv")]
        assert run(argv) == 0
        self.corrupt_codec(monkeypatch)
        assert run(argv) == 1
        assert capsys.readouterr().err == "replay-verify: 1 of 12 selections diverged\n"


class TestReplayVerifyBatched:
    def test_each_layer_replays_as_one_batch(self, monkeypatch):
        # No per-token replay: one probability matrix per layer to record
        # the trace and one per layer to replay it.
        rows = []
        real = replay.router_probs_batch

        def counted(tokens, w):
            rows.append(len(tokens))
            return real(tokens, w)

        def per_token(*args):
            raise AssertionError("replay_verify replayed a single token")

        monkeypatch.setattr(replay, "router_probs_batch", counted)
        monkeypatch.setattr(replay, "replay_select", per_token)
        monkeypatch.setattr(RoutingTrace, "entry", per_token)
        spec = MoeLayerSpec(num_experts=16, active_k=4, num_groups=2, model_dim=6, hidden_dim=12)
        row = replay.replay_verify(spec, "grouped", 20, 3, 10.0, 5)
        assert row["checked"] == 60 and row["mismatches"] == 0
        assert rows == [20] * 6

