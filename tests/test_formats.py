"""Fuzzed input boundary of the three file formats read from outside the
process: layer checkpoints (MOEC), routing traces (RTRC) and rollout text.

Every input either loads as a valid file (one that re-encodes to the same
content) or raises the format's error: ``CheckpointError``, ``TraceError``
or ``ValueError``. Any other exception fails, and so does a numpy
``RuntimeWarning`` (pytest turns it into an error). Reads of the binary
formats are counted: a rejected header costs at most the header's bytes,
and a payload whose declared size is rejected is never read.
"""

import contextlib
import io
import itertools
import os
import struct
import threading
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import CountingStream, traced_peak
from moelab import replay
from moelab.core import Rng
from moelab.expansion import CheckpointError, load_layer, save_layer
from moelab.replay import RoutingTrace, TraceError, deserialize_trace, load_trace, serialize_trace
from moelab.rlloss import RolloutBatch, dump_batch, load_batch
from moelab.routing import ExpertBank, MoeLayerSpec

U32, U16 = 0xFFFFFFFF, 0xFFFF


def attempt(read, data: bytes, error, label: str):
    """``(read(stream), bytes read)`` for ``data``, with None in place of
    the result when ``read`` raised ``error``."""
    stream = CountingStream(data)
    try:
        return read(stream), stream.bytes_read
    except error:
        return None, stream.bytes_read
    except Exception as exc:  # anything else escaped the format's boundary
        raise AssertionError(f"{label}: {type(exc).__name__}: {exc}") from exc


def layer_bytes(w, bank) -> bytes:
    buf = io.BytesIO()
    save_layer(buf, w, bank)
    return buf.getvalue()


def read_layer(stream) -> bytes:
    return layer_bytes(*load_layer(stream))


@pytest.fixture
def read_trace(monkeypatch):
    """``load_trace`` on a given stream (through a patched ``open``), re-serialized."""
    pending = []
    monkeypatch.setattr(replay, "open", lambda path, mode: pending.pop(), raising=False)

    def read(stream):
        pending.append(stream)
        return serialize_trace(load_trace("fuzz.bin"))

    return read


class Binary(NamedTuple):
    header: struct.Struct
    tops: tuple[int, ...]  # largest value of each header dimension
    error: type
    sample: bytes  # a small valid file
    read: Callable[[io.BytesIO], bytes]  # load, then re-encode


@pytest.fixture(params=["checkpoint", "trace"])
def binary(request, read_trace):
    rng = Rng(40)
    if request.param == "checkpoint":
        spec = MoeLayerSpec(num_experts=2, active_k=1, num_groups=1, model_dim=3, hidden_dim=2)
        sample = layer_bytes(rng.normal_matrix(2, 3), ExpertBank.random(rng, spec))
        return Binary(struct.Struct("<4sHIII"), (U32, U32, U32), CheckpointError, sample, read_layer)
    indices = np.array([[[0, 3], [1, 2]], [[2, 7], [0, 1]], [[4, 5], [3, 6]]], dtype=np.uint16)
    return Binary(struct.Struct("<4sHIIH"), (U32, U32, U16), TraceError,
                  serialize_trace(RoutingTrace(indices)), read_trace)


class TestBinaryBoundary:
    def test_sample_round_trips(self, binary):
        sample = binary.sample
        assert attempt(binary.read, sample, binary.error, "sample") == (sample, len(sample))

    def test_every_truncation_is_rejected_within_the_header(self, binary):
        for cut in range(len(binary.sample)):
            out, used = attempt(binary.read, binary.sample[:cut], binary.error, f"cut {cut}")
            assert out is None, f"cut {cut} loaded"
            assert used <= binary.header.size, f"cut {cut} read {used} bytes"

    def test_every_bit_flip_loads_a_valid_file_or_is_rejected(self, binary):
        header, sample = binary.header, binary.sample
        loaded = 0
        for at, bit in itertools.product(range(len(sample)), range(8)):
            data = bytearray(sample)
            data[at] ^= 1 << bit
            out, used = attempt(binary.read, bytes(data), binary.error, f"byte {at} bit {bit}")
            if at < header.size:  # magic, version or a size field: the frame rejects it
                assert out is None and used <= header.size, f"byte {at} bit {bit}"
            elif out is not None:
                assert out == bytes(data), f"byte {at} bit {bit} loaded other content"
                loaded += 1
        assert 0 < loaded < 8 * (len(sample) - header.size)

    @pytest.mark.parametrize("extra", [0, 64])
    def test_maximal_header_fields(self, binary, extra):
        header = binary.header
        magic, version = header.unpack(binary.sample[: header.size])[:2]
        for fields in itertools.product(*[(0, 1, top) for top in binary.tops]):
            data = header.pack(magic, version, *fields) + bytes(extra)
            out, used = attempt(binary.read, data, binary.error, f"fields {fields} + {extra} bytes")
            if out is None:
                assert used <= header.size, f"fields {fields} read {used} bytes"
            else:
                assert out == data


def test_trace_writer_stops_at_the_header_field(read_trace):
    """A trace of k = 65535 is a valid file; one wider raises the format's
    error, since its header field cannot hold k."""
    widest = serialize_trace(RoutingTrace(np.arange(U16).reshape(1, 1, U16)))
    assert attempt(read_trace, widest, TraceError, "k = 65535") == (widest, len(widest))
    with pytest.raises(TraceError, match=f"trace k {U16 + 1} does not fit"):
        serialize_trace(RoutingTrace(np.arange(U16 + 1).reshape(1, 1, U16 + 1)))


def through_a_pipe(read, data: bytes):
    """``read(fp)`` of the read end of an ``os.pipe()`` that a thread feeds ``data``."""
    r, w = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(w, "wb") as fp:
            fp.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with open(r, "rb") as fp:
            return read(fp)
    finally:
        writer.join(timeout=5)


class TestUnseekableStream:
    """A stream that cannot seek is read at most one byte past the declared
    payload, so it loads as a file does and a crafted header stays bounded."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        # over 1 MiB, so the payload arrives in more than one chunk
        indices = (np.arange(4096 * 8 * 40) % 1000).astype(np.uint16).reshape(4096, 8, 40)
        path = tmp_path_factory.mktemp("pipe") / "trace.bin"
        path.write_bytes(serialize_trace(RoutingTrace(indices)))
        return path

    def test_trace_from_a_pipe_equals_the_file(self, trace_file, read_trace):
        data = trace_file.read_bytes()
        assert through_a_pipe(read_trace, data) == read_trace(open(trace_file, "rb")) == data

    def test_checkpoint_from_a_pipe_equals_the_stream(self):
        rng = Rng(41)
        spec = MoeLayerSpec(num_experts=64, active_k=1, num_groups=1, model_dim=16, hidden_dim=128)
        data = layer_bytes(rng.normal_matrix(64, 16), ExpertBank.random(rng, spec))
        assert through_a_pipe(read_layer, data) == read_layer(io.BytesIO(data)) == data

    @pytest.mark.parametrize("cut, message", [
        (-1, "truncated trace payload: needs 2621440 bytes, got 2621439"),
        (-2621440, "truncated trace payload: needs 2621440 bytes, got 0"),
    ])
    def test_short_pipe_is_rejected(self, trace_file, read_trace, cut, message):
        data = trace_file.read_bytes()[:cut]
        with pytest.raises(TraceError, match=message):
            through_a_pipe(read_trace, data)

    @pytest.mark.parametrize("extra", [1, 8, 1 << 17])
    def test_over_long_pipe_is_rejected(self, trace_file, read_trace, extra):
        data = trace_file.read_bytes() + bytes(extra)
        with pytest.raises(TraceError, match="at least 1 trailing bytes after trace payload"):
            through_a_pipe(read_trace, data)

    @pytest.mark.parametrize("extra", [0, 64])
    def test_crafted_header_allocates_what_the_pipe_holds(self, extra):
        data = struct.pack("<4sHIII", b"MOEC", 1, U32, U32, U32) + bytes(extra)
        def load(fp):  # one chunk of at most 1 MiB is requested, whatever the header declares
            with pytest.raises(CheckpointError, match=f"needs {8 * (U32**2 + 2 * U32**3)} bytes, got {extra}"):
                load_layer(fp)

        _, used = traced_peak(lambda: through_a_pipe(load, data))
        assert used < 4 << 20


SIZES = st.integers(1, 3)


@st.composite
def layers(draw):
    n, d, hidden = draw(SIZES), draw(SIZES), draw(SIZES)
    weights = st.floats(allow_nan=False, allow_infinity=False)
    return (draw(arrays(np.float64, (n, d), elements=weights)),
            ExpertBank(draw(arrays(np.float64, (n, hidden, d), elements=weights)),
                       draw(arrays(np.float64, (n, d, hidden), elements=weights))))


@st.composite
def traces(draw):
    tokens, num_layers, k = draw(st.integers(1, 4)), draw(SIZES), draw(SIZES)
    entry = st.lists(st.integers(0, U16), min_size=k, max_size=k, unique=True).map(sorted)
    entries = draw(st.lists(entry, min_size=tokens * num_layers, max_size=tokens * num_layers))
    return RoutingTrace(np.array(entries, dtype=np.uint16).reshape(tokens, num_layers, k))


@st.composite
def rollouts(draw):
    lens = draw(st.lists(SIZES, min_size=2, max_size=4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    logp = st.floats(max_value=0.0, allow_nan=False)  # -inf is valid outside logp_new

    def blocks(values):
        return [np.array(draw(st.lists(values, min_size=n, max_size=n))) for n in lens]

    return RolloutBatch(
        logp_train=blocks(logp), logp_rollout=blocks(logp),
        logp_new=blocks(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
        logp_old=blocks(logp),
        rewards=np.array(draw(st.lists(finite, min_size=len(lens), max_size=len(lens)))),
    )


def rollout_text(batch) -> str:
    buf = io.StringIO()
    dump_batch(batch, buf)
    return buf.getvalue()


def batch_bits(batch) -> list[bytes]:
    blocks = (batch.logp_train, batch.logp_rollout, batch.logp_new, batch.logp_old)
    return [batch.rewards.tobytes()] + [v.tobytes() for block in blocks for v in block]


class TestRoundTrips:
    @given(layers())
    def test_checkpoint(self, layer):
        w0, bank0 = layer
        data = layer_bytes(w0, bank0)
        w, bank = load_layer(io.BytesIO(data))
        for got, want in ((w, w0), (bank.w_in, bank0.w_in), (bank.w_out, bank0.w_out)):
            assert got.tobytes() == want.tobytes()
        assert layer_bytes(w, bank) == data

    @given(traces())
    def test_trace(self, trace):
        data = serialize_trace(trace)
        again = deserialize_trace(data)
        assert again.indices.tobytes() == trace.indices.tobytes()
        assert serialize_trace(again) == data

    @given(rollouts())
    def test_rollout(self, batch):
        text = rollout_text(batch)
        again = load_batch(io.StringIO(text))
        assert batch_bits(again) == batch_bits(batch)
        assert rollout_text(again) == text


def read_rollout(stream) -> str:
    return rollout_text(load_batch(io.TextIOWrapper(stream, encoding="utf-8")))


ROLLOUT = "0.5 1 -0.25 -0.5 -0.75 -1.0\n-1.5 2 -0.125 -inf -2.0 -0.5 -3.0 -1e-300 -4.0 -5e-324\n"


class TestRolloutBoundary:
    def check(self, data: bytes, label: str) -> bool:
        """Whether ``data`` loaded; a loaded batch must be a valid file's."""
        out, _ = attempt(read_rollout, data, ValueError, label)
        if out is not None:
            assert read_rollout(io.BytesIO(out.encode())) == out, label
        return out is not None

    def test_sample_loads(self):
        assert self.check(ROLLOUT.encode(), "sample")

    def test_every_truncation(self):
        data = ROLLOUT.encode()
        for cut in range(len(data)):
            self.check(data[:cut], f"cut {cut}")

    def test_every_bit_flip(self):
        loaded = 0
        for at, bit in itertools.product(range(len(ROLLOUT)), range(8)):
            data = bytearray(ROLLOUT.encode())
            data[at] ^= 1 << bit
            loaded += self.check(bytes(data), f"byte {at} bit {bit}")
        assert 0 < loaded < 8 * len(ROLLOUT)

    @pytest.mark.parametrize("line", [
        f"0.5 {U32} -0.5 -0.5 -0.5 -0.5",  # declared count far above the fields given
        "0.5 " + "9" * 5000 + " -0.5",  # count beyond int()'s digit limit
        "0.5 -1 -0.5 -0.5 -0.5 -0.5",
        "0.5 0",
        "1e309 1 -0.5 -0.5 -0.5 -0.5",  # reward overflows to inf
        "0.5 1 -0.5 -0.5 -1e309 -0.5",  # new log-prob overflows to -inf
    ])
    def test_extreme_fields_are_rejected(self, line):
        data = f"{line}\n0.25 1 -0.5 -0.5 -0.5 -0.5\n".encode()
        assert not self.check(data, line)
