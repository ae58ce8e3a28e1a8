"""Reference-precision numeric substrate.

Everything downstream computes in float64. Vectors and matrices are plain
numpy arrays (row-major, C order); the helpers here coerce and validate
them, and :func:`softmax` / :func:`log_softmax` are the package's only
normalizers (last axis, max-shifted); each allocates one full-size array,
its output, and :func:`softmax` none when given ``out``. Randomness comes
from :class:`Rng`, a counter-based generator whose output stream depends
only on ``(seed, counter)`` so test vectors are portable across platforms
and languages. The stream is one formula evaluated at given counters, so
any stretch of it can be computed from its counters alone: a draw is
generated in fixed-size blocks and needs memory proportional to its
output, and a normal draw can be reserved now (:meth:`Rng.normal_draw`,
a :class:`NormalDraw`) and evaluated later at just the positions needed.
:func:`finite_diff_grad` is the independent oracle every analytic-gradient
rule in this package is checked against. A :class:`_Format` is the one
writer and reader of a binary file layout (checkpoints, traces).
"""

from __future__ import annotations

import io
import math
import struct
from collections.abc import Callable, Sequence
from typing import BinaryIO, NamedTuple

import numpy as np

__all__ = [
    "Rng", "NormalDraw", "finite_diff_grad", "as_vector", "as_matrix", "softmax", "log_softmax",
]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
# Values per generation block. A normal block holds at most five
# block-sized temporaries at once (its positions, two counters per value
# and their shift buffer: 640 KiB), a uniform block two. With three
# (384 KiB), 2**21-value draws took ~8% less time per value than at 8192,
# and 32768 only ~3% less again; with five, 8192, 16384 and 32768 measured
# within run-to-run noise.
_BLOCK = 16384


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce to a 1-D float64 array; reject anything of other rank."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def as_matrix(x, name: str = "m") -> np.ndarray:
    """Coerce to a 2-D float64 array; reject anything of other rank."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _mix(seed: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Finalize a ``uint64`` array of counters, in place, into their draws
    and return it: the one statement of the stream formula in :class:`Rng`.
    ``(i + 1) * golden + seed`` is computed as ``i * golden + (golden + seed)``,
    the same value modulo 2**64."""
    z = counters
    t = np.empty_like(z)
    z *= _GOLDEN  # uint64 arrays wrap modulo 2**64
    z += _U64((int(seed) + int(_GOLDEN)) & 0xFFFFFFFFFFFFFFFF)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _unit(z: np.ndarray, out: np.ndarray) -> None:
    """Write the uniform doubles in [0, 1) of draws ``z`` (their top 53
    bits) into ``out``; ``z`` is shifted in place."""
    z >>= _U64(11)
    np.multiply(z, 2.0**-53, out=out)


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, shifted by the row max for stability.

    The shifted copy is the only full-size array: it becomes the output.
    ``out`` follows numpy's convention: given an array of ``z``'s shape and
    dtype (``z`` itself included), the shifted copy is written into it and
    returned, and no full-size array is allocated. The bits are the same."""
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis: ``z - logsumexp(z)``, max-shifted.

    The shifted copy is the only full-size array: it becomes the output."""
    m = z.max(axis=-1, keepdims=True)
    e = z - m
    np.exp(e, out=e)
    return np.subtract(z, m + np.log(e.sum(axis=-1, keepdims=True)), out=e)


class NormalDraw(NamedTuple):
    """A reserved ``Rng.normal(n)`` draw: the counters are claimed, and any
    of its values can be evaluated later from them alone.

    Value ``j`` is Box-Muller on the uniforms of counters ``start + j`` and
    ``start + n + j`` of the stream ``seed``, so :meth:`at` computes only
    the positions it is asked for, bit for bit what ``normal(n)`` holds there.
    """

    seed: np.uint64
    start: int
    n: int

    def at(self, positions) -> np.ndarray:
        """``normal(n)[positions]`` for integer positions in ``[0, n)`` of any
        shape, unsorted or repeated; the values elsewhere are not computed."""
        p = np.asarray(positions, dtype=np.int64)
        if p.size and (p.min() < 0 or p.max() >= self.n):
            raise ValueError(f"positions must lie in [0, {self.n})")
        out = np.empty(p.shape)
        self._fill(p.astype(np.uint64).ravel(), out.reshape(-1))
        return out

    def _fill(self, positions: np.ndarray, out: np.ndarray) -> None:
        """Write the values at 1-D in-range ``uint64`` ``positions`` into
        ``out``: the one statement of Box-Muller. Both uniform halves come
        from one :func:`_mix` over the positions' two counters each."""
        b = positions.size
        z = np.empty(2 * b, dtype=np.uint64)
        np.add(positions, _U64(self.start), out=z[:b])
        np.add(positions, _U64(self.start + self.n), out=z[b:])
        _mix(self.seed, z)
        r = np.empty(b)
        _unit(z[:b], r)
        _unit(z[b:], out)
        # 1 - u1 lies in (0, 1], keeping the log argument strictly positive.
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        out *= 2.0 * np.pi
        np.cos(out, out=out)
        out *= r


class Rng:
    """Deterministic counter-based random generator.

    The stream is a pure function of ``(seed, counter)``: draw number ``i``
    (zero-based, over the generator's lifetime) is produced by SplitMix64
    finalization of ``seed + (i + 1) * 0x9E3779B97F4A7C15`` in 64-bit
    modular arithmetic::

        z  = seed + (i + 1) * 0x9E3779B97F4A7C15        (mod 2**64)
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9           (mod 2**64)
        z ^= z >> 27;  z *= 0x94D049BB133111EB           (mod 2**64)
        z ^= z >> 31

    Uniform doubles take the top 53 bits: ``(z >> 11) * 2**-53``, giving
    values in [0, 1). Normal deviates use Box-Muller on consecutive uniform
    blocks (``normal(n)`` consumes exactly ``2 * n`` counter values: value
    ``j`` pairs draw ``start + j`` with draw ``start + n + j``).

    Since any draw is computed from its counter alone, each call reserves
    its counter range and then fills a preallocated output in blocks of
    ``_BLOCK`` values. The stream does not depend on the block size, and a
    call needs the memory of its output plus a few block-sized temporaries.
    :meth:`normal_draw` reserves the counters of ``normal(n)`` without
    drawing; ``normal(n)`` is that reserved draw evaluated block by block.

    Instances are single-owner mutable state; never share one across
    threads. Identical seeds replay identical streams bit-for-bit.
    """

    def __init__(self, seed: int):
        self._seed = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    @property
    def counter(self) -> int:
        """Number of 64-bit draws consumed so far."""
        return self._counter

    def _reserve(self, n: int) -> int:
        """Claim the next ``n`` counters; returns the first."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        start = self._counter
        self._counter += n
        return start

    def uniform(self, n: int) -> np.ndarray:
        """n deterministic doubles in [0, 1)."""
        start = self._reserve(n)
        out = np.empty(n)
        for s in range(0, n, _BLOCK):
            o = out[s : s + _BLOCK]
            _unit(_mix(self._seed, np.arange(start + s, start + s + o.size, dtype=np.uint64)), o)
        return out

    def normal_draw(self, n: int) -> NormalDraw:
        """Reserve the 2n counters of ``normal(n)`` and draw nothing yet: the
        returned record evaluates any of the n values later, on demand."""
        start = self._reserve(n)
        self._reserve(n)
        return NormalDraw(self._seed, start, n)

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal deviates via Box-Muller (consumes 2n draws): the
        reserved draw evaluated block by block."""
        draw = self.normal_draw(n)
        out = np.empty(n)
        for s in range(0, n, _BLOCK):
            o = out[s : s + _BLOCK]
            draw._fill(np.arange(s, s + o.size, dtype=np.uint64), o)
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) matrix of ``normal(rows * cols)``, row-major.

        A negative dimension is rejected before any counter is reserved."""
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix shape must be nonnegative, got {(rows, cols)}")
        return self.normal(rows * cols).reshape(rows, cols)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform over [0, bound), by scaled uniforms."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Per coordinate j: ``(f(x + h*e_j) - f(x - h*e_j)) / (2h)``. This is the
    reference oracle for every hand-derived backward rule in the package,
    so it deliberately shares no code with them.

    Raises ValueError if any probe evaluation of ``f`` is non-finite
    (an oracle failure, not a gradient of the target function).
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x0 = as_vector(x, "x")
    grad = np.empty_like(x0)
    for j in range(x0.size):
        xp = x0.copy()
        xp[j] = x0[j] + h
        fp = float(f(xp))
        xp[j] = x0[j] - h
        fm = float(f(xp))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(
                f"finite-difference oracle failure: f non-finite at coordinate {j} "
                f"(f+={fp!r}, f-={fm!r})"
            )
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


class _Format(NamedTuple):
    """A binary file layout, declared once: a little-endian header (``magic``,
    version u16, one nonzero field per ``dims`` entry, name -> struct code),
    then the arrays ``shapes(*dims)`` in order as row-major ``dtype``, which
    end the file. :meth:`write` and :meth:`read` follow the declaration
    alone; each failure raises ``error`` naming the format and the check."""

    name: str
    error: type[ValueError]
    magic: bytes
    version: int
    dims: dict[str, str]
    dtype: str
    shapes: Callable[..., list[tuple[int, ...]]]

    def write(self, fp: BinaryIO, dims: Sequence[int], arrays: Sequence[np.ndarray]) -> None:
        """Write the header of ``dims``, then each array. A zero dimension, or
        one its header field cannot hold, is refused before any byte."""
        if not all(dims):  # read refuses a zero dimension
            raise self.error(f"{self.name} would declare a zero dimension: {tuple(dims)}")
        for (field, code), value in zip(self.dims.items(), dims):
            bits = 8 * struct.calcsize("<" + code)
            if value >= 1 << bits:
                raise self.error(f"{self.name} {field} {value} does not fit its u{bits} header field")
        fp.write(struct.pack("<4sH" + "".join(self.dims.values()), self.magic, self.version, *dims))
        for a in arrays:
            fp.write(np.ascontiguousarray(a, dtype=self.dtype).tobytes())

    def read(self, fp: BinaryIO) -> list[np.ndarray]:
        """The flat payload, then an owned native-order copy of each array, of a
        file filling ``fp`` from its position. The declared size is checked
        against the bytes left before the payload is read (a stream that
        cannot seek is read up to one byte past it), so a crafted header
        cannot make the reader allocate more than the input holds; bytes
        after the payload are rejected."""
        header = struct.Struct("<4sH" + "".join(self.dims.values()))
        raw = fp.read(header.size)
        if len(raw) < header.size:
            raise self.error(f"truncated {self.name} header: needs {header.size} bytes, got {len(raw)}")
        magic, version, *dims = header.unpack(raw)
        if magic != self.magic:
            raise self.error(f"bad {self.name} magic {magic!r}")
        if version != self.version:
            raise self.error(f"unsupported {self.name} version {version}")
        if not all(dims):  # an empty record would reshape to dimensions no array can hold
            raise self.error(f"{self.name} header declares a zero dimension: {tuple(dims)}")
        shapes = self.shapes(*dims)
        counts = [math.prod(shape) for shape in shapes]
        size = np.dtype(self.dtype).itemsize * sum(counts)
        seekable = fp.seekable()
        if seekable:
            start = fp.tell()
            available = fp.seek(0, io.SEEK_END) - start
            fp.seek(start)
        else:  # read(n) allocates n bytes first: at most one byte past the payload, 1 MiB at a time
            data = bytearray()
            while len(data) <= size and (chunk := fp.read(min(size + 1 - len(data), 1 << 20))):
                data += chunk
            available = len(data)
        if size > available:
            raise self.error(f"truncated {self.name} payload: needs {size} bytes, got {available}")
        if size < available:
            at_least = "" if seekable else "at least "
            raise self.error(f"{at_least}{available - size} trailing bytes after {self.name} payload")
        flat = np.frombuffer(fp.read(size) if seekable else data, dtype=self.dtype)
        parts = np.split(flat, np.cumsum(counts)[:-1])
        return [flat] + [part.reshape(shape).astype(flat.dtype.newbyteorder("="))
                         for part, shape in zip(parts, shapes)]
