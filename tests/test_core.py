import math

import numpy as np
import pytest
from helpers import traced_peak

from moelab.core import _BLOCK, Rng, as_matrix, as_vector, finite_diff_grad, log_softmax, softmax

MASK64 = (1 << 64) - 1


def _reference_draw(seed: int, i: int) -> int:
    # Independent pure-int re-implementation of the documented mixing recipe.
    z = (seed + ((i + 1) * 0x9E3779B97F4A7C15)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _unblocked_draws(seed: int, start: int, n: int) -> np.ndarray:
    # Reference: the documented recipe with one full-length pass per step,
    # no blocks.
    idx = np.arange(start, start + n, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unblocked_uniform(seed: int, start: int, n: int) -> np.ndarray:
    return (_unblocked_draws(seed, start, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _unblocked_normal(seed: int, start: int, n: int) -> np.ndarray:
    u1 = _unblocked_uniform(seed, start, n)
    u2 = _unblocked_uniform(seed, start + n, n)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).uniform(8)
        b = Rng(42).uniform(8)
        assert np.array_equal(a, b)

    def test_zero_draws(self):
        assert Rng(1).uniform(0).shape == (0,)

    def test_matches_pure_int_reference(self):
        for seed in (0, 1, 42, 2**63 + 17):
            got = Rng(seed).uniform(16)
            want = np.array(
                [(_reference_draw(seed, i) >> 11) * 2.0**-53 for i in range(16)]
            )
            assert np.array_equal(got, want)

    def test_counter_advances_across_calls(self):
        rng = Rng(9)
        first = rng.uniform(4)
        second = rng.uniform(4)
        whole = Rng(9).uniform(8)
        assert np.array_equal(np.concatenate([first, second]), whole)
        assert rng.counter == 8

    def test_uniform_range_and_mean(self):
        u = Rng(7).uniform(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        # Binomial-variance tolerance: sd of the mean is ~1/sqrt(12 n) ~ 0.003.
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments_and_determinism(self):
        rng = Rng(123)
        z = rng.normal(20_000)
        assert rng.counter == 40_000
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03
        assert np.array_equal(z, Rng(123).normal(20_000))

    def test_integers_bounds(self):
        v = Rng(5).integers(1000, 7)
        assert v.min() >= 0 and v.max() <= 6
        with pytest.raises(ValueError, match="bound must be positive"):
            Rng(5).integers(3, 0)

    def test_negative_count_rejected(self):
        for draw in (Rng(0).uniform, Rng(0).normal, Rng(0).normal_draw,
                     lambda n: Rng(0).integers(n, 3)):
            with pytest.raises(ValueError, match="draw count must be >= 0, got -1"):
                draw(-1)

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_reserved_position_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"positions must lie in \[0, 8\)"):
            Rng(0).normal_draw(8).at([0, bad])

    @pytest.mark.parametrize("rows, cols", [(-2, -3), (-1, 16), (3, -1)])
    def test_negative_matrix_shape_reserves_nothing(self, rows, cols):
        rng = Rng(0)
        with pytest.raises(ValueError, match=rf"matrix shape must be nonnegative, got \({rows}, {cols}\)"):
            rng.normal_matrix(rows, cols)
        assert rng.counter == 0


class TestBlockedGeneration:
    """Block generation against the unblocked algorithm, bit for bit, at
    sizes around the block boundary, from a nonzero starting counter, with
    the three methods interleaved on one generator, and a reserved normal
    draw evaluated at chosen positions."""

    SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]

    @staticmethod
    def assert_bitwise(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_interleaved_calls_match_unblocked_stream(self, seed):
        rng = Rng(seed)
        start = 5
        rng.uniform(start)
        for n in self.SIZES:
            self.assert_bitwise(rng.uniform(n), _unblocked_uniform(seed, start, n))
            start += n
            self.assert_bitwise(rng.normal(n), _unblocked_normal(seed, start, n))
            start += 2 * n
            want = np.minimum((_unblocked_uniform(seed, start, n) * 1000).astype(np.int64), 999)
            self.assert_bitwise(rng.integers(n, 1000), want)
            start += n
            assert rng.counter == start

    # A reserved normal draw, whole and at unsorted, repeated positions of
    # any shape, evaluated after a later draw; the counter moves as normal(n).
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    @pytest.mark.parametrize("n", SIZES)
    def test_reserved_normal_matches_unblocked_stream(self, seed, n):
        rng = Rng(seed)
        rng.uniform(5)
        draw = rng.normal_draw(n)
        twin = Rng(seed)
        twin.uniform(5)
        twin.normal(n)
        assert rng.counter == twin.counter == 5 + 2 * n
        self.assert_bitwise(rng.normal(3), twin.normal(3))
        want = _unblocked_normal(seed, 5, n)
        self.assert_bitwise(draw.at(np.arange(n)), want)
        if n:
            scattered = Rng(1).integers(3 * n + 1, n)  # unsorted, and repeats by pigeonhole
            self.assert_bitwise(draw.at(scattered), want[scattered])
            grid = scattered[: 2 * (scattered.size // 2)].reshape(2, -1)
            self.assert_bitwise(draw.at(grid), want[grid])

    # Only a few block-sized temporaries may exist next to the output;
    # full-length temporaries would take about 5x the output.
    def test_normal_peak_memory_is_its_output(self):
        out, peak = traced_peak(lambda: Rng(0).normal(1 << 20))
        assert peak <= out.nbytes + (1 << 20)


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), [3.0], h=1e-5)
        assert abs(g[0] - 6.0) <= 1e-8

    def test_constant_is_zero(self):
        g = finite_diff_grad(lambda v: 4.25, np.ones(5))
        assert np.array_equal(g, np.zeros(5))

    def test_sine_at_origin(self):
        g = finite_diff_grad(lambda v: math.sin(v[0]), [0.0], h=1e-5)
        assert abs(g[0] - 1.0) <= 1e-9

    def test_cubic_polynomials_relative_error(self):
        # Degree <= 3 polynomials against their analytic derivatives.
        rng = Rng(77)
        for _ in range(20):
            c = rng.normal(4)
            x = rng.normal(3)

            def f(v):
                s = v.sum()
                return float(c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3)

            s0 = x.sum()
            analytic = np.full(3, c[1] + 2 * c[2] * s0 + 3 * c[3] * s0**2)
            got = finite_diff_grad(f, x, h=1e-5)
            denom = max(np.linalg.norm(analytic), 1e-30)
            assert np.linalg.norm(got - analytic) / denom <= 1e-7

    def test_nonfinite_probe_reported(self):
        with pytest.raises(ValueError, match="oracle failure"):
            finite_diff_grad(lambda v: float("nan"), [1.0])

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step size must be positive"):
            finite_diff_grad(lambda v: 0.0, [1.0], h=0.0)


class TestCoercion:
    def test_vector_rank_enforced(self):
        with pytest.raises(ValueError, match="x must be 1-D"):
            as_vector([[1.0, 2.0]])

    def test_matrix_rank_enforced(self):
        with pytest.raises(ValueError, match="m must be 2-D"):
            as_matrix([1.0, 2.0])


def _softmax_row(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    total = math.fsum(e)
    return [v / total for v in e]


def _log_softmax_row(row):
    m = max(row)
    lse = m + math.log(math.fsum(math.exp(v - m) for v in row))
    return [v - lse for v in row]


class TestSoftmax:
    # 1-D, 2-D (rows differ, so a reduction over the wrong axis shows),
    # logits of +-1000, and a row of equal logits.
    CASES = [
        [0.3, -1.2, 2.5, 0.0],
        [[1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]],
        [[1000.0, -1000.0, 999.0], [-1000.0, -1000.5, -999.0]],
        [7.0, 7.0, 7.0, 7.0],
    ]

    @staticmethod
    def _oracle(fn, z):
        rows = np.atleast_2d(z).tolist()
        return np.array([fn(r) for r in rows]).reshape(np.shape(z))

    @pytest.mark.parametrize("z", CASES)
    def test_softmax_matches_math_oracle(self, z):
        z = np.array(z)
        got = softmax(z)
        assert got.shape == z.shape
        np.testing.assert_allclose(got, self._oracle(_softmax_row, z), rtol=1e-14, atol=0)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("z", CASES)
    def test_log_softmax_matches_math_oracle(self, z):
        z = np.array(z)
        got = log_softmax(z)
        assert got.shape == z.shape and np.all(np.isfinite(got))
        np.testing.assert_allclose(got, self._oracle(_log_softmax_row, z), rtol=1e-14, atol=0)

    def test_equal_logits_are_exactly_uniform(self):
        assert np.array_equal(softmax(np.full((2, 4), 7.0)), np.full((2, 4), 0.25))

    # The shifted copy is the one full-size array and becomes the output;
    # the input stays untouched.
    @pytest.mark.parametrize("fn", [softmax, log_softmax])
    def test_peak_memory_is_its_output(self, fn):
        z = Rng(3).normal_matrix(512, 1024)
        before = z.copy()
        out, peak = traced_peak(lambda: fn(z))
        assert np.array_equal(z, before)
        assert peak <= out.nbytes + (1 << 20)

    # With ``out`` (the input itself here), the same bits land there and no
    # full-size array is allocated.
    def test_out_takes_the_result_bitwise(self):
        z = Rng(4).normal_matrix(512, 1024)
        want = softmax(z)
        got, peak = traced_peak(lambda: softmax(z, out=z))
        assert got is z
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert peak <= 1 << 20
