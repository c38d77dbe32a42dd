"""fma_many / norm2d_many: bit-exact against the scalar chains they replace."""

import math

import numpy as np
import pytest

from repro.kernels.geometry import fma_many, norm2d_many


def _random_components(rng, n):
    """Displacement pairs spanning many magnitudes, including exact zeros."""
    mag = 10.0 ** rng.uniform(-8, 8, size=(n, 2))
    sign = rng.choice([-1.0, 1.0], size=(n, 2))
    d = mag * sign
    d[rng.random(n) < 0.05] = 0.0  # coincident points
    return d[:, 0], d[:, 1]


class TestNorm2dMany:
    def test_bitwise_equal_to_linalg_norm(self):
        """The contract: each entry equals np.linalg.norm of the 2-vector.

        np.linalg.norm routes 2-vectors through BLAS ddot, whose FMA
        contraction norm2d_many replays via error-free transformations —
        so the comparison must hold bit for bit, not just to rounding.
        """
        rng = np.random.default_rng(42)
        dx, dy = _random_components(rng, 500)
        got = norm2d_many(dx, dy)
        expected = np.array(
            [np.linalg.norm(np.array([x, y])) for x, y in zip(dx, dy)]
        )
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    def test_typical_simulation_scale(self):
        """Coordinates at the deployment's actual scale (0..150 m)."""
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 150, size=(300, 2))
        b = rng.uniform(0, 150, size=(300, 2))
        dx, dy = a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]
        expected = np.array(
            [np.linalg.norm(np.array([x, y])) for x, y in zip(dx, dy)]
        )
        assert np.array_equal(norm2d_many(dx, dy), expected)

    def test_zero_distance(self):
        assert norm2d_many(np.zeros(3), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_broadcasting_matrix_shape(self):
        """(n, m) displacement grids go through unchanged (likelihood path)."""
        rng = np.random.default_rng(3)
        dx = rng.normal(size=(4, 5))
        dy = rng.normal(size=(4, 5))
        got = norm2d_many(dx, dy)
        assert got.shape == (4, 5)
        flat = norm2d_many(dx.ravel(), dy.ravel()).reshape(4, 5)
        assert np.array_equal(got, flat)


class TestFmaMany:
    @pytest.mark.skipif(not hasattr(math, "fma"), reason="math.fma needs 3.13+")
    def test_matches_hardware_fma(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=200) * 10.0 ** rng.integers(-6, 6, size=200)
        b = rng.normal(size=200) * 10.0 ** rng.integers(-6, 6, size=200)
        c = rng.normal(size=200) * 10.0 ** rng.integers(-6, 6, size=200)
        got = fma_many(a, b, c)
        expected = np.array([math.fma(x, y, z) for x, y, z in zip(a, b, c)])
        assert np.array_equal(got, expected)

    def test_exact_when_product_is_representable(self):
        a = np.array([2.0, 3.0, -1.5])
        b = np.array([4.0, 0.5, 2.0])
        c = np.array([1.0, -1.0, 0.25])
        assert np.array_equal(fma_many(a, b, c), a * b + c)

    def test_single_rounding_differs_from_double_rounding(self):
        """fma(a, a, -a*a) recovers the squaring error — nonzero in general,
        which is exactly what distinguishes a fused from a two-step chain."""
        a = np.array([1.0 + 2.0**-30])
        err = fma_many(a, a, -(a * a))
        assert err[0] != 0.0

    @pytest.mark.parametrize("n", range(0, 10))
    def test_few_elements_equal_the_array_pass(self, n, monkeypatch):
        """Up to ``_FEW`` elements the steps run on Python floats; the
        result must be the array pass's bit for bit, at every magnitude."""
        from repro.kernels import geometry

        rng = np.random.default_rng(n)
        a, b, c = (rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n) for _ in range(3))
        squares = rng.uniform(-150.0, 150.0, size=n)
        cases = [(a, b, c), (squares, squares, squares * squares), (np.zeros(n), -np.zeros(n), -np.zeros(n))]
        got = [fma_many(x, y, z) for x, y, z in cases]
        monkeypatch.setattr(geometry, "_FEW", -1)
        for (x, y, z), few in zip(cases, got):
            assert few.dtype == np.float64 and few.shape == (n,)
            assert few.tobytes() == fma_many(x, y, z).tobytes()
