"""Batched likelihood kernels against the scalar measurement-model chains."""

import numpy as np
import pytest

from repro.baselines.dpf_compression import dequantize_bearing, quantize_bearing
from repro.core.cdpf import quantization_sigma
from repro.kernels.likelihood import (
    batch_bearing_log_likelihood,
    batch_likelihood,
    dequantize_bearings,
    fused_bearing,
    quantize_bearings,
    wrap_angle_many,
)
from repro.models.measurement import BearingMeasurement, wrap_angle


class TestWrapAngleMany:
    def test_matches_model_wrap_angle(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(-12.0, 12.0, size=500)
        assert np.array_equal(wrap_angle_many(theta), wrap_angle(theta))

    def test_half_open_convention(self):
        """(-pi, pi]: exact -pi maps to +pi, exactly as the scalar does."""
        edges = np.array([-np.pi, np.pi, 3 * np.pi, -3 * np.pi, 0.0])
        got = wrap_angle_many(edges)
        assert np.array_equal(got, wrap_angle(edges))
        assert got[0] == np.pi

    @staticmethod
    def _mod_reference(theta):
        """The unbounded form: one ``np.mod`` over every angle."""
        wrapped = theta + np.pi
        np.mod(wrapped, 2.0 * np.pi, out=wrapped)
        wrapped -= np.pi
        wrapped[wrapped == -np.pi] = np.pi
        return wrapped

    @staticmethod
    def _ulps_around(center, n=2000):
        """``center`` and the ``n`` floats on either side of it."""
        up = [center]
        down = [center]
        for _ in range(n):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], -np.inf))
        return np.array(down[::-1] + up[1:])

    @pytest.mark.parametrize(
        "center",
        [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1.5 * np.pi, -1.5 * np.pi],
        ids=["0", "pi/2", "-pi/2", "pi", "-pi", "3pi/2", "-3pi/2"],
    )
    def test_bounded_residuals_match_mod_bitwise(self, center):
        theta = self._ulps_around(center)
        assert wrap_angle_many(theta).tobytes() == self._mod_reference(theta).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["2pi", "-2pi"])
    def test_range_ends_match_mod_bitwise(self, sign):
        # up to +-2 pi the residual stays in range; past it, np.mod takes over
        theta = self._ulps_around(sign * 2.0 * np.pi)
        assert wrap_angle_many(theta).tobytes() == self._mod_reference(theta).tobytes()

    def test_random_residuals_match_mod_bitwise(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(120, 1000))
        assert wrap_angle_many(theta).tobytes() == self._mod_reference(theta).tobytes()

    @pytest.mark.parametrize(
        "stray",
        [7.0, -7.0, 2.0 * np.pi + 1e-9, 1e300, np.inf, np.nan],
        ids=["above", "below", "just-above", "huge", "inf", "nan"],
    )
    @pytest.mark.parametrize("size", [3, 5000], ids=["small", "large"])
    def test_out_of_range_and_nan_take_the_mod_fallback(self, stray, size):
        # one stray angle among bounded residuals sends the whole array to
        # np.mod, whose bits it then has, as small arrays always do
        rng = np.random.default_rng(size)
        theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=size)
        theta[size // 2] = stray
        got = wrap_angle_many(theta)
        assert got.tobytes() == self._mod_reference(theta).tobytes()
        assert np.array_equal(got, wrap_angle(theta), equal_nan=True)


class TestBatchLikelihood:
    def _scalar_entry(self, holder, lam_i, sensor, z, noise_std):
        """The pre-kernel chain: norm -> quantization_sigma -> log_kernel."""
        d = float(np.linalg.norm(holder - sensor))
        sigma_quant = quantization_sigma(lam_i, d) if d > 0 else 0.0
        sigma_eff = float(np.hypot(noise_std, sigma_quant))
        return BearingMeasurement(noise_std=noise_std, reference="node").log_kernel(
            holder[None, :], z, sensor, noise_std=sigma_eff
        )[0]

    def test_matches_scalar_chain_bitwise(self):
        rng = np.random.default_rng(2)
        n, m = 14, 9
        holders = rng.uniform(0.0, 150.0, size=(n, 2))
        sensors = rng.uniform(0.0, 150.0, size=(m, 2))
        zs = rng.uniform(-np.pi, np.pi, size=m)
        lam = rng.uniform(0.01, 0.5, size=n)
        noise_std = 0.05
        got = batch_likelihood(holders[:, None], lam[:, None], sensors, zs, noise_std)
        assert got.shape == (n, m)
        for i in range(n):
            for j in range(m):
                expected = self._scalar_entry(
                    holders[i], lam[i], sensors[j], zs[j], noise_std
                )
                assert got[i, j] == expected, (i, j)

    @pytest.mark.parametrize("n_pairs", [40, 5000], ids=["mod-wrap", "bounded-wrap"])
    def test_pairs_match_the_broadcast_matrix_bitwise(self, n_pairs):
        """Elementwise: a pair scores the same whatever else the call holds,
        on either side of the bounded wrap's size switch."""
        rng = np.random.default_rng(9)
        n, m = 60, 90
        holders = rng.uniform(0.0, 150.0, size=(n, 2))
        sensors = np.vstack([rng.uniform(0.0, 150.0, size=(m - 1, 2)), holders[:1]])
        zs = rng.uniform(-np.pi, np.pi, size=m)
        lam = rng.uniform(0.01, 0.5, size=n)
        matrix = batch_likelihood(holders[:, None], lam[:, None], sensors, zs, 0.05)
        i = rng.integers(0, n, size=n_pairs)
        j = rng.integers(0, m, size=n_pairs)
        i[0], j[0] = 0, m - 1  # a holder hearing itself
        got = batch_likelihood(holders[i], lam[i], sensors[j], zs[j], 0.05)
        assert got.tobytes() == matrix[i, j].tobytes()

    def test_coincident_holder_and_sensor_is_flat(self):
        """The undefined-bearing guard: log-kernel 0.0 at the sensor itself."""
        p = np.array([[10.0, 20.0]])
        out = batch_likelihood(
            p, np.array([0.1]), p, np.array([0.3]), noise_std=0.05
        )
        assert out.shape == (1,) and out[0] == 0.0

    def test_kernels_never_exceed_one(self):
        rng = np.random.default_rng(3)
        out = batch_likelihood(
            rng.uniform(0, 100, (20, 1, 2)),
            rng.uniform(0.05, 0.3, (20, 1)),
            rng.uniform(0, 100, (6, 2)),
            rng.uniform(-np.pi, np.pi, 6),
            noise_std=0.05,
        )
        assert (out <= 0.0).all()


class TestBatchBearingLogLikelihood:
    def test_rows_match_measurement_model(self):
        rng = np.random.default_rng(4)
        n_obs, n_particles = 7, 40
        positions = rng.uniform(0.0, 150.0, size=(n_particles, 2))
        refs = rng.uniform(0.0, 150.0, size=(n_obs, 2))
        zs = rng.uniform(-np.pi, np.pi, size=n_obs)
        sigmas = rng.uniform(0.02, 0.2, size=n_obs)
        got = batch_bearing_log_likelihood(positions, zs, refs, sigmas)
        assert got.shape == (n_obs, n_particles)
        for i in range(n_obs):
            expected = BearingMeasurement(
                noise_std=float(sigmas[i]), reference="node"
            ).log_likelihood(positions, float(zs[i]), refs[i])
            assert np.array_equal(got[i], expected), i

    def test_inputs_are_left_untouched(self):
        """The chain runs in place over its own temporaries only."""
        rng = np.random.default_rng(6)
        args = [rng.uniform(0, 100, (15, 2)), rng.uniform(-np.pi, np.pi, 4),
                rng.uniform(0, 100, (4, 2)), np.full(4, 0.05)]
        copies = [a.copy() for a in args]
        batch_bearing_log_likelihood(*args)
        theta = rng.uniform(-9.0, 9.0, 30)
        before = theta.copy()
        wrap_angle_many(theta)
        for a, c in zip(args + [theta], copies + [before]):
            assert np.array_equal(a, c)

    def test_sequential_row_sum_matches_accumulation(self):
        """The SIR update folds rows in order; the matrix must support that."""
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 100, (15, 2))
        refs = rng.uniform(0, 100, (4, 2))
        zs = rng.uniform(-np.pi, np.pi, 4)
        sigmas = np.full(4, 0.05)
        matrix = batch_bearing_log_likelihood(positions, zs, refs, sigmas)
        acc = np.zeros(15)
        for i in range(4):
            acc = acc + BearingMeasurement(noise_std=0.05, reference="node").log_likelihood(
                positions, float(zs[i]), refs[i]
            )
        folded = np.zeros(15)
        for i in range(4):
            folded = folded + matrix[i]
        assert np.array_equal(folded, acc)


class TestQuantization:
    def test_matches_scalar_wrappers(self):
        rng = np.random.default_rng(6)
        zs = rng.uniform(-np.pi, np.pi, size=200)
        for bits in (4, 8, 12):
            codes = quantize_bearings(zs, bits)
            assert np.array_equal(
                codes, np.array([quantize_bearing(float(z), bits) for z in zs])
            )
            back = dequantize_bearings(codes, bits)
            assert np.array_equal(
                back,
                np.array([dequantize_bearing(int(c), bits) for c in codes]),
            )

    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(7)
        zs = rng.uniform(-np.pi, np.pi, size=500)
        bits = 8
        err = np.abs(dequantize_bearings(quantize_bearings(zs, bits), bits) - zs)
        assert (err <= np.pi / 2**bits + 1e-12).all()

    def test_pi_clips_to_top_code(self):
        assert quantize_bearings(np.array([np.pi]), 4)[0] == 2**4 - 1

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError, match="bits must be positive"):
            quantize_bearings(np.zeros(1), 0)
        with pytest.raises(ValueError, match="codes out of range"):
            dequantize_bearings(np.array([16]), 4)
        with pytest.raises(ValueError, match="codes out of range"):
            dequantize_bearings(np.array([-1]), 4)


class TestFusedBearing:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-np.pi, np.pi, size=11)
        mean, sigma = fused_bearing(values, noise_std=0.05, bias_std=0.02)
        expected_mean = float(
            np.arctan2(np.mean(np.sin(values)), np.mean(np.cos(values)))
        )
        expected_sigma = float(np.sqrt(0.05**2 / values.size + 0.02**2))
        assert mean == expected_mean
        assert sigma == expected_sigma

    def test_circular_mean_handles_wraparound(self):
        """Bearings straddling +/-pi average to ~pi, not ~0."""
        mean, _ = fused_bearing(
            np.array([np.pi - 0.1, -np.pi + 0.1]), noise_std=0.05, bias_std=0.0
        )
        assert abs(wrap_angle(np.array([mean - np.pi]))[0]) < 1e-9

    def test_noise_averages_down_bias_does_not(self):
        _, lone = fused_bearing(np.array([0.1]), noise_std=0.1, bias_std=0.05)
        _, many = fused_bearing(np.full(100, 0.1), noise_std=0.1, bias_std=0.05)
        assert many < lone
        assert many >= 0.05  # the bias floor survives any M
