"""SIS/SIR filters: agreement with the Kalman filter, tracking, degeneracy."""

import gc
import weakref

import numpy as np
import pytest

from repro.filters.kalman import KalmanFilter
from repro.filters.particles import ParticleSet
from repro.filters.sir import Observation, SIRFilter, SISFilter, joint_log_likelihood
from repro.models.constant_velocity import ConstantVelocityModel
from repro.models.measurement import BearingMeasurement, RangeMeasurement


class LinearPositionMeasurement:
    """z = x-position + N(0, sigma^2): a linear-Gaussian test model."""

    def __init__(self, sigma=1.0):
        self.sigma = sigma

    def measure(self, state, rng, sensor_position=None):
        return float(state[0] + rng.normal(0, self.sigma))

    def log_likelihood(self, states, z, sensor_position=None):
        states = np.atleast_2d(states)
        r = z - states[:, 0]
        return -0.5 * (r / self.sigma) ** 2 - np.log(self.sigma * np.sqrt(2 * np.pi))


class TestLifecycle:
    def test_requires_initialization(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 10, rng=rng)
        with pytest.raises(RuntimeError, match="initialize"):
            f.predict()
        with pytest.raises(RuntimeError):
            f.estimate()

    def test_initialize_draws_from_prior(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 20000, rng=rng)
        mean = np.array([1.0, 2.0, 3.0, 4.0])
        f.initialize(mean, np.eye(4) * 0.25)
        np.testing.assert_allclose(f.particles.states.mean(axis=0), mean, atol=0.05)

    def test_initialize_from_existing_set(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 5, rng=rng)
        p = ParticleSet(np.zeros((5, 4)))
        f.initialize_from(p)
        assert f.particles.n == 5

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SIRFilter(ConstantVelocityModel(), 0, rng=rng)
        with pytest.raises(ValueError):
            SISFilter(ConstantVelocityModel(), 10, rng=rng, ess_threshold_ratio=2.0)
        with pytest.raises(ValueError):
            SISFilter(ConstantVelocityModel(), 10, rng=rng, roughening=-1.0)


class TestUpdateSemantics:
    def test_no_observations_keeps_weights(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 100, rng=rng)
        f.initialize(np.zeros(4), np.eye(4))
        w_before = f.particles.weights.copy()
        f.update([])
        np.testing.assert_allclose(f.particles.weights, w_before)

    def test_update_normalizes(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 200, rng=rng)
        f.initialize(np.zeros(4), np.eye(4))
        f.update([Observation(LinearPositionMeasurement(), 0.5, None)])
        assert f.particles.weights.sum() == pytest.approx(1.0)

    def test_joint_log_likelihood_sums(self, rng):
        states = rng.normal(size=(10, 4))
        m1, m2 = LinearPositionMeasurement(1.0), RangeMeasurement(0.5)
        obs = [
            Observation(m1, 0.3, None),
            Observation(m2, 2.0, np.zeros(2)),
        ]
        total = joint_log_likelihood(states, obs)
        np.testing.assert_allclose(
            total,
            m1.log_likelihood(states, 0.3) + m2.log_likelihood(states, 2.0, np.zeros(2)),
        )


class TestKalmanAgreement:
    def test_bootstrap_pf_matches_kf_on_linear_gaussian(self):
        """On a linear-Gaussian problem the bootstrap PF posterior mean must
        converge to the (optimal) Kalman filter's."""
        dyn = ConstantVelocityModel(dt=1.0, sigma_x=0.3, sigma_y=0.3)
        sigma_z = 1.0
        h = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        kf = KalmanFilter(dyn.phi, dyn.process_noise_cov, h, np.eye(2) * sigma_z**2)

        rng = np.random.default_rng(0)
        pf = SIRFilter(dyn, 4000, rng=np.random.default_rng(1))
        mean0 = np.array([0.0, 0.0, 1.0, 0.5])
        cov0 = np.diag([4.0, 4.0, 1.0, 1.0])
        kf.initialize(mean0, cov0)
        pf.initialize(mean0, cov0)

        class XYMeasurement:
            def log_likelihood(self, states, z, sensor_position=None):
                states = np.atleast_2d(states)
                r = np.asarray(z) - states[:, :2]
                return -0.5 * np.sum(r * r, axis=1) / sigma_z**2

        truth = mean0.copy()
        diffs = []
        for _ in range(15):
            truth = dyn.propagate(truth[None, :], rng)[0]
            z = truth[:2] + rng.normal(0, sigma_z, 2)
            kf.step(z)
            pf.step([Observation(XYMeasurement(), z, None)])
            diffs.append(np.linalg.norm(kf.x[:2] - pf.estimate()[:2]))
        assert np.mean(diffs) < 0.35

    def test_sir_tracks_cv_target_with_bearings(self):
        """SIR with two bearing sensors triangulates a CV target."""
        dyn = ConstantVelocityModel(dt=1.0, sigma_x=0.2, sigma_y=0.2)
        meas = BearingMeasurement(noise_std=0.02, reference="node")
        sensors = [np.array([0.0, 0.0]), np.array([50.0, 0.0])]
        rng = np.random.default_rng(3)
        pf = SIRFilter(dyn, 2000, rng=np.random.default_rng(4), roughening=0.1)
        truth = np.array([20.0, 30.0, 1.0, 0.5])
        pf.initialize(truth + rng.normal(0, 0.5, 4), np.diag([4.0, 4.0, 0.5, 0.5]))
        errs = []
        for _ in range(12):
            truth = dyn.propagate(truth[None, :], rng)[0]
            obs = [Observation(meas, meas.measure(truth, rng, s), s) for s in sensors]
            est = pf.step(obs)
            errs.append(np.linalg.norm(est[:2] - truth[:2]))
        assert np.mean(errs[3:]) < 1.0


class TestResamplingBehavior:
    def test_sir_resamples_every_step(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 100, rng=rng)
        f.initialize(np.zeros(4), np.eye(4))
        for _ in range(3):
            f.step([])
        assert f.resample_count == 3

    def test_sis_resamples_only_below_threshold(self, rng):
        f = SISFilter(ConstantVelocityModel(), 100, rng=rng, ess_threshold_ratio=0.5)
        f.initialize(np.zeros(4), np.eye(4))
        f.step([])  # uniform weights: ESS = n, no resample
        assert f.resample_count == 0
        f.update([Observation(LinearPositionMeasurement(0.01), 0.0, None)])
        assert f.maybe_resample()
        assert f.resample_count == 1

    def test_sis_threshold_none_never_resamples(self, rng):
        f = SISFilter(ConstantVelocityModel(), 50, rng=rng, ess_threshold_ratio=None)
        f.initialize(np.zeros(4), np.eye(4))
        f.update([Observation(LinearPositionMeasurement(0.001), 0.0, None)])
        assert not f.maybe_resample()

    def test_roughening_restores_diversity(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 500, rng=rng, roughening=0.3)
        f.initialize(np.zeros(4), np.eye(4))
        # crush to near-degenerate weights, then resample
        f.update([Observation(LinearPositionMeasurement(0.001), 0.0, None)])
        f.force_resample()
        assert np.unique(f.particles.states[:, 0]).size > 400

    def test_without_roughening_duplicates_survive(self, rng):
        f = SIRFilter(ConstantVelocityModel(), 500, rng=rng, roughening=0.0)
        f.initialize(np.zeros(4), np.eye(4))
        f.update([Observation(LinearPositionMeasurement(0.001), 0.0, None)])
        f.force_resample()
        assert np.unique(f.particles.states[:, 0]).size < 100


class TestLikelihoodWorkspace:
    """The bearing matrix runs in buffers the filter owns and reuses."""

    SHAPES = [(3, 50), (40, 300), (2, 20), (40, 300), (41, 300), (7, 500), (5, 10)]

    @staticmethod
    def _bearings(rng, n_obs):
        model = BearingMeasurement(noise_std=0.05, reference="node")
        return [
            Observation(model, float(z), pos)
            for z, pos in zip(rng.uniform(-np.pi, np.pi, n_obs), rng.uniform(0, 100, (n_obs, 2)))
        ]

    def test_reused_buffers_match_fresh_allocation_bitwise(self):
        rng = np.random.default_rng(11)
        f = SISFilter(ConstantVelocityModel(), 10, rng=rng, ess_threshold_ratio=None)
        blocks = []
        for n_obs, n_particles in self.SHAPES:
            cloud = ParticleSet(rng.uniform(0, 100, (n_particles, 4)), rng.dirichlet(np.ones(n_particles)))
            observations = self._bearings(rng, n_obs)
            fresh = SISFilter(ConstantVelocityModel(), 10, rng=rng, ess_threshold_ratio=None)
            for filt in (f, fresh):
                filt.initialize_from(cloud)
                filt.update(observations)
            assert f.particles.weights.tobytes() == fresh.particles.weights.tobytes()
            want = joint_log_likelihood(cloud.states, observations)
            assert joint_log_likelihood(
                cloud.states, observations, workspace=f._workspace
            ).tobytes() == want.tobytes()
            blocks.append(f._workspace._block)
        # the block grows with the largest shape so far and is reused below it
        sizes = [n * p for n, p in self.SHAPES]
        for k in range(1, len(sizes)):
            grew = sizes[k] > max(sizes[:k])
            assert (blocks[k] is blocks[k - 1]) != grew, self.SHAPES[k]

    def test_a_dropped_filter_frees_its_buffers(self):
        rng = np.random.default_rng(12)
        f = SIRFilter(ConstantVelocityModel(), 200, rng=rng)
        f.initialize(np.full(4, 50.0), np.eye(4))
        f.step(self._bearings(rng, 30))
        block = weakref.ref(f._workspace._block)
        assert block() is not None and block().size >= 2 * 30 * 200
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del f
            assert block() is None
        finally:
            if was_enabled:
                gc.enable()
