"""The batched backend: bit-identity, any factory, one world per
(density, seed), sensing contexts, resume."""

import numpy as np
import pytest

from repro.experiments.sweep import density_sweep

SMALL = dict(
    scenario_kwargs={"width": 80.0, "height": 60.0},
    trajectory_kwargs={"start": (5.0, 30.0)},
)


def collect(backend, factories=None, **kwargs):
    """(cell key -> TrackingResult, SweepResult) of a small sweep."""
    rows = {}

    def on_result(density, algorithm, seed, tracking):
        rows[(density, algorithm, seed)] = tracking

    sweep = density_sweep(
        densities=(5, 10),
        n_seeds=2,
        n_iterations=3,
        factories=factories,
        backend=backend,
        on_result=on_result,
        **SMALL,
        **kwargs,
    )
    return rows, sweep


def assert_tracking_identical(a, b, key):
    assert set(a.estimates) == set(b.estimates), key
    for k in a.estimates:
        ea, eb = a.estimates[k], b.estimates[k]
        assert (ea is None) == (eb is None), (key, k)
        if ea is not None:
            assert np.array_equal(np.asarray(ea), np.asarray(eb)), (key, k)
    assert a.total_bytes == b.total_bytes, key
    assert a.total_messages == b.total_messages, key
    assert np.array_equal(a.bytes_per_iteration, b.bytes_per_iteration), key
    assert np.array_equal(a.messages_per_iteration, b.messages_per_iteration), key
    assert a.bytes_by_category == b.bytes_by_category, key
    assert a.detectors_per_iteration == b.detectors_per_iteration, key
    assert a.rmse == b.rmse, key


class TestBitIdentity:
    def test_all_families_match_serial(self):
        """Every tracker family produces bit-identical per-cell results
        through the shared-world backend and the per-cell serial path."""
        serial, ss = collect("serial")
        batched, sb = collect("batched")
        assert set(serial) == set(batched)
        algorithms = {alg for _, alg, _ in serial}
        assert {"CPF", "SDPF", "CDPF", "CDPF-NE"} <= algorithms
        for key in serial:
            assert_tracking_identical(serial[key], batched[key], key)
        assert set(ss.points) == set(sb.points)
        for key in ss.points:
            assert ss.points[key] == sb.points[key]

    def test_batched_is_deterministic(self):
        a, _ = collect("batched")
        b, _ = collect("batched")
        for key in a:
            assert_tracking_identical(a[key], b[key], key)

    def test_one_world_per_density_and_seed(self, monkeypatch):
        """Every algorithm at a (density, seed) runs on one shared world."""
        import repro.experiments.lockstep as lockstep

        built = []
        original = lockstep.make_paper_scenario

        def counting(*args, **kwargs):
            built.append(kwargs["density_per_100m2"])
            return original(*args, **kwargs)

        monkeypatch.setattr(lockstep, "make_paper_scenario", counting)
        rows, _ = collect("batched")
        assert len(rows) == 2 * 2 * 4  # densities x seeds x families
        assert sorted(built) == [5.0, 5.0, 10.0, 10.0]


class TestFallback:
    def test_custom_factory_through_batched_backend_matches_serial(self):
        """A custom factory runs through the shared-world backend like the
        registry's own factories — identical results to the serial path."""
        from repro.core.cdpf import CDPFTracker

        factories = {
            "custom-cdpf": lambda scenario, rng: CDPFTracker(scenario, rng=rng)
        }
        serial, _ = collect("serial", factories=factories)
        batched, _ = collect("batched", factories=factories)
        for key in serial:
            assert_tracking_identical(serial[key], batched[key], key)


class TestSensingContexts:
    def test_fast_contexts_match_generate_step_context(self):
        """generate_step_context draws every detector's bearing in one
        vectorized call: the same detectors and bit-identical Python-float
        measurements as per-detector BearingMeasurement.measure draws."""
        from repro.experiments.runner import generate_step_context
        from repro.scenario import make_paper_scenario, make_trajectory

        rng = np.random.default_rng(7)
        scenario = make_paper_scenario(
            density_per_100m2=10.0, rng=rng, width=80.0, height=60.0
        )
        scenario = scenario.with_(measurement_bias_std=0.02)
        trajectory = make_trajectory(n_iterations=5, rng=rng, start=(5.0, 30.0))
        physical = scenario.physical_deployment
        fast_rng = np.random.default_rng(123)
        ref_rng = np.random.default_rng(123)
        n_checked = 0
        for k in range(6):  # the runner generates contexts for k = 0..n
            fast = generate_step_context(scenario, trajectory, k, fast_rng)
            path = trajectory.position_at_iteration(k)[None, :]
            detectors = scenario.detection.detect(physical.index, path, ref_rng)
            state = np.concatenate(
                [trajectory.position_at_iteration(k), trajectory.velocity_at_iteration(k)]
            )
            bias = ref_rng.normal(0.0, scenario.measurement_bias_std)
            assert np.array_equal(fast.detectors, detectors)
            assert list(fast.measurements) == [int(d) for d in detectors]
            for nid in detectors:
                z = scenario.measurement.measure(
                    state, ref_rng, physical.positions[int(nid)]
                ) + bias
                assert type(fast.measurements[int(nid)]) is float
                assert fast.measurements[int(nid)] == z, (k, nid)
                n_checked += 1
        assert n_checked > 0
        # both streams consumed the same number of draws
        assert fast_rng.random() == ref_rng.random()


class TestResume:
    def test_batched_backend_resumes_from_store(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        first, _ = collect("batched", store=store)
        again, sweep = collect("batched", store=store)
        assert sweep.run_summary.n_executed == 0
        assert sweep.run_summary.n_resumed == sweep.run_summary.n_tasks
        # resumed cells surface no TrackingResult, but keep their metrics
        assert all(t is None for t in again.values())

    def test_store_written_by_serial_resumes_batched(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        _, s1 = collect("serial", store=store)
        _, s2 = collect("batched", store=store)
        assert s2.run_summary.n_executed == 0
        for key in s1.points:
            p1, p2 = s1.points[key], s2.points[key]
            assert p1.rmse_runs == p2.rmse_runs
            assert p1.bytes_runs == p2.bytes_runs


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            collect("warp-drive")

    def test_backend_none_defaults_by_workers(self):
        rows, sweep = collect(None)
        assert sweep.run_summary.n_executed == len(rows)
