"""Compression-based DPF: quantization, hand-offs, leader chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dpf_compression import (
    DPFTracker,
    dequantize_bearing,
    quantize_bearing,
)
from repro.experiments.runner import run_tracking
from repro.scenario import StepContext


class TestQuantization:
    def test_round_trip_error_bounded_by_half_step(self):
        step = 2 * np.pi / 256
        for z in np.linspace(-np.pi + 1e-9, np.pi, 50):
            code = quantize_bearing(z, 8)
            back = dequantize_bearing(code, 8)
            assert abs(back - z) <= step / 2 + 1e-12

    def test_more_bits_less_error(self):
        z = 1.2345
        e4 = abs(dequantize_bearing(quantize_bearing(z, 4), 4) - z)
        e12 = abs(dequantize_bearing(quantize_bearing(z, 12), 12) - z)
        assert e12 < e4

    def test_code_range(self):
        assert 0 <= quantize_bearing(np.pi, 8) < 256
        assert 0 <= quantize_bearing(-np.pi, 8) < 256

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize_bearing(0.0, 0)
        with pytest.raises(ValueError):
            dequantize_bearing(300, 8)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-np.pi + 1e-9, np.pi), st.integers(1, 16))
    def test_property_round_trip(self, z, bits):
        step = 2 * np.pi / 2**bits
        back = dequantize_bearing(quantize_bearing(z, bits), bits)
        assert abs(back - z) <= step / 2 + 1e-9


class TestDPFTracker:
    @pytest.mark.parametrize("compression", ["gmm", "quantized"])
    def test_tracks(self, small_scenario, small_trajectory, compression):
        tr = DPFTracker(
            small_scenario, rng=np.random.default_rng(1), compression=compression
        )
        res = run_tracking(tr, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        assert res.rmse < 3.0
        assert res.error.coverage == 1.0

    def test_quantized_measurements_cheaper_than_raw(self, small_scenario, small_trajectory):
        """8-bit codes cost 1 byte vs Dm = 4: DPF's measurement traffic is
        ~4x cheaper than CPF's (same routes)."""
        from repro.baselines.cpf import CPFTracker

        dpf = DPFTracker(small_scenario, rng=np.random.default_rng(1), compression="gmm")
        dpf_res = run_tracking(dpf, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        cpf = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        cpf_res = run_tracking(cpf, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        dpf_meas = dpf_res.bytes_by_category.get("measurement", 0)
        cpf_meas = cpf_res.bytes_by_category["measurement"]
        assert dpf_meas < cpf_meas / 2

    def test_message_count_not_reduced(self, small_scenario, small_trajectory):
        """The paper's §I critique of compression DPFs: data shrinks but the
        MESSAGE count stays in CPF's ballpark (or above: hand-offs add)."""
        from repro.baselines.cpf import CPFTracker

        dpf = DPFTracker(small_scenario, rng=np.random.default_rng(1))
        dpf_res = run_tracking(dpf, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        cpf = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        cpf_res = run_tracking(cpf, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        assert dpf_res.total_messages > 0.4 * cpf_res.total_messages

    def test_handoff_charged_as_state_forward(self, small_scenario, small_trajectory):
        tr = DPFTracker(small_scenario, rng=np.random.default_rng(1), compression="gmm")
        res = run_tracking(tr, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        # the leader must have moved at least once along a 4-iteration track
        assert res.bytes_by_category.get("state_forward", 0) > 0

    def test_gmm_handoff_smaller_than_quantized(self, small_scenario, small_trajectory):
        results = {}
        for comp in ("gmm", "quantized"):
            tr = DPFTracker(small_scenario, rng=np.random.default_rng(1), compression=comp)
            res = run_tracking(
                tr, small_scenario, small_trajectory, rng=np.random.default_rng(7)
            )
            results[comp] = res.bytes_by_category.get("state_forward", 0)
        # 3-component GMM: 27 params; quantized: 16 particles x 4 = 64 values
        assert results["gmm"] < results["quantized"]

    def test_fuses_only_measurements_the_leader_received(
        self, small_scenario, small_trajectory, monkeypatch
    ):
        """On a lossy medium a measurement packet can be dropped on a hop;
        the leader fuses its own reading and the packets that reached it."""
        from repro.experiments.runner import generate_step_context
        from repro.network.links import IIDLossLink
        from repro.network.medium import Medium

        scenario = small_scenario.with_(link_model=IIDLossLink(p_loss=0.5, seed=3))
        tr = DPFTracker(scenario, rng=np.random.default_rng(1), compression="quantized")
        ctx = generate_step_context(scenario, small_trajectory, 0, np.random.default_rng(3))
        sent = []
        unicast_path = Medium.unicast_path

        def spy(self, path, message, iteration):
            sent.append(unicast_path(self, path, message, iteration))
            return sent[-1]

        monkeypatch.setattr(Medium, "unicast_path", spy)
        detectors = np.asarray(ctx.detectors).ravel()
        observations = tr._collect_measurements(ctx, tr._elect_leader(detectors), detectors)
        delivered = sum(d.receivers.size for d in sent)
        assert 0 < delivered < len(sent)  # the channel lost some packets
        assert len(observations) == 1 + delivered

    def test_validation(self, small_scenario):
        with pytest.raises(ValueError):
            DPFTracker(small_scenario, rng=np.random.default_rng(1), compression="zip")
        with pytest.raises(ValueError):
            DPFTracker(small_scenario, rng=np.random.default_rng(1), quantization_bits=0)

    def test_coasts_through_gap(self, small_scenario, small_trajectory):
        tr = DPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(3)
        from repro.experiments.runner import generate_step_context

        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        empty = StepContext(iteration=1, detectors=np.array([], dtype=int), measurements={})
        assert tr.step(empty) is not None
