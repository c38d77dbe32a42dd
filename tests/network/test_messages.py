"""Messages: the paper's byte model, immutability, validation."""

import numpy as np
import pytest

from repro.network.messages import (
    AckMessage,
    DataSizes,
    EstimateReportMessage,
    FilterStateMessage,
    MeasurementMessage,
    ParticleMessage,
    QuantizedMeasurementMessage,
    QueryMessage,
    TotalWeightMessage,
    WakeupMessage,
    WeightReportMessage,
)

SIZES = DataSizes()  # Dp=16, Dm=4, Dw=4, header=0


class TestDataSizes:
    def test_paper_defaults(self):
        assert SIZES.particle == 16
        assert SIZES.measurement == 4
        assert SIZES.weight == 4
        assert SIZES.header == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DataSizes(particle=-1)

    def test_header_added_once(self):
        s = DataSizes(header=8)
        msg = MeasurementMessage(sender=0, iteration=1, value=0.5)
        assert msg.size_bytes(s) == 12


class TestParticleMessage:
    def make(self, n=3):
        return ParticleMessage(
            sender=1,
            iteration=2,
            states=np.zeros((n, 4)),
            weights=np.ones(n),
        )

    def test_size_is_n_times_dp_plus_dw(self):
        # the propagation term of Table I: n * (Dp + Dw)
        assert self.make(3).size_bytes(SIZES) == 3 * (16 + 4)
        assert self.make(1).size_bytes(SIZES) == 20

    def test_single_state_promoted_to_2d(self):
        msg = ParticleMessage(sender=0, iteration=0, states=np.zeros(4), weights=[1.0])
        assert msg.n_particles == 1
        assert msg.states.shape == (1, 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ParticleMessage(sender=0, iteration=0, states=np.zeros((2, 4)), weights=[1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ParticleMessage(sender=0, iteration=0, states=np.zeros((1, 4)), weights=[-1.0])

    def test_payload_is_readonly(self):
        msg = self.make()
        with pytest.raises(ValueError):
            msg.states[0, 0] = 5.0
        with pytest.raises(ValueError):
            msg.weights[0] = 5.0

    def test_prediction_charged_only_when_carried(self):
        base = ParticleMessage(
            sender=0, iteration=0, states=np.zeros((1, 4)), weights=[1.0],
            predicted_position=np.zeros(2), carry_prediction=False,
        )
        carried = ParticleMessage(
            sender=0, iteration=0, states=np.zeros((1, 4)), weights=[1.0],
            predicted_position=np.zeros(2), carry_prediction=True,
        )
        assert carried.size_bytes(SIZES) - base.size_bytes(SIZES) == SIZES.particle

    def test_category(self):
        assert self.make().category == "propagation"


class TestMeasurementMessage:
    def test_size_is_dm(self):
        assert MeasurementMessage(sender=0, iteration=0, value=1.0).size_bytes(SIZES) == 4

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MeasurementMessage(sender=0, iteration=0, value=float("nan"))


class TestWeightMessages:
    def test_report_size(self):
        msg = WeightReportMessage(sender=0, iteration=0, weights=np.ones(8))
        assert msg.size_bytes(SIZES) == 8 * 4

    def test_report_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightReportMessage(sender=0, iteration=0, weights=np.array([-1.0]))

    def test_total_size(self):
        msg = TotalWeightMessage(sender=-1, iteration=0, total_weight=3.5)
        assert msg.size_bytes(SIZES) == 4

    def test_total_validation(self):
        with pytest.raises(ValueError):
            TotalWeightMessage(sender=-1, iteration=0, total_weight=-1.0)
        with pytest.raises(ValueError):
            TotalWeightMessage(sender=-1, iteration=0, total_weight=float("inf"))

    def test_query_and_ack_sizes(self):
        assert QueryMessage(sender=-1, iteration=0).size_bytes(SIZES) == 4
        assert AckMessage(sender=0, iteration=0).size_bytes(SIZES) == 4

    def test_categories(self):
        assert WeightReportMessage(sender=0, iteration=0, weights=np.ones(1)).category == (
            "weight_aggregation"
        )
        assert TotalWeightMessage(sender=-1, iteration=0, total_weight=1.0).category == (
            "weight_aggregation"
        )


class TestRoundBytes:
    """A round handed over without messages costs what its messages would,
    and is refused for what their construction refuses."""

    SIZES = DataSizes(particle=16, measurement=4, weight=4, header=3)

    def test_particle_round(self):
        rows = [np.array([0.5]), np.array([0.25, 0.25, 1.0]), np.zeros(2)]
        messages = [
            ParticleMessage(sender=i, iteration=0, states=np.zeros((w.size, 4)), weights=w)
            for i, w in enumerate(rows)
        ]
        got = ParticleMessage.round_bytes(self.SIZES, len(rows), np.concatenate(rows))
        assert got == sum(m.size_bytes(self.SIZES) for m in messages) == 3 * 3 + 6 * 20
        with pytest.raises(ValueError, match="non-negative"):
            ParticleMessage.round_bytes(self.SIZES, 1, np.array([1.0, -0.5]))

    def test_measurement_round(self):
        values = [0.5, -1.25, 3.0]
        messages = [MeasurementMessage(sender=i, iteration=0, value=v) for i, v in enumerate(values)]
        got = MeasurementMessage.round_bytes(self.SIZES, len(values), values)
        assert got == sum(m.size_bytes(self.SIZES) for m in messages) == 3 * 7
        # a multi-hop packet sends its one reading once per hop
        assert MeasurementMessage.round_bytes(self.SIZES, 5, values[:2]) == 5 * 7
        assert MeasurementMessage.round_bytes(self.SIZES, 0, []) == 0
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"finite, got {bad}"):
                MeasurementMessage.round_bytes(self.SIZES, 3, [1.0, bad, float("-inf")])

    def test_weight_report_round(self):
        rows = [np.ones(4), np.array([0.0, 2.0])]
        messages = [WeightReportMessage(sender=i, iteration=0, weights=w) for i, w in enumerate(rows)]
        got = WeightReportMessage.round_bytes(self.SIZES, len(rows), np.concatenate(rows))
        assert got == sum(m.size_bytes(self.SIZES) for m in messages) == 2 * 3 + 6 * 4
        with pytest.raises(ValueError, match="non-negative"):
            WeightReportMessage.round_bytes(self.SIZES, 1, np.array([-1.0]))


class TestQuantizedMeasurement:
    def test_size_rounds_bits_to_bytes(self):
        assert QuantizedMeasurementMessage(sender=0, iteration=0, code=3, bits=8).size_bytes(SIZES) == 1
        assert QuantizedMeasurementMessage(sender=0, iteration=0, code=3, bits=12).size_bytes(SIZES) == 2
        assert QuantizedMeasurementMessage(sender=0, iteration=0, code=1, bits=1).size_bytes(SIZES) == 1

    def test_code_range_checked(self):
        with pytest.raises(ValueError):
            QuantizedMeasurementMessage(sender=0, iteration=0, code=256, bits=8)
        with pytest.raises(ValueError):
            QuantizedMeasurementMessage(sender=0, iteration=0, code=0, bits=0)


class TestFilterStateMessage:
    def test_size_per_param(self):
        msg = FilterStateMessage(sender=0, iteration=0, params=np.ones(21))
        assert msg.size_bytes(SIZES) == 21 * 4
        assert msg.n_params == 21

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FilterStateMessage(sender=0, iteration=0, params=np.array([np.inf]))


class TestControlMessages:
    def test_wakeup_size(self):
        msg = WakeupMessage(sender=0, iteration=0, predicted_position=np.zeros(2))
        assert msg.size_bytes(SIZES) == 8

    def test_estimate_report_size(self):
        msg = EstimateReportMessage(sender=0, iteration=0, estimate=np.zeros(2))
        assert msg.size_bytes(SIZES) == 8
        assert msg.category == "report"
