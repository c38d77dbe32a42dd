"""ScenarioConfig schema: validation messages and round-trip fidelity."""

import dataclasses

import pytest

from repro.config import (
    ConfigError,
    DeploymentConfig,
    LinkConfig,
    ScenarioConfig,
    SensingConfig,
    TrackerConfig,
    TrajectoryConfig,
)
from repro.network.faults import LossBurst
from repro.network.links import (
    DelayingLink,
    DistanceFadingLink,
    GilbertElliottLink,
    IIDLossLink,
)


class TestValidationNamesTheField:
    def test_bad_deployment_kind(self):
        with pytest.raises(ConfigError, match="deployment.kind"):
            DeploymentConfig(kind="hexagonal")

    def test_bad_density(self):
        with pytest.raises(ConfigError, match="deployment.density_per_100m2"):
            DeploymentConfig(kind="uniform", density_per_100m2=0.0)

    def test_bad_grid_side(self):
        with pytest.raises(ConfigError, match="deployment.n_per_side"):
            DeploymentConfig(kind="grid", n_per_side=0)

    def test_bad_sensing_model(self):
        with pytest.raises(ConfigError, match="sensing.model"):
            SensingConfig(model="telepathy")

    def test_probabilistic_inner_radius(self):
        with pytest.raises(ConfigError, match="sensing.inner_radius"):
            SensingConfig(model="probabilistic", inner_radius=12.0, sensing_radius=10.0)

    def test_energy_threshold_floor(self):
        with pytest.raises(ConfigError, match="sensing.threshold"):
            SensingConfig(model="energy", threshold=0.5, source_power=100.0,
                          sensing_radius=10.0)

    def test_bad_link_kind(self):
        with pytest.raises(ConfigError, match="link.kind"):
            LinkConfig(kind="string-and-cans")

    def test_link_probability_range(self):
        with pytest.raises(ConfigError, match="link.p_loss"):
            LinkConfig(kind="iid", p_loss=1.5)

    def test_trajectory_iterations(self):
        with pytest.raises(ConfigError, match="trajectory.n_iterations"):
            TrajectoryConfig(n_iterations=0)

    def test_sensing_vs_comm_radius_coupling(self):
        """The Scenario invariant R_s <= R_c/2 is caught at the config layer."""
        with pytest.raises(ConfigError, match="sensing.sensing_radius"):
            ScenarioConfig(sensing=SensingConfig(sensing_radius=20.0))

    def test_bad_fault_event_names_its_index(self):
        with pytest.raises(ConfigError, match=r"faults\[0\]"):
            ScenarioConfig(faults=({"kind": "crash", "at": 1},))

    def test_unknown_fault_kind(self):
        with pytest.raises(ConfigError, match="meteor"):
            ScenarioConfig(faults=({"kind": "meteor"},))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig(seed=-1)

    def test_negative_link_seed(self):
        """SeedSequence refuses negative entropy; the config must refuse it
        up front instead of letting the run die at the first link draw."""
        with pytest.raises(ConfigError, match="link.seed"):
            LinkConfig(kind="iid", seed=-3)

    def test_negative_loss_burst_seed_names_its_index(self):
        with pytest.raises(ConfigError, match=r"faults\[0\].*seed"):
            ScenarioConfig(
                faults=({"kind": "loss_burst", "start": 1, "end": 2, "seed": -1},)
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: IIDLossLink(seed=-1),
            lambda: DistanceFadingLink(seed=-1),
            lambda: GilbertElliottLink(seed=-1),
            lambda: DelayingLink(seed=-1),
            lambda: LossBurst(start=0, end=1, seed=-1),
        ],
        ids=["iid", "distance", "gilbert_elliott", "delaying", "loss_burst"],
    )
    def test_negative_seeds_rejected_at_construction(self, make):
        with pytest.raises(ValueError, match="seed"):
            make()


class TestFromDict:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="telemetry"):
            ScenarioConfig.from_dict({"telemetry": {}})

    def test_unknown_section_key_names_path(self):
        with pytest.raises(ConfigError, match="radio"):
            ScenarioConfig.from_dict({"radio": {"comm_radius": 30.0, "antennae": 2}})

    def test_type_error_names_path(self):
        with pytest.raises(ConfigError, match="radio.comm_radius"):
            ScenarioConfig.from_dict({"radio": {"comm_radius": "far"}})

    def test_int_coerces_onto_float_field(self):
        cfg = ScenarioConfig.from_dict({"radio": {"comm_radius": 30}})
        assert cfg.radio.comm_radius == 30.0
        assert isinstance(cfg.radio.comm_radius, float)

    def test_list_coerces_onto_tuple_field(self):
        cfg = ScenarioConfig.from_dict({"trajectory": {"start": [1, 2]}})
        assert cfg.trajectory.start == (1.0, 2.0)

    def test_missing_sections_take_defaults(self):
        assert ScenarioConfig.from_dict({}) == ScenarioConfig()

    def test_bool_does_not_pass_as_int(self):
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig.from_dict({"seed": True})


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = ScenarioConfig()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_nondefault_round_trips(self):
        cfg = ScenarioConfig(
            seed=42,
            deployment=DeploymentConfig(kind="clustered", n_clusters=5,
                                        nodes_per_cluster=40, cluster_std=8.0,
                                        width=90.0, height=70.0),
            sensing=SensingConfig(model="probabilistic", inner_radius=4.0),
            link=LinkConfig(kind="delaying", inner="gilbert_elliott", p_delay=0.3,
                            seed=9),
            tracker=TrackerConfig(name="DPF-gmm", kwargs={"n_particles": 150}),
            faults=(
                {"kind": "scheduled_sleep", "start": 0, "end": 3, "duty_cycle": 0.4},
                {"kind": "mobility", "start": 1, "end": 2, "model": "group",
                 "velocity": [0.2, 0.0]},
            ),
        )
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_plain_data(self):
        data = ScenarioConfig().to_dict()

        def walk(v):
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, (list, tuple)):
                for x in v:
                    walk(x)
            else:
                assert isinstance(v, (int, float, str, bool)), v

        walk(data)

    def test_sections_are_frozen(self):
        cfg = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.radio.comm_radius = 99.0
