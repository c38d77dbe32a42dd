"""TOML persistence: text round trips and loader error paths."""

import pytest

from repro.config import (
    ConfigError,
    DeploymentConfig,
    LinkConfig,
    ScenarioConfig,
    TrackerConfig,
    dumps_config,
    load_config,
    loads_config,
    save_config,
)


def _rich_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=3,
        deployment=DeploymentConfig(kind="grid", n_per_side=18, jitter=1.5,
                                    width=90.0, height=90.0),
        link=LinkConfig(kind="iid", p_loss=0.2, seed=5),
        tracker=TrackerConfig(name="CPF", kwargs={"n_particles": 300}),
        faults=(
            {"kind": "crash", "iteration": 2, "fraction": 0.1, "seed": 1},
            {"kind": "partition", "start": 1, "end": 3, "center": [45.0, 45.0],
             "radius": 30.0},
        ),
    )


class TestRoundTrip:
    def test_text_round_trip(self):
        cfg = _rich_config()
        assert loads_config(dumps_config(cfg)) == cfg

    def test_default_round_trip(self):
        cfg = ScenarioConfig()
        assert loads_config(dumps_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = _rich_config()
        path = tmp_path / "scenario.toml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_dump_is_stable(self):
        cfg = _rich_config()
        assert dumps_config(cfg) == dumps_config(loads_config(dumps_config(cfg)))

    def test_floats_carry_a_decimal_point(self):
        text = dumps_config(ScenarioConfig())
        for line in text.splitlines():
            if line.startswith("comm_radius"):
                assert line == "comm_radius = 30.0"
                break
        else:  # pragma: no cover
            pytest.fail("comm_radius line missing")

    def test_tracker_kwargs_inline_table(self):
        cfg = _rich_config()
        text = dumps_config(cfg)
        assert "kwargs = {n_particles = 300}" in text
        assert loads_config(text).tracker.kwargs == {"n_particles": 300}


class TestErrors:
    def test_invalid_toml_reports_config_error(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            loads_config("seed = = 3")

    def test_unknown_section_from_text(self):
        # the second is a top-level key earlier releases accepted: a config
        # saved then fails loudly, naming it, instead of loading without it
        for text, name in (
            ("[warp_drive]\nspeed = 9.0\n", "warp_drive"),
            ('seed = 0\nkernel_backend = "auto"\n', "kernel_backend"),
        ):
            with pytest.raises(ConfigError, match=name):
                loads_config(text)

    def test_validation_applies_on_load(self):
        with pytest.raises(ConfigError, match="radio.comm_radius"):
            loads_config("[radio]\ncomm_radius = -1.0\n")

    def test_non_finite_floats_refused_on_dump(self):
        cfg = ScenarioConfig(
            tracker=TrackerConfig(name="CDPF", kwargs={"x": float("inf")})
        )
        with pytest.raises(ConfigError, match="non-finite"):
            dumps_config(cfg)
