"""Shared helpers for the service suite.

No pytest-asyncio in the container: each test runs its coroutine through
``asyncio.run`` (a fresh event loop per test keeps the worker pipes and
``add_reader`` registrations strictly per-loop, which is exactly the
isolation the service assumes in production).
"""

from __future__ import annotations

import pytest

from repro.config import ScenarioConfig, dumps_config


def small_config(seed: int = 5, n_iterations: int = 4) -> ScenarioConfig:
    return ScenarioConfig.from_dict(
        {
            "seed": seed,
            "deployment": {
                "width": 55.0,
                "height": 50.0,
                "density_per_100m2": 12.0,
            },
            "trajectory": {"n_iterations": n_iterations, "start": [0.0, 25.0]},
        }
    )


@pytest.fixture
def config_toml() -> str:
    return dumps_config(small_config())


@pytest.fixture
def stale_config_toml(config_toml) -> str:
    """``config_toml`` as an earlier release stored it, with the since-removed
    top-level ``kernel_backend`` key."""
    stale = config_toml.replace("seed = 5\n", 'seed = 5\nkernel_backend = "auto"\n', 1)
    assert stale != config_toml
    return stale
