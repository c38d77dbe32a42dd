"""Creation's rate limit decided from degree bounds equals the exact gate.

``CDPFTracker._create_new_particles`` draws its ``uniform(size=n)`` first and
settles each gated candidate from the gate at its degree's upper and lower
bound (``NeighborTables.degree_bounds``); only candidates whose bounds
disagree are counted exactly.  The reference below is the gate as it was
before: ``warm_degrees`` on every gated candidate, then the same draws.  On
paper worlds at densities 5 and 40, over several seeds and every iteration,
the creators and the generator state after creation must equal the
reference's; some iteration must reach the exact count and some must be
settled by the bounds alone; and a degree the bounds settled must stay out
of the degree cache while a counted one enters it.
"""

import copy

import numpy as np
import pytest

from repro import make_paper_scenario, make_tracker, make_trajectory, run_tracking
from repro.network.topology import NeighborTables

DENSITIES = (5.0, 40.0)
SEEDS = (0, 1, 2)
N_ITER = 10


def reference_creators(tracker, detectors, rng, neighbors):
    """The creators of the gate before degree bounds, consuming ``rng`` as
    it did: exact degrees for every gated candidate, then one draw each."""
    scenario = tracker.scenario
    positions = scenario.deployment.positions
    holders = tracker.holders
    cand = detectors[~np.isin(detectors, holders.ids)]
    cand = cand[tracker.medium.available_mask(cand)]
    if not cand.size:
        return cand
    sender_pos = tracker._last_sender_positions
    predictions = tracker._last_predictions
    if sender_pos is not None and sender_pos.size:
        cpos = positions[cand]
        d2 = np.sum((sender_pos[None, :, :] - cpos[:, None, :]) ** 2, axis=2)
        heard = d2 <= scenario.radio.comm_radius**2
        heard_any = heard.any(axis=1)
        slack_r = tracker.config.creation_slack * tracker.config.predicted_area_radius
        d_pred = np.sqrt(np.sum((predictions[None, :, :] - cpos[:, None, :]) ** 2, axis=2))
        within = d_pred <= slack_r
        if predictions.shape[0] == sender_pos.shape[0]:
            within &= heard
        inside = within.any(axis=1) & heard_any
    else:
        heard_any = inside = np.zeros(cand.size, dtype=bool)
    create = ~inside
    gated = heard_any & create if holders else np.zeros(cand.size, dtype=bool)
    if gated.any():
        area_ratio = (scenario.sensing_radius / scenario.radio.comm_radius) ** 2
        degrees = neighbors.warm_degrees(cand[gated])
        n_codetectors = np.maximum(1.0, (degrees + 1) * area_ratio)
        draws = rng.uniform(size=degrees.size)
        create[gated] = draws < np.minimum(1.0, tracker.config.creation_limit / n_codetectors)
    return cand[create]


def checked_run(name, density, seed, tally):
    """One tracking run whose every creation is checked against the
    reference; ``tally`` counts iterations by how their gate was settled."""
    world = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    scenario = make_paper_scenario(density_per_100m2=density, rng=world)
    trajectory = make_trajectory(n_iterations=N_ITER, rng=world)
    tracker = make_tracker(
        name, scenario, rng=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    )
    exact = NeighborTables(scenario.deployment.positions, scenario.radio)
    degree = tracker.neighbors._neighborhood._degree
    create = tracker._create_new_particles
    bounds = tracker.neighbors.degree_bounds

    def spied_bounds(ids, undecided):
        uncached = degree[ids] < 0
        opened = np.zeros(ids.size, dtype=bool)

        def spied(lower, upper):
            opened[:] = undecided(lower, upper)
            return opened

        lower, upper = bounds(ids, spied)
        refined, settled = opened & uncached, ~opened & uncached
        assert (degree[ids[refined]] >= 0).all()  # counted and cached
        assert (degree[ids[settled]] == -1).all()  # bounds alone: uncached
        tally["refined" if refined.any() else "bounds only"] += int(uncached.any())
        return lower, upper

    def checked_create(ctx, detectors):
        rng = copy.deepcopy(tracker.rng)
        want = reference_creators(tracker, detectors, rng, exact)
        got = create(ctx, detectors)
        np.testing.assert_array_equal(got, want)
        assert tracker.rng.bit_generator.state == rng.bit_generator.state
        return got

    tracker.neighbors.degree_bounds = spied_bounds
    tracker._create_new_particles = checked_create
    sensing = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    run_tracking(tracker, scenario, trajectory, rng=sensing)


@pytest.mark.parametrize("name", ["CDPF", "CDPF-NE"])
def test_bounds_gate_equals_exact_gate(name):
    tally = {"refined": 0, "bounds only": 0}
    for density in DENSITIES:
        for seed in SEEDS:
            checked_run(name, density, seed, tally)
    assert tally["refined"] >= 1, tally
    assert tally["bounds only"] >= 1, tally
