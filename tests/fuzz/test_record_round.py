"""``record_shares`` against a per-broadcast reference, bit for bit.

The reference evaluates each broadcast row on its own, the way the
per-message propagation loops did: a brute-force scan for the nodes in the
row's predicted area and its sender's comm radius that are anticipated
available and did not lose the sender's copy, then the scalar recorder
selection and division (``_scalar_reference``) and one ``implied_velocity``
per recorder.  Geometries are drawn on a coarse lattice so that probability
ties (equal distances, co-located nodes) are common, plus nodes placed just
inside a row's recording radius ``R·(1 − threshold)`` (relative margins
1e-12 to 5e-4), where a query short of that radius loses recorders; the
draws also cover record thresholds up to 0.9, ``max_recorders``, lost
copies, unavailable recorders, several rows per sender and track mode's
shared predicted area.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cdpf import record_shares
from repro.core.propagation import PropagationConfig, implied_velocity
from repro.network.spatial import GridIndex

from ..kernels.test_propagation_kernel import _scalar_reference

_MODES = ("track", "blend", "displacement", "inherit")


@st.composite
def _rounds(draw):
    config = PropagationConfig(
        predicted_area_radius=draw(st.sampled_from([1.5, 2.0, 3.0, 4.5])),
        record_threshold=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9])),
        max_recorders=draw(st.none() | st.integers(1, 4)),
        velocity_mode=draw(st.sampled_from(_MODES)),
        velocity_alpha=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
    )
    dt = draw(st.sampled_from([1.0, 2.0]))
    n = draw(st.integers(2, 40))
    # half-metre lattice: equal distances (probability ties) are common
    positions = np.array(
        draw(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    ) / 2.0
    senders = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(senders), max_size=len(senders)))
    rows = sum(counts)
    velocities = np.array(
        draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                      min_size=rows, max_size=rows)),
        dtype=np.float64,
    ) / 2.0
    weights = np.array(
        draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5]) | st.floats(0.01, 3.0),
                      min_size=rows, max_size=rows))
    )
    states = np.column_stack([np.repeat(positions[senders], counts, axis=0), velocities])
    shared = None
    if draw(st.booleans()):
        shared = np.array(draw(st.tuples(st.integers(0, 16), st.integers(0, 16))), dtype=float) / 2
    # nodes just inside a row's recording radius
    reach = config.predicted_area_radius * (1.0 - config.record_threshold)
    edge = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, rows - 1))
        pred = shared if shared is not None else states[j, :2] + states[j, 2:] * dt
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        d = reach * (1.0 - draw(st.sampled_from([1e-12, 1e-6, 1e-4, 5e-4])))
        edge.append(pred + d * np.array([np.cos(theta), np.sin(theta)]))
    if edge:
        positions = np.vstack([positions, edge])
        n = positions.shape[0]
    direct = draw(st.booleans())
    lost = None
    down: set[int] = set()
    if not direct:
        lost = [
            np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 2))), dtype=np.intp)
            for _ in senders
        ]
        down = draw(st.sets(st.integers(0, n - 1), max_size=3))
    anticipated = None
    if draw(st.booleans()):
        anticipated = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    track_velocity = None
    if draw(st.booleans()):
        track_velocity = np.array(draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4))), dtype=float)
    return SimpleNamespace(
        positions=positions,
        states=states,
        weights=weights,
        counts=counts,
        lost=lost,
        down=down,
        config=config,
        shared=shared,
        anticipated=anticipated,
        track_velocity=track_velocity,
        comm_radius=draw(st.sampled_from([2.0, 3.5, 5.0, 12.0])),
        dt=dt,
        cell=draw(st.sampled_from([0.5, 1.0, 3.0])),
    )


def _reference(rnd):
    """One row at a time, the per-message way."""
    cfg, pos = rnd.config, rnd.positions
    ids = np.arange(pos.shape[0], dtype=np.intp)
    out_ids, out_shares, out_vels = [], [], []
    broadcast_of = np.repeat(np.arange(len(rnd.counts)), rnd.counts)
    for j, state in enumerate(rnd.states):
        sender_pos, sender_vel = state[:2], state[2:]
        pred = rnd.shared if rnd.shared is not None else sender_pos + sender_vel * rnd.dt
        a = pos - pred
        in_area = a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] <= (
            cfg.predicted_area_radius * cfg.predicted_area_radius
        )
        s = pos - sender_pos
        heard = np.sqrt(s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1]) <= rnd.comm_radius
        keep = in_area & heard
        if rnd.anticipated is not None:
            keep &= rnd.anticipated
        if rnd.lost is not None:
            keep[rnd.lost[broadcast_of[j]]] = False
        sel, _, shares = _scalar_reference(
            pred, rnd.weights[j], ids, pos,
            area_radius=cfg.predicted_area_radius,
            record_threshold=cfg.record_threshold,
            max_recorders=cfg.max_recorders,
            keep=keep,
        )
        for r, share in zip(ids[sel].tolist(), shares.tolist()):
            if rnd.lost is not None and r in rnd.down:
                continue  # an unavailable recorder loses its share
            out_ids.append(r)
            out_shares.append(share)
            out_vels.append(implied_velocity(
                sender_pos, pos[r], sender_vel, rnd.dt, cfg.velocity_mode,
                cfg.velocity_alpha, track_velocity=rnd.track_velocity,
            ))
    return (
        np.array(out_ids, dtype=np.intp),
        np.array(out_shares, dtype=np.float64),
        np.array(out_vels, dtype=np.float64).reshape(-1, 2),
    )


@given(rnd=_rounds())
def test_record_shares_equals_per_broadcast_reference(rnd):
    scenario = SimpleNamespace(
        deployment=SimpleNamespace(
            positions=rnd.positions, index=GridIndex(rnd.positions, rnd.cell)
        ),
        dynamics=SimpleNamespace(dt=rnd.dt),
        radio=SimpleNamespace(comm_radius=rnd.comm_radius),
    )
    medium = SimpleNamespace(is_available=lambda r: r not in rnd.down)
    anticipate = None
    if rnd.anticipated is not None:
        anticipate = lambda ids: rnd.anticipated[ids]  # noqa: E731
    got = record_shares(
        scenario, medium, rnd.config, rnd.states, rnd.weights, rnd.counts, rnd.lost,
        track_velocity=rnd.track_velocity,
        shared_prediction=rnd.shared,
        anticipate=anticipate,
    )
    expected = _reference(rnd)
    for g, e in zip(got, expected):
        assert g.shape == e.shape
        assert np.array_equal(g, e)
