"""The array-form measurement round against the list form it replaced.

``_reference_share`` and ``_reference_joint`` are ``share_measurements`` and
``joint_log_likelihoods`` as they were when the round carried per-receiver
lists of ``(sender, value)`` tuples and found its likelihood columns with
``dict.fromkeys``, verbatim except that inboxes are read by
``_reference_collect``, the per-node log scan ``Medium.collect`` ran before
it became the one-node call of ``Medium.collect_many``, and that the
``(holders, columns)`` matrix comes from ``_matrix_likelihood``, the matrix
kernel that round called (``batch_likelihood`` is elementwise now).  Both
rounds run on identically built media, and every receiver's joint
log-likelihood must match bit for bit, on the direct handoff and on the
message path.

The worlds cover a dense round of over 1 024 pairs (the bounded angle
wrap), a delaying channel whose stale copies make one sender heard
with two values (two likelihood columns), a receiver that is also a sharer,
detectors among the receivers (one that shares nothing), receivers that hear
nothing (one of them a detector, whose row is its own reading alone), and a
sender whose reading is ``-0.0`` in one iteration and ``0.0`` in the next.
"""

import numpy as np
import pytest

from repro.core.cdpf import joint_log_likelihoods, share_measurements
from repro.kernels.geometry import norm2d_many
from repro.kernels.likelihood import _BOUNDED_WRAP_MIN, wrap_angle_many
from repro.models.measurement import BearingMeasurement
from repro.network.deployment import Deployment
from repro.network.links import DelayingLink, IIDLossLink
from repro.network.messages import MeasurementMessage
from repro.network.radio import RadioModel
from repro.network.spatial import GridIndex
from repro.scenario import Scenario

# a cluster within one comm radius of each other, node 6 exactly one radius
# from node 0, nodes 7 and 10 out of range of everyone, node 9 almost on
# node 0
POSITIONS = np.array(
    [
        [100.0, 100.0], [105.0, 100.0], [100.0, 108.0], [92.0, 97.0], [110.0, 110.0],
        [95.0, 112.0], [100.0, 130.0], [170.0, 170.0], [120.0, 100.0], [101.0, 99.0],
        [20.0, 20.0],
    ]
)

#: per iteration: sharers, receivers, detectors, readings.  Node 0 receives
#: and shares, node 9 detects but shares nothing, node 7 detects out of range
#: of every sharer (its row is its own reading alone), node 10 hears nothing
#: and detects nothing (no row), and node 1 reads -0.0, then 0.0.
SCHEDULE = [
    (
        [0, 1, 2, 3, 4, 8],
        [0, 1, 2, 3, 5, 6, 7, 9, 10],
        {0, 1, 2, 3, 4, 7, 8, 9},
        {0: 0.3, 1: -0.0, 2: -1.2, 3: 2.9, 4: -3.1, 7: 0.7, 8: 1.5, 9: 0.05},
    ),
    (
        [0, 1, 2, 4],
        [0, 1, 2, 3, 5, 6, 7, 8, 9, 10],
        {0, 1, 2, 4, 7, 9},
        {0: 0.31, 1: 0.0, 2: -1.25, 4: -3.0, 7: 0.6, 9: 0.04},
    ),
]


def _reference_collect(medium, node_id):
    log = medium._inbox_log
    start = medium._inbox_cursor.get(node_id, 0)
    end = len(log)
    if start >= end:
        return []
    out = []
    for i in range(start, end):
        receivers, message = log[i]
        if receivers.size == 1:
            if receivers[0] == node_id:
                out.append(message)
            continue
        pos = np.searchsorted(receivers, node_id)
        if pos < receivers.size and receivers[pos] == node_id:
            out.append(message)
    medium._inbox_cursor[node_id] = end
    return out


def _reference_share(medium, sharers, receivers, measurements, iteration, *, direct):
    values = [(s, float(measurements[s])) for s in sharers]
    if direct:
        if sharers:
            sizes = medium.sizes
            medium.accounting.record(
                iteration,
                MeasurementMessage.category,
                (sizes.header + sizes.measurement) * len(sharers),
                len(sharers),
            )
        spos = medium.positions[sharers]
        rpos = medium.positions[receivers]
        dx = rpos[:, None, 0] - spos[None, :, 0]
        dy = rpos[:, None, 1] - spos[None, :, 1]
        radius = medium.radio.comm_radius
        in_range = dx * dx + dy * dy <= radius * radius
        in_range &= np.asarray(receivers)[:, None] != np.asarray(sharers)[None, :]
        row, col = np.nonzero(in_range)  # row-major: each receiver's sharers ascending
        bounds = np.searchsorted(row, np.arange(len(receivers) + 1)).tolist()
        col = col.tolist()
        heard = [[values[j] for j in col[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]
    else:
        batch = medium.transmission_batch(iteration)
        for s, value in values:
            batch.broadcast(s, MeasurementMessage(sender=s, iteration=iteration, value=value))
        batch.flush()
        heard = [
            [(m.sender, m.value) for m in _reference_collect(medium, r)
             if isinstance(m, MeasurementMessage)]
            for r in receivers
        ]
    medium.clear_inboxes()
    return heard


def _matrix_likelihood(
    holder_positions: np.ndarray,
    lam: np.ndarray,
    sensor_positions: np.ndarray,
    zs: np.ndarray,
    noise_std: float,
) -> np.ndarray:
    hp = np.asarray(holder_positions, dtype=np.float64)
    sp = np.asarray(sensor_positions, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    dx = hp[:, 0, None] - sp[None, :, 0]
    dy = hp[:, 1, None] - sp[None, :, 1]
    # two squared distances on purpose: the scalar chain measures d_sr with
    # np.linalg.norm (FMA-contracted dot) but guards the flat factor with the
    # kernel's own plain mul-add r2 — replicate both bit patterns
    r2 = dx * dx + dy * dy
    d = norm2d_many(dx, dy)
    h = (0.5 / np.sqrt(lam))[:, None]
    sigma_quant = np.where(d > 0, np.arctan(h / np.maximum(d, h)), 0.0)
    sigma_eff = np.hypot(noise_std, sigma_quant)
    predicted = np.arctan2(dy, dx)
    residual = wrap_angle_many(zs[None, :] - predicted)
    out = -0.5 * (residual / sigma_eff) ** 2
    return np.where(r2 < 1e-12, 0.0, out)


def _reference_joint(scenario, neighbors, receivers, heard, detectors, measurements):
    positions = scenario.deployment.positions
    measurement = scenario.measurement
    rows = []
    pair_lists = []
    for r, pairs in zip(receivers, heard):
        if r in detectors:
            pairs = pairs + [(r, measurements[r])]
        if pairs:
            rows.append(r)
            pair_lists.append(pairs)
    if not rows:
        return {}
    distinct = dict.fromkeys(pair for pairs in pair_lists for pair in pairs)
    col_of = {pair: j for j, pair in enumerate(distinct)}
    senders = [s for s, _ in col_of]
    if measurement.reference == "node":
        refs = positions[senders]
    else:
        refs = np.zeros((len(senders), 2))
    zs = np.array([z for _, z in col_of], dtype=np.float64)
    lam_denom = np.pi * scenario.radio.comm_radius**2
    neighbors.warm_degrees(rows)
    lam = np.array([(neighbors.degree(r) + 1) / lam_denom for r in rows])
    matrix = _matrix_likelihood(positions[rows], lam, refs, zs, measurement.noise_std)
    return {
        r: float(matrix[i, [col_of[pair] for pair in pairs]].mean())
        for i, (r, pairs) in enumerate(zip(rows, pair_lists))
    }


def _scenario(link, reference="node"):
    deployment = Deployment(
        positions=POSITIONS, width=200.0, height=200.0, index=GridIndex(POSITIONS, 10.0)
    )
    return Scenario(
        deployment=deployment,
        radio=RadioModel(comm_radius=30.0),
        measurement=BearingMeasurement(noise_std=0.05, reference=reference),
        link_model=link,
    )


def _bits(log_liks: dict) -> list:
    """Keys in order with the exact bits of every value (``-0.0 != 0.0``)."""
    return [(r, float(v).hex()) for r, v in log_liks.items()]


def _joint(*args) -> dict:
    """:func:`joint_log_likelihoods`' ``(ids, log_liks)`` arrays as the
    reference's ``{id: log_lik}``."""
    ids, log_liks = joint_log_likelihoods(*args)
    return dict(zip(ids.tolist(), log_liks.tolist()))


def _as_lists(heard, n_receivers):
    rows, senders, values = heard
    return [
        [(s, float(v).hex()) for s, v in zip(senders[rows == i].tolist(), values[rows == i].tolist())]
        for i in range(n_receivers)
    ]


def _run(share, joint, link, *, direct, reference="node"):
    scenario = _scenario(link, reference)
    medium = scenario.make_medium()
    neighbors = scenario.make_neighbor_tables()
    rounds = []
    for iteration, (sharers, receivers, detectors, readings) in enumerate(SCHEDULE):
        heard = share(medium, sharers, receivers, readings, iteration, direct=direct)
        rounds.append((heard, joint(scenario, neighbors, receivers, heard, detectors, readings)))
    return rounds, medium.accounting.by_phase_key


def _delaying():
    return DelayingLink(IIDLossLink(p_loss=0.0, seed=5), p_delay=0.5, seed=3)


@pytest.mark.parametrize(
    "link, direct",
    [(None, True), (None, False), ("delay", False)],
    ids=["direct", "message", "message-delaying"],
)
@pytest.mark.parametrize("reference", ["node", "origin"])
def test_round_matches_list_reference(link, direct, reference):
    make = _delaying if link == "delay" else (lambda: None)
    got, ledger = _run(share_measurements, _joint, make(), direct=direct,
                       reference=reference)
    want, want_ledger = _run(_reference_share, _reference_joint, make(), direct=direct,
                             reference=reference)
    assert ledger == want_ledger
    for (heard, log_liks), (ref_heard, ref_log_liks), (_, receivers, _, _) in zip(
        got, want, SCHEDULE
    ):
        assert _as_lists(heard, len(receivers)) == [
            [(s, float(v).hex()) for s, v in pairs] for pairs in ref_heard
        ]
        assert _bits(log_liks) == _bits(ref_log_liks)
        # out of range of everyone: a detector's row is its own reading,
        # any other receiver is left out
        assert 7 in log_liks and 10 not in log_liks


def test_delaying_channel_gives_one_sender_two_columns():
    """The scenario the pair-keyed columns exist for: stale copies arrive
    beside fresh ones, and node 1's -0.0 and 0.0 share a column."""
    (_, (heard, _)), _ = _run(share_measurements, joint_log_likelihoods, _delaying(),
                              direct=False)
    rows, senders, values = heard
    twice = [
        (i, s) for i in np.unique(rows).tolist() for s in np.unique(senders[rows == i]).tolist()
        if np.count_nonzero(senders[rows == i] == s) > 1
    ]
    assert twice, "no receiver heard a stale and a fresh copy of one sender"
    assert any(np.unique(values[(rows == i) & (senders == s)]).size == 2 for i, s in twice)
    signs = {float(v).hex() for v in values[senders == 1].tolist()}
    assert signs == {"-0x0.0p+0", "0x0.0p+0"}


def test_signed_zero_columns_keep_the_first_reading():
    """Handed-in rows where one sender reads -0.0 in one row and 0.0 in the
    next, plus a repeat of the pair inside a row."""
    scenario = _scenario(None)
    receivers = [0, 2, 3, 5, 7]
    readings = {0: 0.3, 2: -0.0, 3: 0.0, 7: 1.0}
    ref_heard = [
        [(1, -0.0), (4, 0.5)],
        [(1, 0.0), (4, 0.5), (1, -0.0)],
        [],
        [(4, 0.5), (1, 0.0)],
        [],
    ]
    rows = np.array([i for i, pairs in enumerate(ref_heard) for _ in pairs], dtype=np.intp)
    senders = np.array([s for pairs in ref_heard for s, _ in pairs], dtype=np.intp)
    values = np.array([v for pairs in ref_heard for _, v in pairs], dtype=np.float64)
    detectors = {0, 2, 3, 7}
    got = _joint(
        scenario, scenario.make_neighbor_tables(), receivers, (rows, senders, values),
        detectors, readings,
    )
    want = _reference_joint(
        scenario, scenario.make_neighbor_tables(), receivers, ref_heard, detectors, readings
    )
    assert _bits(got) == _bits(want)
    assert list(got) == [0, 2, 3, 5, 7]


def test_dense_round_takes_the_bounded_wrap():
    """A round of over 1 024 heard pairs, so the elementwise kernel's
    bearing wrap takes its bounded (range-checked) path; every row still
    matches the matrix reference bit for bit."""
    rng = np.random.default_rng(23)
    positions = rng.uniform(0.0, 60.0, size=(160, 2))
    deployment = Deployment(
        positions=positions, width=60.0, height=60.0, index=GridIndex(positions, 10.0)
    )
    scenario = Scenario(
        deployment=deployment,
        radio=RadioModel(comm_radius=30.0),
        measurement=BearingMeasurement(noise_std=0.05, reference="node"),
    )
    sharers = sorted(rng.choice(160, size=50, replace=False).tolist())
    receivers = sorted(rng.choice(160, size=90, replace=False).tolist())
    detectors = set(sharers) | set(rng.choice(160, size=10).tolist())
    readings = {d: float(rng.uniform(-np.pi, np.pi)) for d in sorted(detectors)}
    heard = share_measurements(
        scenario.make_medium(), sharers, receivers, readings, 0, direct=True
    )
    assert heard[0].size >= _BOUNDED_WRAP_MIN
    got = _joint(
        scenario, scenario.make_neighbor_tables(), receivers, heard, detectors, readings
    )
    ref_heard = _reference_share(
        scenario.make_medium(), sharers, receivers, readings, 0, direct=True
    )
    want = _reference_joint(
        scenario, scenario.make_neighbor_tables(), receivers, ref_heard, detectors, readings
    )
    assert _bits(got) == _bits(want)
