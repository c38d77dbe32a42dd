"""CDPF's holder round against the per-recorder dict reference, bit for bit.

The reference is the round as it ran over ``dict[int, HeldParticle]``,
kept here verbatim: ``_combine_reference`` (one ``combine_shares`` per
recorder over contiguous slices of the stably sorted shares) and
``_correct_reference`` (the correction's drop rule and per-recorder
renormalization loop).  The array round is
``combine_shares_grouped`` + ``drop_and_normalize`` over a
:class:`HolderSet`; both must give the same ids in the same order, the same
weights and velocities bit for bit, the same dropped count and the same
renormalized-short flag.

Group sizes sit around numpy's pairwise-summation block edges (1-9,
127-130, 255-257), in one length bucket or many; the draws cover
zero-weight groups, unsorted recorder ids with their shares interleaved,
weights spanning six orders of magnitude, and lost copies (a recorder may
lose more weight than the round carried).  Creation appends its creators
with the mean weight of the existing holders *in row order*, which after a
degraded-fallback iteration need not be id order; the second test builds
unsorted holder sets and checks the appended rows against the dict's
insertion-order mean.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cdpf import CDPFTracker, drop_and_normalize
from repro.core.propagation import HolderSet, combine_shares_grouped
from repro.scenario import make_paper_scenario

_SIZES = [*range(1, 10), 127, 128, 129, 130, 255, 256, 257]


@dataclass
class _HeldParticle:
    velocity: np.ndarray  # (2,)
    weight: float

    def __post_init__(self) -> None:
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(2)
        if not np.isfinite(self.velocity).all():
            raise ValueError("velocity must be finite")
        if not (np.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"weight must be finite and non-negative, got {self.weight}")


def _combine_reference(recorders, weights, velocities) -> dict[int, _HeldParticle]:
    rids = np.asarray(recorders, dtype=np.intp)
    if rids.size == 0:
        return {}
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("share weights must be non-negative")
    order = np.argsort(rids, kind="stable")
    rids = rids[order]
    w = w[order]
    v = np.asarray(velocities, dtype=np.float64).reshape(-1, 2)[order]
    bounds = np.flatnonzero(
        np.concatenate([[True], rids[1:] != rids[:-1], [True]])
    ).tolist()
    combined: dict[int, _HeldParticle] = {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        w_g = w[a:b]
        total = float(w_g.sum())
        if total > 0.0:
            velocity = (w_g / total) @ v[a:b]
        else:
            velocity = v[a:b].mean(axis=0)
        combined[int(rids[a])] = _HeldParticle(velocity=velocity, weight=total)
    return combined


def _correct_reference(combined, drop_threshold, total_eff, lost, w_eff):
    any_lost = lost is not None and any(lost_ids.size for lost_ids in lost)
    lost_weight_at: dict[int, float] = {}
    if any_lost:
        for bi, lost_ids in enumerate(lost):
            w_bi = float(w_eff[bi])
            for r in lost_ids.tolist():
                lost_weight_at[r] = lost_weight_at.get(r, 0.0) + w_bi

    max_share = max((p.weight for p in combined.values()), default=0.0)
    threshold = drop_threshold * max_share
    new_holders: dict[int, _HeldParticle] = {}
    dropped = 0
    degraded = False
    for rid, particle in combined.items():
        if particle.weight < threshold:
            dropped += 1
            continue
        lost_w = lost_weight_at.get(rid, 0.0)
        if lost_w > 0.0:
            degraded = True
            denom = total_eff - lost_w
            if denom <= 0.0:
                denom = total_eff
        else:
            denom = total_eff
        particle.weight = particle.weight / denom
        new_holders[rid] = particle
    return new_holders, dropped, degraded


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


@st.composite
def _rounds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.integers(1, 8))
    if draw(st.booleans()):  # one length bucket
        sizes = [draw(st.sampled_from(_SIZES))] * n_groups
    else:
        sizes = draw(st.lists(st.sampled_from(_SIZES), min_size=n_groups, max_size=n_groups))
    ids = rng.choice(10**6, size=n_groups, replace=False)  # unsorted
    recorders = np.repeat(ids, sizes)
    weights = rng.random(recorders.size) * 10.0 ** rng.integers(-3, 4, recorders.size)
    zero = rng.random(n_groups) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    weights[np.repeat(zero, sizes)] = 0.0
    velocities = rng.normal(0.0, 10.0, size=(recorders.size, 2))
    # shares arrive in broadcast order, each recorder's interleaved with
    # the others'
    perm = rng.permutation(recorders.size)
    n_broadcasts = int(rng.integers(1, 40))
    w_eff = rng.random(n_broadcasts) * 10.0 ** rng.integers(-2, 3, n_broadcasts) + 1e-3
    lost = None
    if draw(st.booleans()):
        pool = np.concatenate((ids, rng.choice(10**6, size=4)))
        lost = [
            rng.choice(pool, size=int(rng.integers(0, pool.size + 1)), replace=False)
            for _ in range(n_broadcasts)
        ]
    drop_threshold = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    return recorders[perm], weights[perm], velocities[perm], w_eff, lost, drop_threshold


@given(_rounds())
def test_holder_round_equals_dict_reference(round_):
    recorders, weights, velocities, w_eff, lost, drop_threshold = round_
    total_eff = float(w_eff.sum())
    combined = HolderSet(*combine_shares_grouped(recorders, weights, velocities))
    any_lost = lost is not None and any(lost_ids.size for lost_ids in lost)
    kept, dropped, short = drop_and_normalize(
        combined, drop_threshold, total_eff, lost if any_lost else None, w_eff
    )

    ref_combined = _combine_reference(recorders, weights, velocities)
    assert combined.ids.tolist() == list(ref_combined)
    assert _bits(combined.weights) == _bits([p.weight for p in ref_combined.values()])
    assert _bits(combined.velocities) == _bits([p.velocity for p in ref_combined.values()])

    ref, ref_dropped, ref_degraded = _correct_reference(
        ref_combined, drop_threshold, total_eff, lost, w_eff
    )
    assert kept.ids.tolist() == list(ref)
    assert _bits(kept.weights) == _bits([p.weight for p in ref.values()])
    assert _bits(kept.velocities) == _bits([p.velocity for p in ref.values()])
    assert (dropped, short) == (ref_dropped, ref_degraded)


_SCENARIO = make_paper_scenario(10.0, rng=np.random.default_rng(0), width=60.0, height=60.0)


@st.composite
def _creations(draw):
    n_nodes = _SCENARIO.deployment.positions.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_holders = draw(st.sampled_from([0, 1, 2, 3, 8, 9, 17, 130]))
    ids = rng.choice(n_nodes, size=n_holders, replace=False)  # row order: unsorted
    weights = rng.random(n_holders) * 10.0 ** rng.integers(-3, 4, n_holders)
    velocities = rng.normal(0.0, 3.0, size=(n_holders, 2))
    detectors = np.unique(
        np.concatenate((rng.choice(ids, size=min(3, n_holders)) if n_holders else [],
                        rng.choice(n_nodes, size=draw(st.integers(0, 12)))))
    ).astype(np.intp)
    estimate = None if draw(st.booleans()) else rng.uniform(0.0, 60.0, size=2)
    return ids, weights, velocities, detectors, estimate


@given(_creations())
def test_creators_take_the_row_order_mean(creation):
    ids, weights, velocities, detectors, estimate = creation
    tracker = CDPFTracker(_SCENARIO, rng=np.random.default_rng(1))
    tracker.holders = HolderSet(ids, weights, velocities)
    tracker._estimate = estimate
    created = tracker._create_new_particles(None, detectors)

    ref = {int(i): (float(w), v) for i, w, v in zip(ids, weights, velocities)}
    base = float(np.mean([w for w, _ in ref.values()])) if ref else tracker.initial_weight
    positions = _SCENARIO.deployment.positions
    v0 = np.asarray(_SCENARIO.prior_velocity, dtype=np.float64)
    ref_created = [int(d) for d in detectors if int(d) not in ref]
    for nid in ref_created:
        if estimate is not None:
            ref[nid] = (base, (positions[nid] - estimate) / _SCENARIO.dynamics.dt)
        else:
            ref[nid] = (base, v0.copy())

    assert created.tolist() == ref_created
    assert tracker.holders.ids.tolist() == list(ref)
    assert _bits(tracker.holders.weights) == _bits([w for w, _ in ref.values()])
    assert _bits(tracker.holders.velocities) == _bits([v for _, v in ref.values()])
