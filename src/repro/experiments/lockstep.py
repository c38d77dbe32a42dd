"""Lock-step batched sweep execution: many cells, one stacked phase at a time.

The process-pool engine parallelizes *across* cells but leaves each cell's
iteration as scalar Python orchestration around the SoA kernels.  This
backend flips the loop order: same-``(density, algorithm)`` cells advance
together, phase by phase, so the per-phase work of many cells executes as
one stacked array op (the cross-cell batch axis of ``repro.kernels``) and
the per-cell medium machinery — per-message inbox logging, per-broadcast
ledger rows, per-copy offered-set queries — collapses into aggregate
bookkeeping with identical observable totals.

Bit-identity contract (pinned by ``tests/experiments/test_lockstep.py``):

* every cell keeps its **own** tracker instance, RNG streams and holder
  state — only the *schedule* changes, never the data flow;
* every phase body is a transcription of the tracker's phase for the
  supported envelope, with the medium's message transport replaced by
  direct handoff: on a reliable medium every broadcast reaches exactly the
  in-range nodes (the medium's own ``d2 <= r^2`` membership test,
  replicated bitwise), the inbox round trip is a pure formality, and in
  ``velocity_mode="track"`` every recorded share carries the same
  consensus velocity, so the correction's per-broadcast recorder loop
  collapses into one grouped stable-sort combine with identical floats;
* RNG consumption is preserved draw for draw (``Generator.uniform(size=n)``
  produces the same stream as ``n`` scalar draws — pinned by a test);
* communication accounting records the same per-``(iteration, category,
  phase)`` totals as the per-message path; the ledger's dict views (the
  only consumers) cannot distinguish one aggregated row from ``n``
  per-message rows.

Cells whose tracker or scenario falls outside the supported envelope
(custom factories, unreliable media, consistency checking, localization
error, ...) are executed through the serial per-cell path instead — the
engine routes them before this module ever sees them, and a residual guard
here re-routes anything the factory check could not predict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..core.propagation import HeldParticle
from ..factory import _NamedFactory
from ..kernels.contributions import batch_contributions
from ..kernels.geometry import norm2d_many
from ..kernels.likelihood import batch_likelihood
from ..kernels.propagation import batch_propagate
from ..models.measurement import BearingMeasurement, wrap_angle
from ..network.messages import MeasurementMessage, ParticleMessage
from ..network.sensing import InstantDetection
from ..runtime import IterationState
from ..scenario import Scenario, StepContext, make_paper_scenario, make_trajectory
from .runner import generate_step_context, summarize_tracking_run

__all__ = ["partition_batchable", "run_lockstep"]

#: Default-config tracker families the lock-step handlers cover.
_BATCHABLE_FAMILIES = frozenset({"CDPF", "CDPF-NE"})


def partition_batchable(pending):
    """Split ``(index, spec)`` pairs into (lock-steppable, everything else).

    Only the registry's own default factories are batchable: a custom
    factory may configure the tracker arbitrarily, so it goes down the
    per-cell path the factory was written against.
    """
    batchable, rest = [], []
    for item in pending:
        factory = item[1].factory
        if isinstance(factory, _NamedFactory) and factory.name in _BATCHABLE_FAMILIES:
            batchable.append(item)
        else:
            rest.append(item)
    return batchable, rest


def _supported(tracker, scenario: Scenario) -> bool:
    """Residual guard: the exact envelope the phase handlers replicate."""
    from ..core.cdpf import CDPFTracker

    return (
        type(tracker) is CDPFTracker
        and tracker.anticipate_available is None
        and not tracker.check_consistency
        and not tracker.report_to_sink
        and not tracker.medium.is_unreliable
        and tracker.config.velocity_mode == "track"
        and not tracker.config.adaptive_area
        and scenario.physical is None
        and scenario.link_model is None
    )


# ---------------------------------------------------------------------------
# shared worlds: one scenario/trajectory/sensing pass per (density, seed)
# ---------------------------------------------------------------------------


@dataclass
class _World:
    """Everything algorithm-independent about one (density, seed) cell.

    The engine's streams key on ``(density, seed)`` only, so every
    algorithm at a cell sees the same deployment, trajectory and sensing
    noise; the lock-step backend computes them once and shares them across
    the algorithm groups (the serial path rebuilds them per cell)."""

    scenario: Scenario
    trajectory: object
    contexts: list[StepContext]


def _fast_contexts_supported(scenario: Scenario) -> bool:
    return (
        not scenario.detect_on_path
        and type(scenario.detection) is InstantDetection
        and type(scenario.measurement) is BearingMeasurement
    )


def _generate_contexts(scenario, trajectory, rng, n_iterations) -> list[StepContext]:
    """The whole run's sensing-layer outputs, consuming ``rng`` exactly as
    the per-iteration :func:`generate_step_context` calls would."""
    if not _fast_contexts_supported(scenario):
        return [
            generate_step_context(scenario, trajectory, k, rng)
            for k in range(n_iterations + 1)
        ]
    physical = scenario.physical_deployment
    index = physical.index
    positions = physical.positions
    measurement = scenario.measurement
    bias_std = scenario.measurement_bias_std
    contexts: list[StepContext] = []
    for k in range(n_iterations + 1):
        target_pos = trajectory.position_at_iteration(k)
        detectors = scenario.detection.detect(index, target_pos[None, :], rng)
        bias = rng.normal(0.0, bias_std) if bias_std else 0.0
        measurements: dict[int, float] = {}
        if detectors.size:
            # vectorized BearingMeasurement.measure: one arctan2/normal/wrap
            # pass over the detector set, draw-for-draw identical to the
            # scalar per-detector loop (Generator.normal(size=n) produces
            # the same stream as n scalar draws)
            if measurement.reference == "node":
                refs = positions[detectors]
            else:
                refs = np.zeros((detectors.size, 2))
            d = target_pos[None, :] - refs
            true_vals = np.arctan2(d[:, 1], d[:, 0])
            noises = rng.normal(0.0, measurement.noise_std, size=detectors.size)
            zs = wrap_angle(true_vals + noises) + bias
            measurements = {int(nid): zs[i] for i, nid in enumerate(detectors)}
        contexts.append(
            StepContext(iteration=k, detectors=detectors, measurements=measurements)
        )
    return contexts


def _build_world(spec) -> _World:
    from .engine import task_seed_sequences

    task = spec.task
    streams = task_seed_sequences(spec.base_seed, task.density, task.seed)
    world_rng = np.random.default_rng(streams["world"])
    scenario = make_paper_scenario(
        density_per_100m2=task.density, rng=world_rng, **spec.scenario_kwargs
    )
    trajectory = make_trajectory(
        n_iterations=spec.n_iterations, rng=world_rng, **spec.trajectory_kwargs
    )
    contexts = _generate_contexts(
        scenario, trajectory, np.random.default_rng(streams["sensing"]), spec.n_iterations
    )
    return _World(scenario=scenario, trajectory=trajectory, contexts=contexts)


# ---------------------------------------------------------------------------
# per-group lock-step execution
# ---------------------------------------------------------------------------


@dataclass
class _Cell:
    """One task's live state inside a lock-step group."""

    index: int
    spec: object
    world: _World
    tracker: object
    estimates: dict[int, np.ndarray] = field(default_factory=dict)
    detectors_per_iteration: list[int] = field(default_factory=list)


def _phase_propagation_batch(group: list[tuple[_Cell, IterationState]], k: int) -> None:
    for cell, state in group:
        if state.done:
            continue
        t0 = time.perf_counter()
        tracker = cell.tracker
        ctx = state.ctx
        with tracker.medium.phase("propagation"):
            state.detectors = set(int(d) for d in np.asarray(ctx.detectors).ravel())
            if not tracker.holders:
                tracker._initialize(ctx, state.detectors)
                state.finish(None)
            else:
                positions = tracker.scenario.deployment.positions
                # the (B, 4) sender-state matrix the reliable correction
                # would assemble by vstacking one ParticleMessage per
                # holder — same rows (position ++ velocity), same sorted
                # holder order, no message objects
                ids = sorted(tracker.holders)
                states = np.concatenate(
                    [
                        positions[ids],
                        np.array([tracker.holders[n].velocity for n in ids]),
                    ],
                    axis=1,
                )
                weights = np.array(
                    [tracker.holders[n].weight for n in ids], dtype=np.float64
                )
                state.broadcast = (states, weights)
                # one aggregated ledger row == n per-message rows in every
                # (iteration, category, phase) view.  Every live broadcast
                # is charged whether or not anyone is in range, exactly as
                # the reliable medium does; one-particle ParticleMessage
                # without a carried prediction.
                sizes = tracker.medium.sizes
                n_bytes = sizes.header + sizes.particle + sizes.weight
                tracker.medium.accounting.record(
                    k, ParticleMessage.category, n_bytes * len(ids), len(ids)
                )
        tracker.stats.record_phase("propagation", time.perf_counter() - t0)


def _correction_fast(tracker, state: IterationState, k: int) -> None:
    """Transcription of ``CDPFTracker._phase_correction`` for the supported
    envelope: reliable medium, everyone available, ``velocity_mode="track"``,
    no adaptive area, no consistency recording, no sink reports.

    Under those guards the per-broadcast recorder loop collapses: every
    recorded share carries the same consensus velocity, no copy is ever
    lost, and the per-recorder combine becomes a stable grouped pass over
    the concatenated ``(recorder, share)`` pairs — same share values, same
    per-group summation order, same sorted-recorder combine order as the
    scalar ``shares_at`` / ``combine_shares`` chain.
    """
    if getattr(state, "broadcast", None) is None:
        return  # nothing was propagated; the estimate stays unavailable
    states, weights = state.broadcast
    positions = tracker.scenario.deployment.positions
    index = tracker.scenario.deployment.index
    dt = tracker.scenario.dynamics.dt
    cfg = tracker.config

    # --- overheard aggregate (identical at every in-area node) --------
    total = float(weights.sum())
    w_eff = weights if total > 0 else np.full(weights.shape[0], 1.0 / weights.shape[0])
    total_eff = float(w_eff.sum())
    estimate = (w_eff @ states[:, :2]) / total_eff
    carried = (w_eff @ states[:, 2:]) / total_eff
    if tracker._estimate is not None and tracker._estimate_iter == k - 2:
        displacement = (estimate - tracker._estimate) / dt
        beta = cfg.velocity_alpha
        tracker._velocity_estimate = (1.0 - beta) * carried + beta * displacement
    else:
        tracker._velocity_estimate = carried
    tracker._estimate = estimate
    tracker._estimate_iter = k - 1

    # --- record + divide against the consensus predicted area ---------
    comm_radius = tracker.scenario.radio.comm_radius
    tracker._last_sender_positions = states[:, :2]
    consensus_pred = estimate + tracker._velocity_estimate * dt
    tracker._last_predictions = consensus_pred[None, :]
    cand = index.query_disk(consensus_pred, cfg.predicted_area_radius)
    if cand.size:
        cand_pos = positions[cand]
        sdx = cand_pos[None, :, 0] - states[:, 0:1]
        sdy = cand_pos[None, :, 1] - states[:, 1:2]
        keep_masks = np.sqrt(sdx * sdx + sdy * sdy) <= comm_radius
        selected = batch_propagate(
            np.broadcast_to(consensus_pred, (states.shape[0], 2)),
            w_eff,
            cand,
            cand_pos,
            area_radius=cfg.predicted_area_radius,
            record_threshold=cfg.record_threshold,
            max_recorders=cfg.max_recorders,
            keep_masks=keep_masks,
        )
    else:
        selected = []

    # --- combine shares per recorder (sorted ids, broadcast order) -----
    v_est = tracker._velocity_estimate
    rid_chunks = [cand[sel] for sel, _, _ in selected if sel.size]
    combined: dict[int, HeldParticle] = {}
    if rid_chunks:
        rids = np.concatenate(rid_chunks)
        shs = np.concatenate([sh for sel, _, sh in selected if sel.size])
        order = np.argsort(rids, kind="stable")
        rids_s = rids[order]
        shs_s = shs[order]
        bounds = np.flatnonzero(
            np.concatenate([[True], rids_s[1:] != rids_s[:-1], [True]])
        )
        for g in range(bounds.size - 1):
            w_g = shs_s[bounds[g] : bounds[g + 1]]
            total_g = float(w_g.sum())
            velocities = np.tile(v_est, (w_g.size, 1))
            if total_g > 0.0:
                velocity = (w_g / total_g) @ velocities
            else:  # pragma: no cover - shares are strictly positive
                velocity = velocities.mean(axis=0)
            combined[int(rids_s[bounds[g]])] = HeldParticle(
                velocity=velocity, weight=total_g
            )

    # --- drop rule + renormalize (nothing lost => shared denominator) --
    max_share = max((p.weight for p in combined.values()), default=0.0)
    threshold = cfg.drop_threshold * max_share
    new_holders: dict[int, HeldParticle] = {}
    dropped = 0
    for rid, particle in combined.items():
        if particle.weight < threshold:
            dropped += 1
            continue
        particle.weight = particle.weight / total_eff
        new_holders[rid] = particle
    tracker.holders = new_holders
    tracker.stats.dropped_per_iteration.append(dropped)
    state.estimate = estimate


def _phase_correction_batch(group: list[tuple[_Cell, IterationState]], k: int) -> None:
    for cell, state in group:
        if state.done:
            continue
        t0 = time.perf_counter()
        with cell.tracker.medium.phase("correction"):
            _correction_fast(cell.tracker, state, k)
        cell.tracker.stats.record_phase("correction", time.perf_counter() - t0)


def _create_new_particles_fast(tracker, detectors: set[int]) -> set[int]:
    """Vectorized transcription of ``CDPFTracker._create_new_particles``.

    The per-candidate hearing and slack tests become two (detectors,
    senders) matrix ops; the gate's RNG draws are taken as one
    ``uniform(size=n)`` batch consumed in the same sorted-candidate order
    as the scalar loop's per-candidate draws.
    """
    from ..core.propagation import HeldParticle

    positions = tracker.scenario.deployment.positions
    holders = tracker.holders
    if holders:
        base_weight = float(np.mean([p.weight for p in holders.values()]))
    else:
        base_weight = tracker.initial_weight
    sender_pos = tracker._last_sender_positions
    predictions = tracker._last_predictions
    comm_r2 = tracker.scenario.radio.comm_radius**2
    slack_r = tracker.config.creation_slack * tracker.config.predicted_area_radius
    area_ratio = (tracker.scenario.sensing_radius / tracker.scenario.radio.comm_radius) ** 2
    track_alive = bool(holders)
    v0 = np.asarray(tracker.scenario.prior_velocity, dtype=np.float64)
    created: set[int] = set()
    cand = [nid for nid in sorted(detectors) if nid not in holders]
    if not cand:
        return created
    if sender_pos is not None and sender_pos.size:
        cpos = positions[cand]
        d2 = np.sum((sender_pos[None, :, :] - cpos[:, None, :]) ** 2, axis=2)
        heard = d2 <= comm_r2
        heard_any = heard.any(axis=1)
        d_pred = np.sqrt(np.sum((predictions[None, :, :] - cpos[:, None, :]) ** 2, axis=2))
        within = d_pred <= slack_r
        if predictions.shape[0] == sender_pos.shape[0]:
            skip_slack = (within & heard).any(axis=1)
        else:
            skip_slack = within.any(axis=1)
        skip_slack &= heard_any
    else:
        heard_any = np.zeros(len(cand), dtype=bool)
        skip_slack = heard_any
    n_gate = int(np.count_nonzero(heard_any & ~skip_slack)) if track_alive else 0
    if n_gate:
        tracker.neighbors.warm_degrees(
            [nid for i, nid in enumerate(cand) if heard_any[i] and not skip_slack[i]]
        )
    draws = tracker.rng.uniform(size=n_gate) if n_gate else None
    di = 0
    estimate = tracker._estimate
    dt = tracker.scenario.dynamics.dt
    cfg = tracker.config
    for i, nid in enumerate(cand):
        if skip_slack[i]:
            continue
        if track_alive and heard_any[i]:
            n_codetectors = max(1.0, (tracker.neighbors.degree(nid) + 1) * area_ratio)
            u = draws[di]
            di += 1
            if u >= min(1.0, cfg.creation_limit / n_codetectors):
                continue
        if estimate is not None:
            velocity = (positions[nid] - estimate) / dt
        else:
            velocity = v0.copy()
        holders[nid] = HeldParticle(velocity=velocity, weight=base_weight)
        created.add(nid)
    return created


def _phase_creation_batch(group: list[tuple[_Cell, IterationState]], k: int) -> None:
    for cell, state in group:
        if state.done:
            continue
        t0 = time.perf_counter()
        with cell.tracker.medium.phase("creation"):
            state.created = _create_new_particles_fast(cell.tracker, state.detectors)
        cell.tracker.stats.record_phase("creation", time.perf_counter() - t0)


def _likelihood_prepare(tracker, state: IterationState, k: int):
    """Sharer accounting + per-holder (sender, value) pair gathering.

    Replaces the medium's broadcast/collect round trip with its own
    delivery rule: on a reliable medium a holder hears a sharer iff it is
    within comm radius and is not the sharer itself (the ``_offered``
    membership test, squared distances replicated bitwise).  Inbox order is
    the sharers' sorted broadcast order, exactly as the inbox log replays
    it.  Returns ``None`` when no holder has any information this round.
    """
    ctx = state.ctx
    detectors: set[int] = state.detectors
    positions = tracker.scenario.deployment.positions
    holders = tracker.holders
    sharers = sorted(nid for nid in holders if nid in detectors)
    if sharers:
        sizes = tracker.medium.sizes
        n_bytes = sizes.header + sizes.measurement
        tracker.medium.accounting.record(
            k, MeasurementMessage.category, n_bytes * len(sharers), len(sharers)
        )
    rows: list[int] = []
    pair_lists: list[list[tuple[int, float]]] = []
    receivers = [r for r in sorted(holders) if r not in state.created]
    if sharers and receivers:
        svals = [float(ctx.measurements[s]) for s in sharers]
        spos = positions[sharers]
        rpos = positions[receivers]
        dx = rpos[:, None, 0] - spos[None, :, 0]
        dy = rpos[:, None, 1] - spos[None, :, 1]
        radius = tracker.scenario.radio.comm_radius
        heard = dx * dx + dy * dy <= radius * radius
        heard &= np.asarray(receivers)[:, None] != np.asarray(sharers)[None, :]
    else:
        svals = []
        heard = None
    for i, r in enumerate(receivers):
        if heard is not None:
            pairs = [(sharers[j], svals[j]) for j in np.nonzero(heard[i])[0]]
        else:
            pairs = []
        if r in detectors:
            pairs = pairs + [(r, ctx.measurements[r])]
        if not pairs:
            continue
        rows.append(r)
        pair_lists.append(pairs)
    if not rows:
        return None
    col_of: dict[tuple[int, float], int] = {}
    for pairs in pair_lists:
        for pair in pairs:
            if pair not in col_of:
                col_of[pair] = len(col_of)
    measurement = tracker.scenario.measurement
    senders = [s for s, _ in col_of]
    if measurement.reference == "node":
        refs = positions[senders]
    else:
        refs = np.zeros((len(senders), 2))
    zs = np.array([z for _, z in col_of], dtype=np.float64)
    lam_denom = np.pi * tracker.scenario.radio.comm_radius**2
    tracker.neighbors.warm_degrees(rows)
    lam = np.array([(tracker.neighbors.degree(r) + 1) / lam_denom for r in rows])
    return rows, pair_lists, col_of, positions[rows], lam, refs, zs


def _phase_likelihood_batch(group: list[tuple[_Cell, IterationState]], k: int) -> None:
    active = [(cell, state) for cell, state in group if not state.done]
    if not active:
        return
    seconds = {id(cell): 0.0 for cell, _ in active}
    prepared = []
    for cell, state in active:
        t0 = time.perf_counter()
        with cell.tracker.medium.phase("likelihood"):
            data = _likelihood_prepare(cell.tracker, state, k)
        if data is None:
            state.log_liks = {}
        else:
            prepared.append((cell, state, data))
        seconds[id(cell)] += time.perf_counter() - t0
    if prepared:
        # the cross-cell batch axis: every cell's (holders, measurements)
        # log-kernel matrix in one stacked padded kernel call.  Elementwise
        # kernels are bitwise independent of batch shape, so each slice
        # equals the cell's own 2-D call; padded entries are never read.
        t0 = time.perf_counter()
        n_r = max(len(d[0]) for _, _, d in prepared)
        n_c = max(len(d[2]) for _, _, d in prepared)
        hp = np.zeros((len(prepared), n_r, 2))
        lam = np.ones((len(prepared), n_r))
        sp = np.zeros((len(prepared), n_c, 2))
        zsm = np.zeros((len(prepared), n_c))
        for b, (_, _, d) in enumerate(prepared):
            rows, _, col_of, hpos, lam_b, refs, zs = d
            hp[b, : len(rows)] = hpos
            lam[b, : len(rows)] = lam_b
            sp[b, : len(col_of)] = refs
            zsm[b, : len(col_of)] = zs
        noise_std = prepared[0][0].tracker.scenario.measurement.noise_std
        matrices = batch_likelihood(hp, lam, sp, zsm, noise_std)
        share = (time.perf_counter() - t0) / len(prepared)
        for b, (cell, state, d) in enumerate(prepared):
            t0 = time.perf_counter()
            rows, pair_lists, col_of, _, _, _, _ = d
            matrix = matrices[b]
            log_liks: dict[int, float] = {}
            for i, (r, pairs) in enumerate(zip(rows, pair_lists)):
                cols = [col_of[pair] for pair in pairs]
                log_liks[r] = float(matrix[i, cols].mean())
            state.log_liks = log_liks
            seconds[id(cell)] += share + (time.perf_counter() - t0)
    for cell, _ in active:
        cell.tracker.stats.record_phase("likelihood", seconds[id(cell)])


def _phase_assign_weight_batch(group: list[tuple[_Cell, IterationState]], k: int) -> None:
    active = [(cell, state) for cell, state in group if not state.done]
    if not active:
        return
    if not active[0][0].tracker.neighborhood_estimation:
        for cell, state in active:
            t0 = time.perf_counter()
            tracker = cell.tracker
            for r, log_lik in state.log_liks.items():
                particle = tracker.holders[r]
                particle.weight = particle.weight * float(np.exp(log_lik))
            tracker.stats.record_population(len(tracker.holders), len(state.created))
            tracker.stats.record_phase("assign_weight", time.perf_counter() - t0)
        return
    _assign_weights_ne_batch(active)


def _assign_weights_ne_batch(active: list[tuple[_Cell, IterationState]]) -> None:
    """Cross-cell batched ``_assign_weights_ne``: every cell's estimation
    areas concatenated into one CSR :func:`batch_contributions` call."""
    seconds = {id(cell): 0.0 for cell, _ in active}
    prepared = []
    for cell, state in active:
        t0 = time.perf_counter()
        tracker = cell.tracker
        if tracker._estimate is None or tracker._velocity_estimate is None:
            seconds[id(cell)] += time.perf_counter() - t0
            continue
        positions = tracker.scenario.deployment.positions
        dt = tracker.scenario.dynamics.dt
        r_s = tracker.scenario.sensing_radius
        r_c = tracker.scenario.radio.comm_radius
        predicted_now = tracker._estimate + tracker._velocity_estimate * dt
        holders = [r for r in sorted(tracker.holders) if r not in state.created]
        if holders:
            own_diff = positions[holders] - predicted_now
            d_own = norm2d_many(own_diff[:, 0], own_diff[:, 1])
            groups: list[tuple[int, np.ndarray]] = []
            members = None
            if 2.0 * r_s <= 0.999 * r_c:
                # paper's R_s <= R_c/2: any two nodes of one estimation
                # area are mutual one-hop neighbors, so every in-area
                # holder's `neighbors ∩ area` equals the area itself — one
                # disk query replaces the per-holder neighbor lists.  The
                # query radius is padded so the exact in-area expression
                # below (the tracker's own sqrt form) decides membership.
                cand = tracker.scenario.deployment.index.query_disk(
                    predicted_now, r_s * (1.0 + 1e-9)
                )
                cdiff = positions[cand] - predicted_now
                d_cand = np.sqrt(
                    cdiff[:, 0] * cdiff[:, 0] + cdiff[:, 1] * cdiff[:, 1]
                )
                inside = d_cand <= r_s
                m_ids, m_d = cand[inside], d_cand[inside]
                o = np.argsort(m_ids)
                members = (m_ids[o], m_d[o])
            else:  # pragma: no cover - paper geometry always satisfies it
                tracker.neighbors.warm(
                    [r for i, r in enumerate(holders) if d_own[i] <= r_s]
                )
            for i, r in enumerate(holders):
                particle = tracker.holders[r]
                if d_own[i] > r_s:
                    particle.weight = 0.0
                    continue
                if members is None:  # pragma: no cover - non-paper geometry
                    neigh = tracker.neighbors.neighbors(r)
                    groups.append((r, np.append(neigh, r)))
                    continue
                # group = sorted in-area neighbors of r, then r itself —
                # exactly the order `np.append(neighbors(r), r)` filtered
                # by the in-area mask would produce
                m_ids, m_d = members
                j = int(np.searchsorted(m_ids, r))
                if j < m_ids.size and m_ids[j] == r:
                    ids_g = np.concatenate([m_ids[:j], m_ids[j + 1 :], [r]])
                    vals_g = np.concatenate([m_d[:j], m_d[j + 1 :], [m_d[j]]])
                else:  # pragma: no cover - d_own and the area test disagree
                    ids_g, vals_g = m_ids, m_d
                groups.append((r, (ids_g, vals_g)))
            if groups and members is None:  # pragma: no cover
                flat_ids = np.concatenate([ids for _, ids in groups])
                diff = positions[flat_ids] - predicted_now
                d_flat = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
                in_area = d_flat <= r_s
                offset = 0
                resolved = []
                for r, ids in groups:
                    sl = slice(offset, offset + ids.size)
                    offset += ids.size
                    mask = in_area[sl]
                    resolved.append((r, (ids[mask], d_flat[sl][mask])))
                groups = resolved
            if groups:
                prepared.append((cell, groups))
        seconds[id(cell)] += time.perf_counter() - t0
    if prepared:
        t0 = time.perf_counter()
        area_vals: list[np.ndarray] = []
        meta = []
        for cell, groups in prepared:
            for r, (ids_g, vals_g) in groups:
                area_vals.append(vals_g)
                meta.append((cell, r, ids_g))
        counts = np.array([v.size for v in area_vals], dtype=np.intp)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        contributions = batch_contributions(np.concatenate(area_vals), offsets)
        share = (time.perf_counter() - t0) / len(prepared)
        t0 = time.perf_counter()
        for g, (cell, r, area_ids) in enumerate(meta):
            own_idx = int(np.nonzero(area_ids == r)[0][0])
            particle = cell.tracker.holders[r]
            particle.weight = particle.weight * float(
                contributions[offsets[g] + own_idx]
            )
        post = (time.perf_counter() - t0) / len(prepared)
        for cell, _ in prepared:
            seconds[id(cell)] += share + post
    for cell, state in active:
        tracker = cell.tracker
        t0 = time.perf_counter()
        tracker.stats.record_population(len(tracker.holders), len(state.created))
        tracker.stats.record_phase(
            "assign_weight", seconds[id(cell)] + (time.perf_counter() - t0)
        )


_HANDLERS = {
    "propagation": _phase_propagation_batch,
    "correction": _phase_correction_batch,
    "creation": _phase_creation_batch,
    "likelihood": _phase_likelihood_batch,
    "assign_weight": _phase_assign_weight_batch,
}


def _run_group(cells: list[_Cell], n_iterations: int) -> None:
    phase_names = [p.name for p in cells[0].tracker.phases]
    for k in range(n_iterations + 1):
        group = []
        for cell in cells:
            ctx = cell.world.contexts[k]
            cell.detectors_per_iteration.append(int(np.asarray(ctx.detectors).size))
            group.append((cell, IterationState(ctx)))
        for name in phase_names:
            _HANDLERS[name](group, k)
        for cell, state in group:
            est = state.estimate
            if est is None:
                continue
            ref = cell.tracker.estimate_iteration()
            if ref is None:
                raise RuntimeError(
                    f"{cell.tracker.name} returned an estimate without an "
                    "iteration reference"
                )
            if 0 <= ref <= n_iterations:
                cell.estimates[ref] = np.asarray(est, dtype=np.float64).copy()


def run_lockstep(batchable) -> Iterator[tuple[int, "object"]]:
    """Execute batchable ``(index, spec)`` pairs; yields ``(index, CellResult)``.

    Cells are grouped by ``(density, algorithm)`` and each group advances in
    lock-step; worlds (deployment, trajectory, sensing outputs) are built
    once per ``(density, seed)`` and shared across the algorithm groups.
    Results are yielded group by group, so an interrupt loses at most the
    group in flight (matching the serial path's at-most-one-cell guarantee
    per group rather than per cell).
    """
    from .engine import CellResult, _execute_task, task_seed_sequences

    if not batchable:
        return
    groups: dict[tuple[float, str], list] = {}
    for index, spec in batchable:
        groups.setdefault((spec.task.density, spec.task.algorithm), []).append(
            (index, spec)
        )
    world_refs: dict[tuple[float, int], int] = {}
    for _, spec in batchable:
        key = (spec.task.density, spec.task.seed)
        world_refs[key] = world_refs.get(key, 0) + 1
    worlds: dict[tuple[float, int], _World] = {}

    for items in groups.values():
        t0 = time.perf_counter()
        cells: list[_Cell] = []
        for index, spec in items:
            wkey = (spec.task.density, spec.task.seed)
            world = worlds.get(wkey)
            if world is None:
                world = _build_world(spec)
                worlds[wkey] = world
            streams = task_seed_sequences(spec.base_seed, spec.task.density, spec.task.seed)
            tracker = spec.factory(world.scenario, np.random.default_rng(streams["tracker"]))
            cells.append(_Cell(index=index, spec=spec, world=world, tracker=tracker))
        if not all(_supported(c.tracker, c.world.scenario) for c in cells):
            # the factory produced something outside the handlers' envelope:
            # run the whole group through the reference per-cell path
            for index, spec in items:
                yield index, _execute_task(spec)
                wkey = (spec.task.density, spec.task.seed)
                world_refs[wkey] -= 1
                if not world_refs[wkey]:
                    worlds.pop(wkey, None)
            continue
        _run_group(cells, cells[0].spec.n_iterations)
        elapsed = (time.perf_counter() - t0) / len(cells)
        for cell in cells:
            tracking = summarize_tracking_run(
                cell.tracker,
                cell.world.trajectory,
                cell.estimates,
                cell.detectors_per_iteration,
            )
            task = cell.spec.task
            yield cell.index, CellResult(
                density=task.density,
                algorithm=task.algorithm,
                seed=task.seed,
                rmse=tracking.rmse,
                total_bytes=int(tracking.total_bytes),
                total_messages=int(tracking.total_messages),
                coverage=tracking.error.coverage,
                elapsed_s=elapsed,
                tracking=tracking,
            )
            wkey = (task.density, task.seed)
            world_refs[wkey] -= 1
            if not world_refs[wkey]:
                worlds.pop(wkey, None)
