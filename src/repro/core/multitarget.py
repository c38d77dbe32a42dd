"""Multi-target CDPF: several completely distributed tracks in one network.

The paper tracks one target; its closest related work (Sheng et al. [5])
handles multiple targets with per-target sensor cliques.  This extension
composes the same idea from CDPF building blocks:

* each confirmed target is tracked by an independent CDPF instance ("track")
  whose holders form that target's moving clique;
* **data association is spatial gating**: a detector's measurement belongs to
  the nearest track whose last predicted position lies within
  ``gate_radius`` — a decision the detector makes from overheard predicted
  positions, i.e. locally;
* detectors outside every gate accumulate as *unassociated evidence*; when
  enough of them cluster (``spawn_threshold`` detectors within a sensing
  radius), a new track is born on them — the multi-target generalization of
  §III-B's particle creation;
* tracks that receive no associated detections for ``prune_after``
  consecutive iterations are retired (a CDPF cloud coasts forever without
  detections, so track life is bounded by its evidence supply).

All tracks share one medium, so the communication ledger reflects the true
combined traffic.  This module is an *extension* (clearly beyond the paper);
it exists to show the CDPF mechanism composes, and is exercised by its own
tests and example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext
from .cdpf import CDPFTracker
from .propagation import PropagationConfig

__all__ = ["Track", "MultiTargetCDPF"]


@dataclass
class Track:
    """One target's CDPF instance plus its lifecycle state."""

    track_id: int
    tracker: CDPFTracker
    born_at: int
    empty_iterations: int = 0
    retired: bool = False

    @property
    def estimate(self) -> np.ndarray | None:
        return self.tracker._estimate

    def predicted_position(self, dt: float, at_iteration: int | None = None) -> np.ndarray | None:
        """Dead-reckoned position for ``at_iteration`` (default: one step ahead).

        CDPF's estimate refers to an earlier iteration (correction latency),
        so the extrapolation horizon is ``at_iteration - estimate_iteration``
        steps — using a single step would leave the association gate
        trailing the target by a full 15 m hop.
        """
        if self.tracker._estimate is None:
            return None
        v = self.tracker._velocity_estimate
        if v is None:
            return self.tracker._estimate
        est_iter = self.tracker.estimate_iteration()
        steps = 1.0
        if at_iteration is not None and est_iter is not None:
            steps = max(float(at_iteration - est_iter), 1.0)
        return self.tracker._estimate + v * dt * steps


class MultiTargetCDPF:
    """Track an unknown number of targets with per-target CDPF cliques.

    Parameters
    ----------
    gate_radius:
        Association gate: a detection belongs to the nearest track whose
        predicted position is within this distance (default: the sensing
        diameter, so gates of well-separated targets never overlap).
    spawn_threshold:
        Minimum clustered unassociated detectors to start a new track.
    prune_after:
        Retire a track after this many consecutive detection-less iterations.
    max_tracks:
        Hard safety cap on simultaneous live tracks.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        config: PropagationConfig | None = None,
        neighborhood_estimation: bool = False,
        gate_radius: float | None = None,
        spawn_threshold: int = 3,
        prune_after: int = 2,
        max_tracks: int = 8,
    ) -> None:
        if spawn_threshold < 1:
            raise ValueError("spawn_threshold must be >= 1")
        if prune_after < 1:
            raise ValueError("prune_after must be >= 1")
        if max_tracks < 1:
            raise ValueError("max_tracks must be >= 1")
        self.name = "MT-CDPF-NE" if neighborhood_estimation else "MT-CDPF"
        self.scenario = scenario
        self.rng = rng
        self.config = config
        self.neighborhood_estimation = neighborhood_estimation
        self.gate_radius = (
            gate_radius if gate_radius is not None else 2.0 * scenario.sensing_radius
        )
        self.spawn_threshold = spawn_threshold
        self.prune_after = prune_after
        self.max_tracks = max_tracks

        self.medium = scenario.make_medium()
        self.tracks: list[Track] = []
        self._next_id = 0
        self._estimate_iter: int | None = None
        self.stats = TrackerStats()
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The wrapper's own phases; each per-track CDPF iteration inside
        "tracks" runs its *own* pipeline on the shared medium, and the
        innermost phase scope wins, so the combined ledger still attributes
        traffic to CDPF's propagation/correction/... phases.  Built on each
        read, so the tracker holds no bound method of itself."""
        return (
            Phase("associate", self._phase_associate),
            Phase("tracks", self._phase_tracks),
            Phase("maintain", self._phase_maintain),
        )

    # ------------------------------------------------------------------

    @property
    def live_tracks(self) -> list[Track]:
        return [t for t in self.tracks if not t.retired]

    @property
    def accounting(self):
        return self.medium.accounting

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """All track lifecycles plus per-track CDPF state.  The shared medium
        is owned by the run layer and snapshots separately; per-track
        snapshots therefore exclude it too."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "tracks": [
                {
                    "track_id": int(t.track_id),
                    "born_at": int(t.born_at),
                    "empty_iterations": int(t.empty_iterations),
                    "retired": bool(t.retired),
                    "tracker": t.tracker.snapshot(),
                }
                for t in self.tracks
            ],
            "next_id": int(self._next_id),
            "estimate_iter": self._estimate_iter,
            "rng": snapshot_rng(self.rng),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        from ..runtime.checkpoint import restore_rng

        tracks: list[Track] = []
        for ts in state["tracks"]:
            # rebuild on the shared medium with a placeholder rng; the real
            # per-track stream is transplanted by the nested restore
            tracker = CDPFTracker(
                self.scenario,
                rng=np.random.default_rng(0),
                config=self.config,
                neighborhood_estimation=self.neighborhood_estimation,
                medium=self.medium,
            )
            tracker.restore(ts["tracker"])
            tracks.append(
                Track(
                    track_id=int(ts["track_id"]),
                    tracker=tracker,
                    born_at=int(ts["born_at"]),
                    empty_iterations=int(ts["empty_iterations"]),
                    retired=bool(ts["retired"]),
                )
            )
        self.tracks = tracks
        self._next_id = int(state["next_id"])
        self._estimate_iter = (
            None if state["estimate_iter"] is None else int(state["estimate_iter"])
        )
        restore_rng(self.rng, state["rng"])
        self.stats.restore(state["stats"])

    # ------------------------------------------------------------------

    def _associate(self, ctx: StepContext) -> tuple[dict[int, list[int]], list[int]]:
        """Gate each detector to the nearest live track (or leave it free)."""
        positions = self.scenario.deployment.positions
        dt = self.scenario.dynamics.dt
        live = self.live_tracks
        refs: list[tuple[int, np.ndarray]] = []
        for idx, track in enumerate(live):
            p = track.predicted_position(dt, at_iteration=ctx.iteration)
            if p is None and track.tracker.holders:
                # no estimate yet (first iteration after birth): dead-reckon
                # the holder centroid with the prior velocity
                holder_pos = positions[np.sort(track.tracker.holders.ids)]
                p = holder_pos.mean(axis=0) + np.asarray(
                    self.scenario.prior_velocity, dtype=np.float64
                ) * dt
            if p is not None:
                refs.append((idx, p))
        assigned: dict[int, list[int]] = {idx: [] for idx in range(len(live))}
        free: list[int] = []
        for nid in sorted(int(d) for d in np.asarray(ctx.detectors).ravel()):
            best, best_d = None, np.inf
            for idx, p in refs:
                d = float(np.linalg.norm(positions[nid] - p))
                if d < best_d:
                    best, best_d = idx, d
            if best is not None and best_d <= self.gate_radius:
                assigned[best].append(nid)
            else:
                free.append(nid)
        return assigned, free

    def _spawn_tracks(self, free: list[int], k: int) -> None:
        """Cluster unassociated detectors; each big-enough cluster births a track."""
        positions = self.scenario.deployment.positions
        remaining = list(free)
        r = self.scenario.sensing_radius
        while remaining and len(self.live_tracks) < self.max_tracks:
            seed_id = remaining[0]
            cluster = [
                nid
                for nid in remaining
                if np.linalg.norm(positions[nid] - positions[seed_id]) <= 2 * r
            ]
            remaining = [nid for nid in remaining if nid not in cluster]
            if len(cluster) < self.spawn_threshold:
                continue
            tracker = CDPFTracker(
                self.scenario,
                rng=np.random.default_rng(self.rng.integers(2**63)),
                config=self.config,
                neighborhood_estimation=self.neighborhood_estimation,
                medium=self.medium,  # shared: the ledger sums all tracks
            )
            self.tracks.append(Track(track_id=self._next_id, tracker=tracker, born_at=k))
            self._next_id += 1
            # birth: feed the cluster as the new tracker's first detection set
            tracker.step(self._sub_context(k, cluster, {}))

    @staticmethod
    def _sub_context(k: int, detectors: list[int], measurements: dict) -> StepContext:
        return StepContext(
            iteration=k,
            detectors=np.array(sorted(detectors), dtype=np.intp),
            measurements=measurements,
        )

    # ------------------------------------------------------------------

    def step(self, ctx: StepContext) -> dict[int, np.ndarray]:
        """Advance every track one iteration; returns {track_id: estimate}.

        Estimates refer to iteration ``ctx.iteration - 1`` (CDPF's inherent
        correction latency).
        """
        return self.pipeline.run(ctx)

    def _phase_associate(self, state: IterationState) -> None:
        state.assigned, state.free = self._associate(state.ctx)

    def _phase_tracks(self, state: IterationState) -> None:
        """Advance each live track's CDPF one iteration on its gated detections."""
        ctx = state.ctx
        k = state.iteration
        estimates: dict[int, np.ndarray] = {}
        live = self.live_tracks
        for idx, track in enumerate(live):
            detectors = state.assigned.get(idx, [])
            sub = self._sub_context(
                k, detectors, {nid: ctx.measurements[nid] for nid in detectors}
            )
            est = track.tracker.step(sub)
            if est is not None:
                estimates[track.track_id] = est
            # a CDPF cloud coasts forever without detections (no likelihood
            # means no evidence either way), so track life is bounded by the
            # supply of associated detections, not by the holder count
            if detectors and track.tracker.holders:
                track.empty_iterations = 0
            else:
                track.empty_iterations += 1
                if track.empty_iterations >= self.prune_after:
                    track.retired = True
        state.estimate = estimates

    def _phase_maintain(self, state: IterationState) -> None:
        """Merge duplicate tracks, spawn new ones, roll up the shared stats."""
        k = state.iteration
        n_before = len(self.tracks)
        self._merge_duplicates()
        self._spawn_tracks(state.free, k)
        self._estimate_iter = k - 1
        n_holders = sum(len(t.tracker.holders) for t in self.live_tracks)
        self.stats.record_population(n_holders, len(self.tracks) - n_before)
        # per-track counters roll up into the wrapper's combined view
        self.stats.degraded_iterations = sum(
            t.tracker.stats.degraded_iterations for t in self.tracks
        )

    def _merge_duplicates(self) -> None:
        """Retire the weaker of any two tracks following the same target.

        Two live tracks whose predicted positions fall within one sensing
        radius of each other are duplicates (one physical target cannot host
        two cliques); the one with fewer holders retires and its particles
        are abandoned — its mass is redundant with the survivor's.
        """
        dt = self.scenario.dynamics.dt
        live = self.live_tracks
        for i in range(len(live)):
            if live[i].retired:
                continue
            pi = live[i].predicted_position(dt)
            if pi is None:
                continue
            for j in range(i + 1, len(live)):
                if live[j].retired:
                    continue
                pj = live[j].predicted_position(dt)
                if pj is None:
                    continue
                if np.linalg.norm(pi - pj) <= self.scenario.sensing_radius:
                    weaker = min(
                        (live[i], live[j]), key=lambda t: len(t.tracker.holders)
                    )
                    weaker.retired = True
                    if weaker is live[i]:
                        break
