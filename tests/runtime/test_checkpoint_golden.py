"""Golden differential suite for checkpoint transparency.

For every tracker family and several link models, three runs of the *same*
world must agree bit for bit on estimates and on every deterministic ledger:

1. the plain uninterrupted run (the reference);
2. a run that emits checkpoints along the way (snapshots must be
   side-effect free — observing the run cannot change it);
3. a run resumed from a mid-flight checkpoint that went through the full
   JSON round-trip into a freshly built world (restore must be a perfect
   state transplant).

``phase_seconds`` is wall-clock and is the one stat deliberately excluded
from equality everywhere.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CheckpointPolicy,
    RunOptions,
    make_paper_scenario,
    make_tracker,
    make_trajectory,
    random_turn_trajectory,
    run_tracking,
)
from repro.core.multitarget import MultiTargetCDPF
from repro.experiments.runner import generate_multi_step_context
from repro.network.links import (
    DelayingLink,
    DistanceFadingLink,
    GilbertElliottLink,
    IIDLossLink,
)
from repro.runtime.checkpoint import RunCheckpoint, restore_rng, snapshot_rng

TRACKERS = ["CPF", "SDPF", "CDPF", "CDPF-NE", "DPF-gmm", "DPF-quantized"]

N_ITER = 8
CHECKPOINT_EVERY = 3


def make_link(kind):
    if kind == "iid":
        return IIDLossLink(p_loss=0.2, seed=11)
    if kind == "ge":
        return GilbertElliottLink(
            p_good_to_bad=0.3, p_bad_to_good=0.4, loss_bad=0.8, seed=12
        )
    if kind == "delay":
        return DelayingLink(IIDLossLink(p_loss=0.1, seed=13), p_delay=0.3, seed=14)
    if kind == "fade":
        return DistanceFadingLink(
            comm_radius=30.0, inner_radius=15.0, edge_probability=0.5, seed=15
        )
    assert kind == "none"
    return None


def build(name, kind):
    """One deterministic world; every call reconstructs it identically."""
    world = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0,)))
    scenario = make_paper_scenario(density_per_100m2=12.0, rng=world)
    link = make_link(kind)
    if link is not None:
        scenario = dataclasses.replace(scenario, link_model=link)
    trajectory = make_trajectory(n_iterations=N_ITER, rng=world)
    tracker = make_tracker(
        name, scenario, rng=np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1,)))
    )
    sensing = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(2,)))
    return tracker, scenario, trajectory, sensing


def assert_same_result(a, b):
    assert set(a.estimates) == set(b.estimates)
    for k in a.estimates:
        assert np.array_equal(a.estimates[k], b.estimates[k]), f"estimate {k}"
    assert a.total_bytes == b.total_bytes
    assert a.total_messages == b.total_messages
    assert np.array_equal(a.bytes_per_iteration, b.bytes_per_iteration)
    assert np.array_equal(a.messages_per_iteration, b.messages_per_iteration)
    assert a.bytes_by_category == b.bytes_by_category
    assert a.degraded_iterations == b.degraded_iterations
    assert a.dropped_bytes == b.dropped_bytes
    assert a.dropped_messages == b.dropped_messages
    assert a.dropped_bytes_by_category == b.dropped_bytes_by_category
    assert a.detectors_per_iteration == b.detectors_per_iteration


CASES = [(name, kind) for name in TRACKERS for kind in ("none", "iid", "ge", "delay")]
CASES += [("CDPF", "fade"), ("SDPF", "fade")]


@pytest.mark.parametrize("name,kind", CASES, ids=[f"{n}-{k}" for n, k in CASES])
def test_checkpoint_is_transparent(name, kind):
    # 1. reference: the plain uninterrupted run
    tracker, scenario, trajectory, rng = build(name, kind)
    reference = run_tracking(tracker, scenario, trajectory, rng=rng)

    # 2. the observed run: emitting checkpoints must not perturb anything
    checkpoints = []
    tracker, scenario, trajectory, rng = build(name, kind)
    observed = run_tracking(
        tracker,
        scenario,
        trajectory,
        rng=rng,
        options=RunOptions(
            checkpoint=CheckpointPolicy(
                every=CHECKPOINT_EVERY, sink=checkpoints.append
            )
        ),
    )
    assert_same_result(observed, reference)
    assert len(checkpoints) == N_ITER // CHECKPOINT_EVERY
    assert [cp.iteration for cp in checkpoints] == [
        k * CHECKPOINT_EVERY - 1 for k in range(1, len(checkpoints) + 1)
    ]

    # 3. resume from the middle checkpoint after a full JSON round-trip
    #    (what a different process reading the store would see)
    middle = RunCheckpoint.from_json(checkpoints[-1].to_json())
    tracker, scenario, trajectory, rng = build(name, kind)
    resumed = run_tracking(
        tracker, scenario, trajectory, rng=rng,
        options=RunOptions(checkpoint=CheckpointPolicy(resume_from=middle)),
    )
    assert_same_result(resumed, reference)


def _scrub(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k != "phase_seconds"}


class TestMultiTarget:
    """Two simultaneous targets under the MultiTargetCDPF wrapper."""

    N = 10
    CUT = 5  # last completed iteration captured in the checkpoint

    def _build(self):
        world = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(0,)))
        scenario = make_paper_scenario(density_per_100m2=12.0, rng=world)
        t1 = make_trajectory(n_iterations=self.N, rng=world)
        t2 = random_turn_trajectory(
            self.N, start=(200.0, 100.0), initial_heading=np.pi, rng=world
        )
        mt = MultiTargetCDPF(
            scenario,
            rng=np.random.default_rng(np.random.SeedSequence(21, spawn_key=(1,))),
        )
        sensing = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(2,)))
        return mt, scenario, [t1, t2], sensing

    def _drive(self, mt, scenario, trajectories, rng, start, stop, series):
        for k in range(start, stop + 1):
            ctx = generate_multi_step_context(scenario, trajectories, k, rng)
            estimates = mt.step(ctx)
            series.append(
                sorted((tid, tuple(np.asarray(e))) for tid, e in estimates.items())
            )

    def test_multitarget_checkpoint_roundtrip(self):
        # reference: drive straight through
        mt, scenario, trajectories, rng = self._build()
        reference = []
        self._drive(mt, scenario, trajectories, rng, 0, self.N, reference)
        ref_bytes = mt.medium.accounting.total_bytes
        ref_stats = _scrub(mt.stats.snapshot())

        # checkpointed run: capture at CUT, finish, then resume elsewhere
        mt, scenario, trajectories, rng = self._build()
        first_half = []
        self._drive(mt, scenario, trajectories, rng, 0, self.CUT, first_half)
        checkpoint = RunCheckpoint(
            iteration=self.CUT,
            payload={
                "mt": mt.snapshot(),
                "medium": mt.medium.snapshot(),
                "rng": snapshot_rng(rng),
            },
        )
        transported = RunCheckpoint.from_json(checkpoint.to_json())

        mt2, scenario2, trajectories2, rng2 = self._build()
        mt2.restore(transported.payload["mt"])
        mt2.medium.restore(transported.payload["medium"])
        restore_rng(rng2, transported.payload["rng"])
        resumed = list(first_half)
        self._drive(
            mt2, scenario2, trajectories2, rng2, self.CUT + 1, self.N, resumed
        )

        assert resumed == reference
        assert mt2.medium.accounting.total_bytes == ref_bytes
        assert _scrub(mt2.stats.snapshot()) == ref_stats


class TestHolderRowOrder:
    """A checkpoint keeps the holders' row order: creation's base weight is a
    mean over the rows, and after a degraded iteration (prior-weight
    fallback under heavy loss) the rows are not in id order.  Each case is
    a resume that went wrong when snapshots listed holders by id."""

    def _build(self, name, seed):
        world = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        scenario = make_paper_scenario(density_per_100m2=5.0, rng=world)
        scenario = dataclasses.replace(scenario, link_model=IIDLossLink(p_loss=0.85, seed=4))
        trajectory = make_trajectory(n_iterations=10, rng=world)
        tracker = make_tracker(
            name, scenario,
            rng=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))),
        )
        sensing = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        return tracker, scenario, trajectory, sensing

    @pytest.mark.parametrize(
        "name,seed,cut", [("CDPF-NE", 2, 2), ("SDPF", 7, 7)],
        ids=["CDPF-NE-seed2-cut2", "SDPF-seed7-cut7"],
    )
    def test_resume_after_a_degraded_iteration(self, name, seed, cut):
        checkpoints = []
        tracker, scenario, trajectory, rng = self._build(name, seed)
        reference = run_tracking(
            tracker, scenario, trajectory, rng=rng,
            options=RunOptions(checkpoint=CheckpointPolicy(every=1, sink=checkpoints.append)),
        )
        (middle,) = [cp for cp in checkpoints if cp.iteration == cut]
        tracker, scenario, trajectory, rng = self._build(name, seed)
        resumed = run_tracking(
            tracker, scenario, trajectory, rng=rng,
            options=RunOptions(checkpoint=CheckpointPolicy(
                resume_from=RunCheckpoint.from_json(middle.to_json())
            )),
        )
        assert_same_result(resumed, reference)

    @pytest.mark.parametrize("name,seed,cut", [("CDPF-NE", 2, 2), ("SDPF", 7, 7)])
    def test_id_ordered_checkpoints_still_load_in_id_order(self, name, seed, cut):
        checkpoints = []
        tracker, scenario, trajectory, rng = self._build(name, seed)
        run_tracking(
            tracker, scenario, trajectory, rng=rng,
            options=RunOptions(checkpoint=CheckpointPolicy(every=1, sink=checkpoints.append)),
        )
        (middle,) = [cp for cp in checkpoints if cp.iteration == cut]
        state = RunCheckpoint.from_json(middle.to_json()).payload["tracker"]
        live = [int(row[0]) for row in state["holders"]]
        assert live != sorted(live)  # the case an id-ordered snapshot got wrong
        state["holders"].sort(key=lambda row: int(row[0]))
        tracker, *_ = self._build(name, seed)
        tracker.restore(state)
        assert list(tracker.holders) == sorted(live)


class TestGilbertElliottChains:
    """``GilbertElliottLink`` used to memoize every chain it classified and
    carried the memo in its snapshot as ``chains``.  The link model now
    recomputes each chain state from its keyed draws, so a checkpoint
    written with the memo still resumes bit-identically (restore ignores
    ``chains``), and a checkpoint written now is the same minus that list
    and minus the medium's ``positions``, which a checkpoint carries only
    once mobility has moved a node.

    ``checkpoint_ge_chains.json`` was written by :meth:`_build`'s world with
    ``CheckpointPolicy(every=2)`` before the memo was removed: the
    checkpoint after iteration 1, whose GE snapshot lists 972 chains.
    """

    FIXTURE = Path(__file__).with_name("checkpoint_ge_chains.json")
    N = 6

    def _build(self):
        world = np.random.default_rng(np.random.SeedSequence(2025, spawn_key=(0,)))
        scenario = make_paper_scenario(
            density_per_100m2=4.0, rng=world, width=90.0, height=60.0
        )
        scenario = dataclasses.replace(scenario, link_model=GilbertElliottLink(
            p_good_to_bad=0.3, p_bad_to_good=0.4, loss_bad=0.8, seed=12
        ))
        trajectory = make_trajectory(n_iterations=self.N, rng=world, start=(0.0, 30.0))
        tracker = make_tracker(
            "CDPF", scenario,
            rng=np.random.default_rng(np.random.SeedSequence(2025, spawn_key=(1,))),
        )
        sensing = np.random.default_rng(np.random.SeedSequence(2025, spawn_key=(2,)))
        return tracker, scenario, trajectory, sensing

    def test_checkpoint_with_chains_resumes_bit_identically(self):
        old = RunCheckpoint.load(self.FIXTURE)
        assert old.iteration == 1
        assert len(old.payload["medium"]["link_model"]["chains"]) == 972
        tracker, scenario, trajectory, rng = self._build()
        reference = run_tracking(tracker, scenario, trajectory, rng=rng)
        tracker, scenario, trajectory, rng = self._build()
        resumed = run_tracking(
            tracker, scenario, trajectory, rng=rng,
            options=RunOptions(checkpoint=CheckpointPolicy(resume_from=old)),
        )
        assert_same_result(resumed, reference)
        assert resumed.dropped_messages > 0  # the GE links did drop copies

    def test_checkpoint_now_holds_no_chains(self):
        saved = []
        tracker, scenario, trajectory, rng = self._build()
        run_tracking(
            tracker, scenario, trajectory, rng=rng,
            options=RunOptions(checkpoint=CheckpointPolicy(every=2, sink=saved.append)),
        )
        now = saved[0].to_dict()
        assert now["payload"]["medium"]["link_model"] == {"type": "GilbertElliottLink"}
        # no node has moved, so the medium no longer carries its positions
        assert "positions" not in now["payload"]["medium"]
        old = json.loads(self.FIXTURE.read_text(encoding="utf-8"))
        del old["payload"]["medium"]["link_model"]["chains"]
        del old["payload"]["medium"]["positions"]
        for payload in (now["payload"], old["payload"]):
            del payload["tracker"]["stats"]["phase_seconds"]  # wall-clock
        assert now["payload"] == old["payload"]
        assert now["iteration"] == old["iteration"]
