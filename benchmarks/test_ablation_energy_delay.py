"""Ablations — the paper's two §I motivations, quantified.

1. **Energy / duty cycling**: "compressing the number of messages is more
   efficient for saving energy than compressing the data contained in each
   message".  We convert each tracker's ledger to radio energy with a
   CC1000-class model (per-message wake-up + per-byte tx) and show the
   message-count term dominating for the convergecast-style trackers.

2. **Delay**: "convergecast communication introduces a long delay, as the
   computational center has to receive messages in a sequential order".  We
   measure per-iteration serialization depth: CPF's sink must receive its
   messages one after another (sum of hops), while CDPF's one-hop broadcast
   rounds serialize only within the local cell.
"""

import numpy as np

from repro.baselines.cpf import CPFTracker
from repro.core.cdpf import CDPFTracker
from repro.experiments.report import render_table
from repro.experiments.runner import run_tracking
from repro.network.energy import EnergyModel
from repro.scenario import make_paper_scenario, make_trajectory


def run_pair(seed=0, density=20.0):
    rng = np.random.default_rng(4300 + seed)
    scenario = make_paper_scenario(density_per_100m2=density, rng=rng)
    trajectory = make_trajectory(n_iterations=10, rng=rng)
    out = {}
    for name, make in {
        "CPF": lambda: CPFTracker(scenario, rng=np.random.default_rng(seed)),
        "CDPF": lambda: CDPFTracker(scenario, rng=np.random.default_rng(seed)),
        "CDPF-NE": lambda: CDPFTracker(
            scenario, rng=np.random.default_rng(seed), neighborhood_estimation=True
        ),
    }.items():
        tracker = make()
        result = run_tracking(
            tracker, scenario, trajectory, rng=np.random.default_rng(8300 + seed)
        )
        out[name] = (tracker, result)
    return out


def test_energy_messages_vs_bytes(report_sink, benchmark):
    runs = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    model = EnergyModel()
    rows = []
    energies = {}
    for name, (_tracker, result) in runs.items():
        e = model.transmission_energy(result.total_messages, result.total_bytes)
        energies[name] = e
        rows.append(
            [
                name,
                result.total_messages,
                result.total_bytes,
                e.wakeup_mj,
                e.tx_mj,
                e.wakeup_mj + e.tx_mj,
                f"{100 * e.wakeup_mj / (e.wakeup_mj + e.tx_mj):.0f}%",
            ]
        )
    report_sink(
        render_table(
            ["tracker", "messages", "bytes", "wakeup mJ", "tx mJ", "total mJ", "wakeup share"],
            rows,
            title="Ablation: radio energy — message count vs byte count (density 20)",
        )
    )
    # the per-message wake-up term dominates for every tracker here (small
    # payloads), which is exactly why minimizing MESSAGES is the right target
    for name, e in energies.items():
        assert e.wakeup_mj > e.tx_mj, name
    # and CDPF spends a fraction of CPF's energy
    cpf = energies["CPF"]
    cdpf = energies["CDPF"]
    assert (cdpf.wakeup_mj + cdpf.tx_mj) < 0.6 * (cpf.wakeup_mj + cpf.tx_mj)


def test_convergecast_delay(report_sink, benchmark):
    """Per-iteration latency in MAC slots, computed by the slotted-TDMA
    scheduler of :mod:`repro.network.latency`: CPF's convergecast funnels
    every measurement through the sink sequentially, while CDPF's one-hop
    broadcast round serializes only among the ~N_s local holders."""
    from repro.experiments.runner import generate_step_context
    from repro.network.latency import broadcast_round_slots, convergecast_slots
    from repro.network.routing import RoutingError, greedy_path

    def measure():
        rng = np.random.default_rng(4300)
        scenario = make_paper_scenario(density_per_100m2=20.0, rng=rng)
        trajectory = make_trajectory(n_iterations=10, rng=rng)
        positions = scenario.deployment.positions
        sink = scenario.sink_node()

        cdpf = CDPFTracker(scenario, rng=np.random.default_rng(0))
        cpf_slots, cdpf_slots = [], []
        sense = np.random.default_rng(8300)
        for k in range(trajectory.n_iterations + 1):
            ctx = generate_step_context(scenario, trajectory, k, sense)
            # CPF: schedule this iteration's measurement routes
            paths = []
            for nid in (int(d) for d in np.asarray(ctx.detectors).ravel()):
                if nid == sink:
                    continue
                try:
                    paths.append(greedy_path(scenario.deployment.index, nid, sink, scenario.radio))
                except RoutingError:
                    pass
            if paths:
                cpf_slots.append(convergecast_slots(paths, positions, scenario.radio))
            # CDPF: schedule the holders' broadcast round, then step
            holders = np.sort(cdpf.holders.ids)
            if holders.size:
                cdpf_slots.append(
                    broadcast_round_slots(positions[holders], scenario.radio)
                )
            cdpf.step(ctx)
        return cpf_slots, cdpf_slots

    cpf_slots, cdpf_slots = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        ["CPF convergecast", float(np.mean(cpf_slots)), int(np.max(cpf_slots))],
        ["CDPF broadcast round", float(np.mean(cdpf_slots)), int(np.max(cdpf_slots))],
    ]
    report_sink(
        render_table(
            ["phase", "mean slots / iteration", "max"],
            rows,
            title="Ablation: per-iteration latency (TDMA slots, spatial reuse)",
        )
    )
    assert np.mean(cdpf_slots) < np.mean(cpf_slots)
