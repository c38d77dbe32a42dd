#!/usr/bin/env python
"""Duty-cycled tracking: CDPF over a sleeping network with proactive wake-up.

The paper's motivating deployment (§I, §III-C): nodes sleep most of the time
(duty cycling), and a TDSS-style scheduler proactively wakes the nodes around
the predicted target position so they can record propagated particles and
sense the target.  This example runs CDPF under a 20% duty cycle and reports
tracking quality, communication, and the radio-energy bill — including the
wake-up cost that makes *message count* the quantity worth minimizing.

Run:  python examples/duty_cycled_tracking.py
"""

from __future__ import annotations

import numpy as np

from repro import CDPFTracker, make_paper_scenario, make_trajectory
from repro.experiments.runner import generate_step_context
from repro.network.energy import EnergyModel
from repro.network.messages import WakeupMessage
from repro.network.sleep import DutyCycleSchedule, ProactiveWakeup


def main() -> None:
    rng = np.random.default_rng(31)
    scenario = make_paper_scenario(density_per_100m2=20.0, rng=rng)
    trajectory = make_trajectory(n_iterations=10, rng=rng)
    n = scenario.deployment.n_nodes

    schedule = DutyCycleSchedule(period_s=60.0, duty_cycle=0.2, phase_seed=1)
    wakeup = ProactiveWakeup(wakeup_radius=scenario.radio.comm_radius)
    tracker = CDPFTracker(scenario, rng=rng)
    medium = tracker.medium

    # CDPF-NE-style anticipation: nodes predict neighbors' availability from
    # the (deterministic, shared) duty-cycle schedule
    dt = scenario.dynamics.dt

    woken_total = 0
    errors = []
    for k in range(trajectory.n_iterations + 1):
        t = k * dt
        asleep = schedule.asleep_ids(n, t)
        medium.set_asleep(asleep)

        # proactive wake-up around the predicted target position
        if tracker._estimate is not None and tracker._velocity_estimate is not None:
            predicted = tracker._estimate + tracker._velocity_estimate * dt
            to_wake = wakeup.nodes_to_wake(
                scenario.deployment.index, predicted, asleep
            )
            if to_wake.size and tracker.holders:
                beacon_sender = int(tracker.holders.ids.min())
                if medium.is_available(beacon_sender):
                    medium.broadcast(
                        beacon_sender,
                        WakeupMessage(
                            sender=beacon_sender, iteration=k, predicted_position=predicted
                        ),
                        k,
                    )
                medium.wake(to_wake)
                woken_total += int(to_wake.size)

        awake_mask = schedule.awake_mask(n, t)
        tracker.anticipate_available = lambda ids, m=awake_mask: m[np.asarray(ids, dtype=int)]

        ctx = generate_step_context(scenario, trajectory, k, rng)
        # sleeping nodes cannot sense: filter the detector set
        detectors = np.array(
            [d for d in ctx.detectors if medium.is_available(int(d))], dtype=int
        )
        ctx = type(ctx)(
            iteration=k,
            detectors=detectors,
            measurements={int(d): ctx.measurements[int(d)] for d in detectors},
        )
        est = tracker.step(ctx)
        if est is not None:
            ref = tracker.estimate_iteration()
            err = np.linalg.norm(est - trajectory.position_at_iteration(ref))
            errors.append(err)
            print(f"iteration {k:2d}: estimate for k={ref} off by {err:5.2f} m "
                  f"({int(awake_mask.sum())} of {n} nodes awake)")

    acc = medium.accounting
    energy = EnergyModel().energy_of_accounting(acc, rx_fanout=5.0)
    print(f"\nRMSE under a 20% duty cycle: {float(np.sqrt(np.mean(np.square(errors)))):.2f} m")
    print(f"Nodes proactively woken:     {woken_total}")
    print(f"Traffic: {acc.total_bytes} bytes in {acc.total_messages} messages")
    print(
        f"Radio energy: {energy.total_mj:.1f} mJ "
        f"(wake-up {energy.wakeup_mj:.1f} + tx {energy.tx_mj:.1f} + rx {energy.rx_mj:.1f}) — "
        f"note the per-message wake-up share: minimizing MESSAGES, as CDPF does,\n"
        "is worth more than shrinking payloads (the paper's §I argument)."
    )


if __name__ == "__main__":
    main()
