"""CDPF under unreliable channels: transparency, tolerance, degradation counters.

The paper's first future-work item (§VIII-1) asks how CDPF's
overhearing-based aggregation survives lossy radios.  Three pinned claims:

* **differential** — a zero-loss link model changes *nothing*: estimates are
  exactly (bitwise) equal to a no-link-model run, and so is the cost ledger;
* **tolerance** — 10% i.i.d. loss leaves the RMSE finite and within 3x of the
  lossless run (overheard totals are renormalized per recorder);
* **observability** — ``CDPFStats.degraded_iterations`` is 0 on a lossless
  run and counts the iterations where loss handling actually engaged.
"""

import numpy as np
import pytest

from repro.core.cdpf import CDPFTracker
from repro.experiments.options import RunOptions
from repro.experiments.runner import run_tracking
from repro.network.faults import FaultPlan, LossBurst
from repro.network.links import IIDLossLink
from repro.scenario import make_paper_scenario, make_trajectory


def run_paper(link_model=None, *, ne=False, seed=0, density=10.0, fault_plan=None):
    """One seeded paper-scenario run; returns (TrackingResult, tracker)."""
    rng = np.random.default_rng(4500 + seed)
    scenario = make_paper_scenario(density_per_100m2=density, rng=rng)
    if link_model is not None:
        scenario = scenario.with_(link_model=link_model)
    trajectory = make_trajectory(n_iterations=10, rng=rng)
    tracker = CDPFTracker(
        scenario, rng=np.random.default_rng(seed), neighborhood_estimation=ne
    )
    result = run_tracking(
        tracker,
        scenario,
        trajectory,
        rng=np.random.default_rng(8500 + seed),
        options=RunOptions(fault_plan=fault_plan),
    )
    return result, tracker


class TestZeroLossDifferential:
    """Both families, CDPF and CDPF-NE.  Without a link model the tracker
    hands its rounds over directly; a zero-loss link model forces message
    transport — so these tests also pin direct handoff == message path."""

    def test_zero_loss_estimates_bitwise_identical(self):
        """The central transparency guarantee, end to end through the tracker:
        installing a p_loss=0 link model must not change a single byte."""
        for ne in (False, True):
            r_none, t_none = run_paper(None, ne=ne)
            r_zero, t_zero = run_paper(IIDLossLink(p_loss=0.0, seed=7), ne=ne)
            assert t_none._direct_handoff() and not t_zero._direct_handoff()
            assert set(r_none.estimates) == set(r_zero.estimates), ne
            for k in r_none.estimates:
                assert np.array_equal(r_none.estimates[k], r_zero.estimates[k]), (ne, k)
            assert r_none.total_bytes == r_zero.total_bytes, ne
            assert r_none.total_messages == r_zero.total_messages, ne
            assert r_none.bytes_by_category == r_zero.bytes_by_category, ne
            assert (
                t_none.medium.accounting.bytes_by_phase()
                == t_zero.medium.accounting.bytes_by_phase()
            ), ne
            assert t_zero.medium.accounting.total_dropped_messages == 0

    def test_degraded_iterations_zero_on_lossless_run(self):
        for ne in (False, True):
            _, tracker = run_paper(None, ne=ne)
            assert tracker.stats.degraded_iterations == 0
            _, tracker = run_paper(IIDLossLink(p_loss=0.0, seed=7), ne=ne)
            assert tracker.stats.degraded_iterations == 0


@pytest.mark.slow
class TestLossTolerance:
    def test_ten_percent_loss_rmse_within_3x(self):
        r_clean, _ = run_paper(None)
        r_lossy, tracker = run_paper(IIDLossLink(p_loss=0.1, seed=21))
        assert np.isfinite(r_lossy.rmse)
        assert r_lossy.rmse <= 3.0 * max(r_clean.rmse, 1.0)
        # it kept tracking, it didn't coast on a stale prior
        assert r_lossy.error.coverage >= 0.7
        # loss handling visibly engaged and the drops hit the ledger
        assert tracker.stats.degraded_iterations > 0
        assert tracker.medium.accounting.total_dropped_messages > 0

    def test_ne_degrades_no_worse_than_cdpf_under_loss(self):
        """CDPF-NE's weights depend on anticipated neighbor *status*, not on
        channel reliability, so loss-only faults should cost it no more
        (relatively) than they cost CDPF."""
        ratios = {}
        for ne in (False, True):
            rs = []
            for seed in (0, 1):
                clean, _ = run_paper(None, ne=ne, seed=seed)
                lossy, _ = run_paper(IIDLossLink(p_loss=0.1, seed=21), ne=ne, seed=seed)
                assert np.isfinite(lossy.rmse)
                assert lossy.rmse <= 3.0 * max(clean.rmse, 1.0)
                rs.append(lossy.rmse / max(clean.rmse, 1e-9))
            ratios[ne] = float(np.mean(rs))
        assert ratios[True] <= ratios[False] + 1.0

    def test_loss_burst_window_trips_degraded_counter(self):
        """A total-loss burst mid-run (via a FaultPlan, not a base link model)
        forces the quorum fallback; the counter makes it observable."""
        plan = FaultPlan(events=(LossBurst(start=3, end=4, p_loss=1.0, seed=0),))
        result, tracker = run_paper(None, fault_plan=plan)
        assert tracker.stats.degraded_iterations >= 1
        # the track survives the burst: estimates exist after the window
        assert any(k > 4 for k in result.estimates)
        assert np.isfinite(result.rmse)
