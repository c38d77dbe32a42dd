"""Batched numpy kernels for the simulation hot paths.

Every per-iteration hot path of the trackers and the medium — estimated
contributions (Definition 2), particle propagation into the predicted area,
per-(sensor, particle) likelihood evaluation, and per-copy link-loss draws —
originally executed as Python-level loops over scalars.  This package holds
their batched equivalents, each one designed to be **bit-identical** to the
scalar code it replaces: same float operations, same order, same reduction
trees.  The golden differential suite (``tests/runtime/``) pins that
equivalence on fixed seeds; ``tests/kernels/`` pins each kernel to its
scalar reference, and the end-to-end benchmark (``benchmarks/e2e/``) times
every kernel call in place.

Modules
-------
:mod:`~repro.kernels.contributions`
    All estimation-area members of every holder in one vectorized
    ``1 / (d_i * D)`` evaluation (Definition 2), with per-group pairwise
    sums so single-group results match :func:`repro.core.contributions.
    estimated_contributions` to the last bit; and the segment reductions
    every batched round shares (``group_sums``, ``group_means``,
    ``group_weighted_means``), one pass per distinct segment length.
:mod:`~repro.kernels.propagation`
    Recorder selection + weight division over a whole propagation round,
    as one list of (broadcast row, candidate) pairs.
:mod:`~repro.kernels.likelihood`
    Node-hosted bearing log-kernels, elementwise over (holder, reading)
    pairs (a round scores each heard pair once), plus the batched
    bearing log-likelihood used by the centralized SIR update, which runs
    in a filter-owned :class:`~repro.kernels.likelihood.Workspace`.
:mod:`~repro.kernels.delivery`
    Vectorized keyed uniform draws — a bit-exact numpy replica of
    ``SeedSequence -> PCG64 -> random()`` — so the medium fans one send out
    to all in-range receivers without per-copy Python RNG construction;
    ``link_uniform`` is the same replay for one copy, in Python ints.

Grouped calls
-------------
:func:`batch_contributions` evaluates many estimation areas as one CSR
call (flat distances plus ``offsets``) — CDPF-NE weighs every holder of a
round that way — and :func:`link_uniform_many` takes per-copy ``seed`` /
``sender`` / ``iteration`` arrays, so the medium resolves the copies of
many broadcasts in one call.  Grouping never changes a result:
elementwise ops and per-group pairwise reductions are bitwise independent
of how calls are batched.

The names exported here are the kernel functions themselves — there is one
implementation of each, and callers bind it directly.  The kernels depend
on numpy only (no imports from the rest of the package), so every layer of
the simulator may call into them without cycles.
"""

from . import contributions, delivery, likelihood, propagation
from .contributions import batch_contributions
from .delivery import batch_deliver, link_uniform, link_uniform_many
from .likelihood import batch_likelihood
from .propagation import batch_propagate

__all__ = [
    "contributions",
    "delivery",
    "likelihood",
    "propagation",
    "batch_contributions",
    "batch_deliver",
    "batch_likelihood",
    "batch_propagate",
    "link_uniform",
    "link_uniform_many",
]
