"""Vectorized keyed uniform draws for per-copy link delivery.

The link models draw one uniform per (message copy, directed link) from
``np.random.default_rng(SeedSequence(seed, spawn_key=key)).random()`` —
deterministic and order-independent, but building a ``SeedSequence`` and a
``Generator`` per copy costs tens of microseconds of pure Python/object
overhead.  This module replays the exact same computation for a whole batch
of receivers in vectorized ``uint64`` arithmetic:

* the SeedSequence entropy-mixing pool (Knuth-style multiplicative hashing
  with the documented INIT_A/MULT_A/... constants), with the entropy padded
  to the pool size *before* the spawn key is appended — so the assembled
  word list for ``SeedSequence(seed, spawn_key=(tag, sender, receiver,
  iteration, nonce))`` is ``[seed, 0, 0, 0, tag, sender, receiver,
  iteration, nonce]``;
* ``generate_state(4, uint64)`` producing PCG64's 256-bit seed material;
* PCG64 seeding (``initstate``/``initseq``), one LCG step, and the XSL-RR
  output function, with 128-bit arithmetic carried as (hi, lo) uint64 pairs
  and 64x64 products split into 32-bit limbs;
* the 53-bit mantissa scaling of ``Generator.random()``.

``link_uniform_many(seed, tag, sender, receivers, iteration, nonces)`` is
bit-exact against the scalar ``_link_uniform`` for every key
(``tests/kernels/test_delivery_kernel.py`` pins this property), which is
what lets the medium vectorize loss draws without changing a single
delivery outcome anywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "OUTCOME_DELIVER",
    "OUTCOME_DROP",
    "OUTCOME_DELAY",
    "link_uniform_many",
    "batch_deliver",
]

#: Outcome codes used by the batched classify path (``LinkModel.classify_many``).
OUTCOME_DELIVER, OUTCOME_DROP, OUTCOME_DELAY = 0, 1, 2

_M32 = np.uint64(0xFFFFFFFF)
_INIT_A = np.uint64(0x43B0D7E5)
_MULT_A = np.uint64(0x931E8875)
_INIT_B = np.uint64(0x8B51F9DD)
_MULT_B = np.uint64(0x58F38DED)
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R = np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, split into 64-bit halves.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)


def _hashmix(value: np.ndarray, hash_const: np.uint64):
    """One SeedSequence hashmix step on uint32-domain words."""
    value = (value ^ hash_const) & _M32
    hash_const = (hash_const * _MULT_A) & _M32
    value = (value * hash_const) & _M32
    value = (value ^ (value >> _XSHIFT)) & _M32
    return value, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = ((x * _MIX_MULT_L) - (y * _MIX_MULT_R)) & _M32
    return (result ^ (result >> _XSHIFT)) & _M32


def _seed_pool(entropy_words: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed entropy pool: (n, w) words -> (n, 4) pool."""
    n, w = entropy_words.shape
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint64)
    hash_const = _INIT_A
    for i in range(_POOL_SIZE):
        src = entropy_words[:, i] if i < w else np.zeros(n, dtype=np.uint64)
        pool[:, i], hash_const = _hashmix(src, hash_const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                h, hash_const = _hashmix(pool[:, i_src], hash_const)
                pool[:, i_dst] = _mix(pool[:, i_dst], h)
    for i_src in range(_POOL_SIZE, w):
        for i_dst in range(_POOL_SIZE):
            h, hash_const = _hashmix(entropy_words[:, i_src], hash_const)
            pool[:, i_dst] = _mix(pool[:, i_dst], h)
    return pool


def _generate_state8(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) as 8 uint32-domain words."""
    n = pool.shape[0]
    out = np.zeros((n, 8), dtype=np.uint64)
    hash_const = _INIT_B
    for i_dst in range(8):
        data = pool[:, i_dst % _POOL_SIZE]
        data = (data ^ hash_const) & _M32
        hash_const = (hash_const * _MULT_B) & _M32
        data = (data * hash_const) & _M32
        data = (data ^ (data >> _XSHIFT)) & _M32
        out[:, i_dst] = data
    return out


def _mul_64_64(a: np.ndarray, b: np.ndarray):
    """Full 64x64 -> 128 product via 32-bit limbs; returns (hi, lo)."""
    a_lo = a & _M32
    a_hi = a >> np.uint64(32)
    b_lo = b & _M32
    b_hi = b >> np.uint64(32)
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    hh = a_hi * b_hi
    mid = (ll >> np.uint64(32)) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | ((mid & _M32) << np.uint64(32))
    hi = hh + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    carry = (lo < a_lo).astype(np.uint64)
    return a_hi + b_hi + carry, lo


def _pcg_step(s_hi, s_lo, inc_hi, inc_lo):
    """state = state * PCG_MULT + inc  (mod 2^128)."""
    hi, lo = _mul_64_64(s_lo, _PCG_MULT_LO)
    hi = hi + s_lo * _PCG_MULT_HI + s_hi * _PCG_MULT_LO
    return _add128(hi, lo, inc_hi, inc_lo)


def _pcg64_first_double(state8: np.ndarray) -> np.ndarray:
    """First ``Generator.random()`` of a PCG64 seeded from 8 uint32 words."""
    w = state8
    # little-endian uint64 view of the uint32 word stream
    seed0 = (w[:, 1] << np.uint64(32)) | w[:, 0]
    seed1 = (w[:, 3] << np.uint64(32)) | w[:, 2]
    seed2 = (w[:, 5] << np.uint64(32)) | w[:, 4]
    seed3 = (w[:, 7] << np.uint64(32)) | w[:, 6]
    init_hi, init_lo = seed0, seed1
    # inc = (initseq << 1) | 1, initseq = seed2 << 64 | seed3
    inc_hi = (seed2 << np.uint64(1)) | (seed3 >> np.uint64(63))
    inc_lo = (seed3 << np.uint64(1)) | np.uint64(1)
    # pcg_setseq_128_srandom: state = 0; step; state += initstate; step
    s_hi = np.zeros_like(init_hi)
    s_lo = np.zeros_like(init_lo)
    s_hi, s_lo = _pcg_step(s_hi, s_lo, inc_hi, inc_lo)
    s_hi, s_lo = _add128(s_hi, s_lo, init_hi, init_lo)
    s_hi, s_lo = _pcg_step(s_hi, s_lo, inc_hi, inc_lo)
    # next64: advance, then XSL-RR (rotr64(hi ^ lo, state >> 122))
    s_hi, s_lo = _pcg_step(s_hi, s_lo, inc_hi, inc_lo)
    xored = s_hi ^ s_lo
    rot = s_hi >> np.uint64(58)
    # numpy masks shift counts mod 64, so rot == 0 yields x | x == x
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def link_uniform_many(
    seed: int,
    tag: int,
    sender: int,
    receivers: np.ndarray,
    iteration: int,
    nonces: np.ndarray | int,
) -> np.ndarray:
    """One keyed uniform per receiver, bit-exact to the scalar draw.

    Equals ``[_link_uniform(seed, tag, sender, r, iteration, nc) for r, nc
    in zip(receivers, nonces)]`` — the draw depends only on the key, never
    on batch shape or call order.  ``nonces`` may be a scalar applied to
    every receiver; ``sender``, ``iteration`` and ``seed`` may each be a
    scalar or a per-copy array (one call can carry many broadcasts, even
    from media with different seeds, without changing any single copy's
    draw).
    """
    receivers = np.asarray(receivers, dtype=np.uint64)
    n = receivers.shape[0]
    words = np.zeros((n, 9), dtype=np.uint64)
    words[:, 0] = np.asarray(seed, dtype=np.uint64)
    # words 1..3 stay zero: SeedSequence pads the entropy to the pool size
    # before appending the spawn key
    words[:, 4] = np.uint64(tag)
    words[:, 5] = np.asarray(sender, dtype=np.uint64)
    words[:, 6] = receivers
    words[:, 7] = np.asarray(iteration, dtype=np.uint64)
    words[:, 8] = np.asarray(nonces, dtype=np.uint64)
    return _pcg64_first_double(_generate_state8(_seed_pool(words)))


def batch_deliver(
    link_model,
    link_override,
    sender,
    receivers: np.ndarray,
    distances: np.ndarray,
    iteration: int,
    nonces: np.ndarray,
) -> np.ndarray:
    """Fate codes for a round's copies under base + override models.

    Replicates the medium's per-copy composition: the base model classifies
    every copy; the override re-classifies only the copies the base
    delivered, with the *same* nonce (base and override share one nonce per
    copy).  ``sender`` is a scalar for one broadcast's copies or a per-copy
    array for a whole round.  Returns an int8 array of ``OUTCOME_*`` codes
    aligned with ``receivers``.
    """
    n = receivers.shape[0]
    if link_model is not None:
        out = link_model.classify_many(sender, receivers, distances, iteration, nonces)
    else:
        out = np.zeros(n, dtype=np.int8)
    if link_override is not None:
        m = out == OUTCOME_DELIVER
        if m.any():
            out = out.copy()
            sender_m = sender[m] if np.ndim(sender) else sender
            out[m] = link_override.classify_many(
                sender_m, receivers[m], distances[m], iteration, nonces[m]
            )
    return out
