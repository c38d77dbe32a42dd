"""Vectorized keyed uniform draws for per-copy link delivery.

The link models draw one uniform per (message copy, directed link) from
``np.random.default_rng(SeedSequence(seed, spawn_key=(tag, sender, receiver,
iteration, nonce))).random()`` — deterministic and order-independent, but
building a ``SeedSequence`` and a ``Generator`` per copy costs tens of
microseconds of pure Python/object overhead.  This module replays the exact
same computation for a whole batch of copies:

* **SeedSequence's entropy pool.**  The assembled words are the seed's
  little-endian 32-bit words (any non-negative int, as SeedSequence splits
  it), zero-padded to the pool size of 4 *before* the spawn key is
  appended, then the tag and the four key words.  The hashmix multiplier
  advances through a fixed sequence whatever the data, so the pool fill,
  the cross-mix and everything up to and including the tag are a function
  of ``(seed, tag)`` alone: :func:`_prefix` computes that prefix once in
  Python ints and caches it, together with the hash constants each key
  word meets.  A scalar key word (a broadcast's sender, the iteration,
  nonce 0) is hashed once per call in Python ints; only per-copy words are
  hashed per copy.
* **The ``uint32`` domain.**  The per-copy part runs on ``(4, n)`` ``uint32``
  arrays, one row per pool word, so numpy's wrapping ``uint32`` arithmetic
  does what the reference's ``& 0xFFFFFFFF`` masks do;
  ``generate_state(4, uint64)`` is eight more hashmix rows over the pool.
* **PCG64 seeding** (``initstate``/``initseq``) and one ``next64``: seeding
  starts from state 0, so its first LCG step leaves ``state = inc`` with no
  multiply; the two remaining steps carry the 128-bit state as (hi, lo)
  ``uint64`` pairs with the high half of each 64x64 product taken from
  32-bit limbs.  XSL-RR output and the 53-bit mantissa scaling of
  ``Generator.random()`` finish the draw.

Key words (tag, sender, receiver, iteration, nonce) are single 32-bit words:
values in ``[0, 2^32)``, which every node id, iteration and nonce of the
simulator is.  The seed may be any non-negative int.

:func:`link_uniform` is the one-copy form: the same prefix, then the four
key words, ``generate_state`` and the PCG64 steps in Python ints (the state
as one 128-bit int), which beats a ``(4, 1)`` array pass and builds no
``SeedSequence``.  Both forms are bit-exact against numpy's own
``SeedSequence -> PCG64 -> random()`` chain for every key
(``tests/kernels/test_delivery_kernel.py`` and
``tests/fuzz/test_link_draws.py`` keep that chain as their reference), which
is what lets the link models draw without changing a single delivery
outcome anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np

__all__ = [
    "OUTCOME_DELIVER",
    "OUTCOME_DROP",
    "OUTCOME_DELAY",
    "link_uniform",
    "link_uniform_many",
    "batch_deliver",
]

#: Outcome codes used by the batched classify path (``LinkModel.classify_many``).
OUTCOME_DELIVER, OUTCOME_DROP, OUTCOME_DELAY = 0, 1, 2

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, split into 64-bit halves, and the low
# half's 32-bit limbs
_PCG_MULT_HI = 2549297995355413924
_PCG_MULT_LO = 4865540595714422341
_PCG_MULT_LO_HI, _PCG_MULT_LO_LO = _PCG_MULT_LO >> 32, _PCG_MULT_LO & _M32
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO
#: ``Generator.random()``'s scaling of a 53-bit mantissa
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def _hash_keys(hash_const: int, mult: int):
    """The (xor, multiply) constants of successive hashmix calls: the
    multiplier evolves independently of the data being hashed."""
    while True:
        nxt = hash_const * mult & _M32
        yield hash_const, nxt
        hash_const = nxt


def _hashmix(value: int, key: tuple[int, int]) -> int:
    xor_const, mult = key
    value = (value ^ xor_const) * mult & _M32
    return value ^ value >> _XSHIFT


def _mix(x: int, y: int) -> int:
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
    return result ^ result >> _XSHIFT


def _words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _column(values) -> np.ndarray:
    """A read-only ``(k, 1)`` uint32 column (the cached prefixes share them)."""
    col = np.array(values, dtype=np.uint32)[:, None]
    col.flags.writeable = False
    return col


#: generate_state's eight output words read pool rows 0..3 twice
_STATE_ROWS = np.array([0, 1, 2, 3, 0, 1, 2, 3])
_STATE_KEYS = list(islice(_hash_keys(_INIT_B, _MULT_B), 8))
_STATE_XOR = _column([x for x, _ in _STATE_KEYS])
_STATE_MULT = _column([m for _, m in _STATE_KEYS])


@lru_cache(maxsize=256)
def _prefix(seed: int, tag: int):
    """The pool after the seed's words, their zero padding and the tag, as
    four Python ints and as a ``(4, 1)`` uint32 column, plus the hash
    constants of the four key words that follow (sender, receiver,
    iteration, nonce): for each, the four (xor, multiply) pairs as Python
    ints and as ``(4, 1)`` uint32 columns."""
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    words += _words(tag)
    keys = _hash_keys(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(keys)) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], next(keys)))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, next(keys)))
    word_keys = []
    for _ in range(4):
        pairs = tuple(islice(keys, _POOL_SIZE))
        word_keys.append(
            (pairs, _column([x for x, _ in pairs]), _column([m for _, m in pairs]))
        )
    return tuple(pool), _column(pool), tuple(word_keys)


def _mix_word(pool: np.ndarray, word, keys) -> np.ndarray:
    """Mix one key word into every pool row (``(4, 1)`` or ``(4, n)``)."""
    pairs, xor_col, mult_col = keys
    if np.ndim(word) == 0:
        value = int(word)
        h = _column([_hashmix(value, key) for key in pairs])
    else:
        h = np.asarray(word).astype(np.uint32)[None, :] ^ xor_col
        h *= mult_col
        h ^= h >> _XSHIFT
    out = pool * _MIX_MULT_L - h * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) as eight uint32 rows."""
    state = pool[_STATE_ROWS]
    state ^= _STATE_XOR
    state *= _STATE_MULT
    state ^= state >> _XSHIFT
    return state


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state = state * PCG_MULT + inc  (mod 2^128) on (hi, lo) uint64 pairs."""
    a_lo = lo & _M32
    a_hi = lo >> 32
    t = a_hi * _PCG_MULT_LO_LO + (a_lo * _PCG_MULT_LO_LO >> 32)
    u = a_lo * _PCG_MULT_LO_HI + (t & _M32)
    # high half of lo * MULT_LO, then the two cross products
    hi = a_hi * _PCG_MULT_LO_HI + (t >> 32) + (u >> 32) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg64_first_double(state: np.ndarray) -> np.ndarray:
    """First ``Generator.random()`` of a PCG64 seeded from eight uint32 rows."""
    # little-endian uint64 view of the uint32 word stream
    init_hi, init_lo, seq_hi, seq_lo = (state[1::2].astype(np.uint64) << 32) | state[0::2]
    # inc = (initseq << 1) | 1
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    # pcg_setseq_128_srandom: step from state 0 (leaving inc), add initstate,
    # step; then next64 steps once more before the XSL-RR output
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    xored = hi ^ lo
    rot = hi >> 58
    # "& 63" keeps the left shift in range: rot == 0 yields x | x == x
    out = (xored >> rot) | (xored << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * _DOUBLE_SCALE


def link_uniform(
    seed: int, tag: int, sender: int, receiver: int, iteration: int, nonce: int
) -> float:
    """One keyed uniform: the one-copy :func:`link_uniform_many`.

    Equals ``np.random.default_rng(SeedSequence(seed, spawn_key=(tag,
    sender, receiver, iteration, nonce))).random()`` bit for bit.
    """
    pool, _pool_column, word_keys = _prefix(int(seed), int(tag))
    return _replay(pool, word_keys, (sender, receiver, iteration, nonce))


def _replay(pool, word_keys, words) -> float:
    """The draw of one key from its ``_prefix``, in Python ints.  The
    hashmix and mix steps are written out on the pool's four ints: at one
    copy the interpreter's call overhead is most of the cost."""
    p0, p1, p2, p3 = pool
    for w, (((x0, m0), (x1, m1), (x2, m2), (x3, m3)), _x, _m) in zip(words, word_keys):
        w = int(w)
        h = (w ^ x0) * m0 & _M32
        r = (p0 * _MIX_MULT_L - (h ^ h >> _XSHIFT) * _MIX_MULT_R) & _M32
        p0 = r ^ r >> _XSHIFT
        h = (w ^ x1) * m1 & _M32
        r = (p1 * _MIX_MULT_L - (h ^ h >> _XSHIFT) * _MIX_MULT_R) & _M32
        p1 = r ^ r >> _XSHIFT
        h = (w ^ x2) * m2 & _M32
        r = (p2 * _MIX_MULT_L - (h ^ h >> _XSHIFT) * _MIX_MULT_R) & _M32
        p2 = r ^ r >> _XSHIFT
        h = (w ^ x3) * m3 & _M32
        r = (p3 * _MIX_MULT_L - (h ^ h >> _XSHIFT) * _MIX_MULT_R) & _M32
        p3 = r ^ r >> _XSHIFT
    # generate_state(4, uint64): eight hashmix words over the pool, twice round
    s = [
        h ^ h >> _XSHIFT
        for h in [
            (p ^ x) * m & _M32
            for p, (x, m) in zip((p0, p1, p2, p3, p0, p1, p2, p3), _STATE_KEYS)
        ]
    ]
    # its uint64 words are little-endian uint32 pairs; the first two seed
    # the 128-bit state and the last two the increment, high word first
    init = s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2]
    inc = (s[5] << 96 | s[4] << 64 | s[7] << 32 | s[6]) << 1 & _M128 | 1
    # the srandom steps from state 0 (leaving inc), then next64's step
    state = (init + inc) * _PCG_MULT + inc & _M128
    state = state * _PCG_MULT + inc & _M128
    hi, lo = state >> 64, state & _M64
    xored, rot = hi ^ lo, hi >> 58
    out = (xored >> rot | xored << (64 - rot)) & _M64
    return (out >> 11) * _DOUBLE_SCALE


#: batches up to this size replay each key in Python ints: below it the
#: array pass's fixed cost (~80 array operations on (4, n) words) is more
#: than the keys' replays
_SMALL_BATCH = 8


def _take(value, sel: np.ndarray):
    return value if np.ndim(value) == 0 else np.asarray(value)[sel]


def link_uniform_many(
    seed,
    tag: int,
    sender,
    receivers: np.ndarray,
    iteration,
    nonces,
) -> np.ndarray:
    """One keyed uniform per receiver, bit-exact to the scalar draw.

    Equals ``[link_uniform(seed, tag, sender, r, iteration, nc) for r, nc
    in zip(receivers, nonces)]`` — the draw depends only on the key, never
    on batch shape or call order.  ``nonces`` may be a scalar applied to
    every receiver; ``sender``, ``iteration`` and ``seed`` may each be a
    scalar or a per-copy array (one call can carry many broadcasts, even
    from media with different seeds, without changing any single copy's
    draw).
    """
    receivers = np.asarray(receivers)
    if np.ndim(seed):
        # one prefix per distinct seed; object dtype keeps seeds of any size
        # exact (a list mixing ints past 2^63 would otherwise become floats)
        uniq, inverse = np.unique(np.asarray(seed, dtype=object), return_inverse=True)
        out = np.empty(receivers.shape[0])
        for i, s in enumerate(uniq.tolist()):
            sel = inverse == i
            out[sel] = link_uniform_many(
                s, tag, _take(sender, sel), receivers[sel],
                _take(iteration, sel), _take(nonces, sel),
            )
        return out
    pool_ints, pool, word_keys = _prefix(int(seed), int(tag))
    n = receivers.shape[0]
    if n <= _SMALL_BATCH:
        words = [
            [int(w)] * n if np.ndim(w) == 0 else np.asarray(w).tolist()
            for w in (sender, receivers, iteration, nonces)
        ]
        return np.array([_replay(pool_ints, word_keys, key) for key in zip(*words)])
    for word, keys in zip((sender, receivers, iteration, nonces), word_keys):
        pool = _mix_word(pool, word, keys)
    return _pcg64_first_double(_generate_state(pool))


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
