"""Counter-based deterministic randomness for cross-engine replay.

The scalar CocoSketch classes draw replacement decisions from a
sequential ``random.Random`` stream and the numpy engine from a PCG64
generator, so their executions are statistically — never bitwise —
equivalent.  That is the right default (independent streams are what
the unbiasedness theorems assume about reruns), but it leaves the
differential test suite nothing exact to assert.

Replay mode replaces the *stream* with a pure function: the uniform
draw for packet number ``seq`` and decision ``purpose`` is

    u = splitmix64(replay_seed + seq * SEQ_GAMMA + purpose * PURPOSE_GAMMA)
        / 2**64

Because a draw depends only on ``(seed, seq, purpose)`` — not on how
many draws happened before it or in what order — any execution that
processes the same packets with the same per-packet decision structure
consumes *identical* randomness, regardless of engine, batch schedule,
or vectorisation.  Consequences the differential tests lean on:

* scalar vs numpy **basic** CocoSketch are bit-identical (state and
  eviction/replacement counters) when the numpy engine is fed
  ``update_batch`` one packet at a time (its epoch schedule is then
  exactly sequential);
* scalar vs numpy **hardware** CocoSketch are bit-identical at *any*
  batch size, since the per-array cumulative-sum schedule is
  sequential-equivalent and replay draws are order-independent.

The scalar and vectorised evaluators below are bit-compatible: python
``int * float`` and numpy ``uint64 -> float64`` conversions round the
same way, so ``replay_draw(s, t, p) == replay_draws(s, array([t]), p)``
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.family import mix64, mix64_array

_MASK64 = (1 << 64) - 1
#: Weyl increments decorrelating the sequence and purpose dimensions.
_SEQ_GAMMA = 0x9E3779B97F4A7C15
_PURPOSE_GAMMA = 0xD1B54A32D192ED03
_REPLAY_SALT = 0x5E9_1A7
_TO_UNIT = 2.0 ** -64

#: Decision-purpose channels.  The basic rule burns two draws per
#: evicting packet; the hardware rule one draw per array, indexed by
#: the array number.
PURPOSE_TIEBREAK = 0
PURPOSE_ADOPT = 1


def replay_seed(seed: int) -> int:
    """Derive the 64-bit replay-space seed from a sketch RNG seed."""
    return mix64((seed ^ _REPLAY_SALT) & _MASK64)


def replay_draw(seed: int, seq: int, purpose: int) -> float:
    """Uniform [0, 1) draw for one (packet, decision) coordinate."""
    x = (seed + seq * _SEQ_GAMMA + purpose * _PURPOSE_GAMMA) & _MASK64
    return mix64(x) * _TO_UNIT


def replay_draws(seed: int, seqs: "np.ndarray", purpose: int) -> "np.ndarray":
    """Vectorised :func:`replay_draw` over an array of sequence numbers.

    Bit-identical to the scalar form element-wise; ``seqs`` may be any
    integer dtype (converted to uint64 with wraparound, matching the
    scalar mask).
    """
    with np.errstate(over="ignore"):
        x = (
            np.uint64(seed)
            + np.asarray(seqs).astype(np.uint64) * np.uint64(_SEQ_GAMMA)
            + np.uint64((purpose * _PURPOSE_GAMMA) & _MASK64)
        )
    return mix64_array(x) * _TO_UNIT
