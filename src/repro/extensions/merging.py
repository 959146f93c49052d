"""Unbiased merging and compression of CocoSketches.

Both operations reuse Theorem 1's variance-minimising coin flip.  When
two buckets ``(k1, v1)`` and ``(k2, v2)`` are folded into one, the
merged bucket keeps value ``v1 + v2`` and adopts ``k1`` with
probability ``v1 / (v1 + v2)`` (else ``k2``) — exactly the update rule
with the "packet" being the other bucket's whole history, so per-flow
expectations are preserved:

    E[merged estimate of e] = E[estimate_1 of e] + E[estimate_2 of e].

*Merging* combines two same-geometry sketches (e.g. from two switches
measuring disjoint traffic, or two cores sharding one link).  It works
on every CocoSketch variant — :class:`BasicCocoSketch`, the hardware
classes, and the columnar numpy engine sketches; the fold is per-array,
so the hardware variant's per-array estimators stay individually
unbiased and its median query keeps its law (for the default d = 2 the
median is the mean of two unbiased per-array estimates).
*Compression* folds each array onto itself by an integer factor before
export, the Elastic sketch's bandwidth-adaptivity trick.

All randomness is injected: every entry point takes either a ``seed``
(from which it derives a private :class:`random.Random`) or an explicit
``rng``.  Nothing here touches the ``random`` module's global state, so
a sharded run that threads one seeded RNG through its whole
scatter/merge chain is reproducible under ``--seed``.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TypeVar

import numpy as np

from repro.obs.registry import get_registry
from repro.sketches.base import Sketch

_MERGE_SALT = 0x6E56E
_COMPRESS_SALT = 0xC0135
_RESIZE_SALT = 0x4E512E

SketchT = TypeVar("SketchT", bound=Sketch)


def _fold_bucket(
    rng: random.Random,
    key_a: Optional[int],
    val_a: int,
    key_b: Optional[int],
    val_b: int,
):
    """Combine two buckets with the Theorem 1 coin flip.

    *rng* is the caller's injected stream — this helper never draws
    from module-level randomness.
    """
    total = val_a + val_b
    if total == 0:
        return None, 0
    if key_a == key_b:
        return key_a, total
    if key_a is None:
        return key_b, total
    if key_b is None:
        return key_a, total
    if rng.random() * total < val_a:
        return key_a, total
    return key_b, total


def _is_columnar(sketch: Sketch) -> bool:
    """True for the numpy-engine sketches (uint64 column state)."""
    return hasattr(sketch, "_key_hi")


def _check_mergeable(a: Sketch, b: Sketch) -> None:
    if type(a) is not type(b):
        raise ValueError(
            f"variant mismatch: {type(a).__name__} vs {type(b).__name__}"
        )
    if a.d != b.d or a.l != b.l:
        raise ValueError(
            f"geometry mismatch: ({a.d}x{a.l}) vs ({b.d}x{b.l})"
        )
    if a._family.seeds != b._family.seeds:
        raise ValueError("hash families differ; sketches are not mergeable")


def _resolve_rng(rng: Optional[random.Random], seed: int, salt: int) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(seed ^ salt)


def _blank_like(sketch: SketchT) -> SketchT:
    """Empty sketch of the same class/geometry sharing the hash family."""
    merged = type(sketch)(sketch.d, sketch.l, seed=0, key_bytes=sketch.key_bytes)
    # Share the hash family so queries hash identically.
    merged._family = sketch._family
    if hasattr(sketch, "_hash"):
        merged._hash = sketch._hash
    if hasattr(sketch, "mantissa_bits"):
        merged.mantissa_bits = sketch.mantissa_bits
    return merged


def _merge_scalar(a: SketchT, b: SketchT, rng: random.Random) -> SketchT:
    merged = _blank_like(a)
    coinflips = 0
    for i in range(a.d):
        a_keys = a._keys[i]
        b_keys = b._keys[i]
        for j in range(a.l):
            ka = a_keys[j]
            kb = b_keys[j]
            if ka is not None and kb is not None and ka != kb:
                coinflips += 1
            key, val = _fold_bucket(
                rng, ka, a._vals[i][j], kb, b._vals[i][j]
            )
            merged._keys[i][j] = key
            merged._vals[i][j] = val
    reg = get_registry()
    if reg.enabled:
        reg.inc("merge.operations")
        reg.inc("merge.buckets", a.d * a.l)
        reg.inc("merge.coinflips", coinflips)
    return merged


def _merge_columnar(a: SketchT, b: SketchT, rng: random.Random) -> SketchT:
    """Vectorised bucket fold over the numpy engine's column state.

    One uniform draw per bucket decides the Theorem 1 coin flip; draws
    come from a PCG64 stream derived from the injected *rng* so the
    result is a deterministic function of the caller's seed.
    """
    merged = _blank_like(a)
    np_rng = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    total = a._vals + b._vals
    r = np_rng.random(total.shape)
    prefer_a = r * total < a._vals  # total == 0 rows resolve to False
    use_a = a._occupied & (~b._occupied | prefer_a)
    use_b = b._occupied & ~use_a
    # In-place writes keep the flat views over the state arrays valid.
    merged._vals[:] = total
    merged._occupied[:] = use_a | use_b
    merged._key_hi[:] = np.where(use_a, a._key_hi, np.where(use_b, b._key_hi, 0))
    merged._key_lo[:] = np.where(use_a, a._key_lo, np.where(use_b, b._key_lo, 0))
    reg = get_registry()
    if reg.enabled:
        decisive = (
            a._occupied
            & b._occupied
            & ((a._key_hi != b._key_hi) | (a._key_lo != b._key_lo))
        )
        reg.inc("merge.operations")
        reg.inc("merge.buckets", a.d * a.l)
        reg.inc("merge.coinflips", int(decisive.sum()))
    return merged


def merge_cocosketch(
    a: SketchT,
    b: SketchT,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> SketchT:
    """Merge two same-variant, same-geometry, same-hash-family sketches.

    Returns a new sketch whose per-flow estimates are unbiased for the
    union of both input streams.  Inputs are not modified.  Pass *rng*
    to draw the coin flips from an existing seeded stream (a chain of
    merges sharing one RNG is reproducible end to end); otherwise a
    private stream is derived from *seed*.
    """
    _check_mergeable(a, b)
    rng = _resolve_rng(rng, seed, _MERGE_SALT)
    if _is_columnar(a):
        return _merge_columnar(a, b, rng)
    return _merge_scalar(a, b, rng)


def merge_many(
    sketches: Sequence[SketchT],
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> SketchT:
    """Left-fold a sequence of sketches through :func:`merge_cocosketch`.

    All coin flips across the whole fold come from one injected stream,
    so a sharded collector's result is a deterministic function of its
    seed regardless of shard count.  A single-element sequence is
    returned as-is (bit-identical to the lone input).
    """
    if not sketches:
        raise ValueError("need at least one sketch to merge")
    rng = _resolve_rng(rng, seed, _MERGE_SALT)
    merged = sketches[0]
    for other in sketches[1:]:
        merged = merge_cocosketch(merged, other, rng=rng)
    return merged


def compress_cocosketch(
    sketch: SketchT,
    factor: int,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> SketchT:
    """Fold each array by an integer *factor* (l must be divisible).

    The result answers queries through the original hash functions
    taken modulo the new length, so no rehashing of traffic is needed;
    estimates stay unbiased with proportionally more collisions.
    Supports the scalar variants (basic/hardware/P4); compress on the
    collector side after deserialising.  *rng* injects the coin-flip
    stream as in :func:`merge_cocosketch`.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if sketch.l % factor:
        raise ValueError(
            f"array length {sketch.l} not divisible by factor {factor}"
        )
    if _is_columnar(sketch):
        raise ValueError(
            "compression works on the scalar-layout variants; convert "
            "via serialize round-trip or merge first"
        )
    new_l = sketch.l // factor
    rng = _resolve_rng(rng, seed, _COMPRESS_SALT)
    out = type(sketch)(sketch.d, new_l, seed=0, key_bytes=sketch.key_bytes)
    out._family = sketch._family
    out._hash = [
        (lambda key, _fn=fn, _m=new_l: _fn(key) % _m) for fn in sketch._hash
    ]
    for i in range(sketch.d):
        for j in range(sketch.l):
            target = j % new_l
            key, val = _fold_bucket(
                rng,
                out._keys[i][target],
                out._vals[i][target],
                sketch._keys[i][j],
                sketch._vals[i][j],
            )
            out._keys[i][target] = key
            out._vals[i][target] = val
    return out


def _blank_resized(sketch: SketchT, new_l: int) -> SketchT:
    """Empty sketch of the same class at *new_l*, sharing the hash family.

    Unlike :func:`_blank_like` the hash surfaces are rebuilt for the new
    length: scalar variants get fresh ``index_fn`` closures at *new_l*
    (restoring canonical hashing even on a previously compressed
    sketch), and the columnar engines' cached seed array is re-derived
    from the shared family so their kernel hash path stays consistent.
    """
    out = type(sketch)(sketch.d, new_l, seed=0, key_bytes=sketch.key_bytes)
    out._family = sketch._family
    if hasattr(sketch, "mantissa_bits"):
        out.mantissa_bits = sketch.mantissa_bits
    if hasattr(out, "_hash"):
        out._hash = sketch._family.index_fns(new_l)
    if hasattr(out, "_seeds_arr"):
        out._seeds_arr = np.array(sketch._family.seeds, dtype=np.uint64)
    return out


def _resize_scalar(sketch: SketchT, new_l: int, rng: random.Random) -> SketchT:
    out = _blank_resized(sketch, new_l)
    for i in range(sketch.d):
        fn = out._hash[i]
        src_keys = sketch._keys[i]
        src_vals = sketch._vals[i]
        out_keys = out._keys[i]
        out_vals = out._vals[i]
        for j in range(sketch.l):
            key = src_keys[j]
            val = src_vals[j]
            if key is None and val == 0:
                continue
            # Keyed buckets land where the hash family maps their key at
            # the new length; keyless residual mass (an adoption coin
            # flip that went the other way) has no key to re-hash — it
            # folds positionally, which queries never observe.
            target = fn(key) if key is not None else j % new_l
            k, v = _fold_bucket(
                rng, out_keys[target], out_vals[target], key, val
            )
            out_keys[target] = k
            out_vals[target] = v
    return out


def _group_cumsum(x: np.ndarray, starts: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Prefix sums of *x* restarting at each group start."""
    cum = np.cumsum(x)
    return cum - (cum[starts] - x[starts])[group]


def _resize_columnar(sketch: SketchT, new_l: int, rng: random.Random) -> SketchT:
    """Vectorised re-hash: one weighted-reservoir fold per row.

    Folding a row's live buckets one by one through
    :func:`_fold_bucket` is a weighted reservoir per target bucket, so
    each row runs as array operations with the same law.  Live buckets
    (occupied or holding mass) are stable-sorted by target (a keyed
    bucket's canonical index at *new_l*, a keyless one's ``j % new_l``),
    which keeps the sequential fold's ``j`` order.  Each target gets its
    group's value sum.  Its key is the last keyed item that adopts: the
    first keyed item past the group's zero-mass prefix adopts outright
    (an empty or keyless accumulator yields to a key), and each later
    keyed item ``j`` adopts with probability ``v_j / V_j``, where
    ``V_j`` is the group's mass up to and including ``j``.  Keyless
    items never adopt, so a group without a keyed item, or of zero
    mass, stays keyless.  Draws come from a PCG64 stream seeded from
    the injected *rng*, as in :func:`_merge_columnar`.
    """
    out = _blank_resized(sketch, new_l)
    np_rng = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    for i in range(sketch.d):
        live = np.flatnonzero(sketch._occupied[i] | (sketch._vals[i] != 0))
        n = live.size
        if n == 0:
            continue
        keyed = sketch._occupied[i, live]
        hi = sketch._key_hi[i, live]
        lo = sketch._key_lo[i, live]
        targets = np.where(
            keyed, sketch._family.index_array(i, hi ^ lo, new_l), live % new_l
        )
        order = np.argsort(targets, kind="stable")
        t = targets[order]
        v = sketch._vals[i, live][order]
        keyed = keyed[order]
        first = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        mass = _group_cumsum(v, starts, group)
        eligible = keyed & (mass > 0)
        rank = _group_cumsum(eligible, starts, group)
        u = np_rng.random(n)
        adopt = eligible & ((rank == 1) | (u * mass < v))
        winner = np.maximum.reduceat(np.where(adopt, np.arange(n), -1), starts)
        slots = t[starts]
        out._vals[i, slots] = np.add.reduceat(v, starts)
        won = winner >= 0
        slots = slots[won]
        src = order[winner[won]]
        out._occupied[i, slots] = True
        out._key_hi[i, slots] = hi[src]
        out._key_lo[i, slots] = lo[src]
    return out


def resize_cocosketch(
    sketch: SketchT,
    new_l: int,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> SketchT:
    """Re-hash every recorded bucket into arrays of length *new_l*.

    The elastic-geometry primitive: growing spreads recorded keys over
    a wider array (fewer collisions from here on), shrinking folds
    colliding buckets through the Theorem 1 coin flip — in both
    directions each flow's expected estimate is unchanged, so Lemma 3
    partial-key unbiasedness survives any grow/shrink sequence.  Unlike
    :func:`compress_cocosketch` the result answers queries through the
    hash family's *canonical* functions at *new_l* (keyed buckets are
    re-hashed, not folded positionally), which is what lets the
    columnar engines — whose query path recomputes indices from the
    family — adopt the result in place.  Supports every CocoSketch
    variant, scalar and columnar.  Returns *sketch* itself when the
    length already matches; otherwise a new sketch sharing the family.
    *seed*/*rng* inject the coin-flip stream as in
    :func:`merge_cocosketch`.
    """
    if new_l < 1:
        raise ValueError(f"new_l must be >= 1, got {new_l}")
    if new_l == sketch.l:
        return sketch
    rng = _resolve_rng(rng, seed, _RESIZE_SALT)
    if _is_columnar(sketch):
        out = _resize_columnar(sketch, new_l, rng)
    else:
        out = _resize_scalar(sketch, new_l, rng)
    reg = get_registry()
    if reg.enabled:
        reg.inc("resize.operations")
        reg.inc("resize.buckets", sketch.d * sketch.l)
    return out
