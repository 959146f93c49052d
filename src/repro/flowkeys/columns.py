"""Columnar flow-key representation: packed keys as uint64 word columns.

This module is the single home of the key-packing arithmetic that the
vectorised layers share.  A batch of packed integer flow keys becomes a
``(W, n)`` uint64 array of *word columns* — word 0 holds each key's
least-significant 64 bits, word ``W-1`` the most significant — so that
hashing, projection and group-by all run as numpy array operations
regardless of key width (the IPv4 5-tuple needs 2 words, the IPv6
5-tuple 5).

The packing entry points (the engines' batch coercion, a trace's exact
table, per-sketch extraction) all route here:

* :func:`pack_key_columns` — the historical 128-bit ``(hi, lo)`` pair
  (what :meth:`Trace.batches` and the execution engines exchange).
* :func:`pack_key_words` / :func:`unpack_key_words` — the general
  multi-word form used by the columnar query plane.
* :func:`columns_to_words` / :func:`words_to_columns` — zero-copy
  adapters between the two shapes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def words_for_width(width: int) -> int:
    """Number of 64-bit words needed for a *width*-bit key (min 1)."""
    if width < 1:
        raise ValueError(f"key width must be >= 1, got {width}")
    return (width + 63) // 64


def pack_key_columns(keys: Sequence[int]) -> Tuple["np.ndarray", "np.ndarray"]:
    """Split packed integer keys (up to 128 bits) into uint64 columns.

    Returns ``(hi, lo)`` arrays with ``key = (hi << 64) | lo``.  This is
    the columnar key representation shared by the vectorised execution
    engines and :meth:`Trace.batches`.  A wider (or negative) key raises
    ``ValueError`` rather than losing its high bits.
    """
    n = len(keys)
    try:
        hi = np.fromiter((k >> 64 for k in keys), dtype=_U64, count=n)
    except OverflowError:
        raise ValueError(
            "(hi, lo) columns hold non-negative keys of at most 128 bits; "
            "use a key spec of at most 128 bits or the scalar engine"
        ) from None
    lo = np.fromiter((k & _MASK64 for k in keys), dtype=_U64, count=n)
    return hi, lo


def pack_key_words(keys: Sequence[int], width: int) -> "np.ndarray":
    """Pack integer keys of *width* bits into a ``(W, n)`` uint64 array.

    Word 0 is the least-significant 64 bits.  Works for any width the
    key specs allow (IPv6 5-tuple included).
    """
    w = words_for_width(width)
    n = len(keys)
    out = np.empty((w, n), dtype=_U64)
    for t in range(w):
        shift = 64 * t
        out[t] = np.fromiter(
            ((k >> shift) & _MASK64 for k in keys), dtype=_U64, count=n
        )
    return out


def unpack_key_words(words: "np.ndarray") -> List[int]:
    """Rebuild python integer keys from a ``(W, n)`` word array."""
    w = words.shape[0]
    keys = words[w - 1].tolist()
    for t in range(w - 2, -1, -1):
        low = words[t].tolist()
        keys = [(k << 64) | v for k, v in zip(keys, low)]
    return keys


def columns_to_words(hi: "np.ndarray", lo: "np.ndarray", width: int) -> "np.ndarray":
    """Adapt the engines' ``(hi, lo)`` pair to a ``(W, n)`` word array.

    Zero-copy for the word rows themselves (numpy views of the inputs)
    when ``width <= 128``; wider widths cannot come from a (hi, lo)
    pair and raise.
    """
    w = words_for_width(width)
    if w > 2:
        raise ValueError(
            f"(hi, lo) columns hold at most 128 bits; width {width} "
            f"needs {w} words"
        )
    lo = np.asarray(lo, dtype=_U64)
    if w == 1:
        return lo.reshape(1, -1)
    hi = np.asarray(hi, dtype=_U64)
    out = np.empty((2, len(lo)), dtype=_U64)
    out[0] = lo
    out[1] = hi
    return out


def words_to_columns(words: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Adapt a ``(W <= 2, n)`` word array back to the ``(hi, lo)`` pair."""
    if words.shape[0] > 2:
        raise ValueError(
            f"(hi, lo) columns hold at most 128 bits, got {words.shape[0]} words"
        )
    lo = words[0]
    if words.shape[0] == 2:
        hi = words[1]
    else:
        hi = np.zeros(len(lo), dtype=_U64)
    return hi, lo


def _dense_rank(column: "np.ndarray") -> Tuple["np.ndarray", int]:
    """Each value's rank among the column's distinct values, and its bits.

    Ranks preserve order and equality, so a key can stand in for its
    rank in a sort.  The order comes from an unstable ``argsort``: equal
    values share one rank whichever order the sort leaves them in.
    """
    order = np.argsort(column)
    ranked = column[order]
    step = np.empty(len(column), dtype=_U64)
    step[0] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=step[1:])
    np.cumsum(step, out=step)
    rank = np.empty_like(step)
    rank[order] = step
    return rank, int(step[-1]).bit_length()


def _fold_key(words: "np.ndarray", rank_bits: int) -> Tuple["np.ndarray", int]:
    """One uint64 per row that orders and equates rows as their keys do.

    Words fold in most significant first.  A word that does not fit
    beside the bits folded so far is replaced by its dense rank (at most
    *rank_bits* bits), and so, if it still does not fit, is the fold.
    Returns the folded column and its bit width.
    """
    key, key_bits = None, 0
    for t in range(words.shape[0] - 1, -1, -1):
        word = words[t]
        bits = int(word.max()).bit_length()
        if key is None:
            key, key_bits = word, bits
            continue
        if key_bits + bits > 64:
            if bits > rank_bits:
                word, bits = _dense_rank(word)
            if key_bits + bits > 64:
                key, key_bits = _dense_rank(key)
        key = (key << _U64(bits)) | word
        key_bits += bits
    return key, key_bits


def _ascending_starts(words: "np.ndarray") -> Optional["np.ndarray"]:
    """Group-start flags when the keys already ascend, else None."""
    tied = None  # adjacent pairs equal on every word compared so far
    for t in range(words.shape[0] - 1, -1, -1):
        prev, cur = words[t, :-1], words[t, 1:]
        down = cur < prev
        if tied is not None:
            down &= tied
        if down.any():
            return None
        same = cur == prev
        tied = same if tied is None else tied & same
        if not tied.any():
            break
    starts = np.empty(words.shape[1], dtype=bool)
    starts[0] = True
    np.logical_not(tied, out=starts[1:])
    return starts


def _packed_sort(words: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Stable ascending order of the keys and the sorted group starts.

    One value sort of ``(key << pos_bits) | position`` over the folded
    key (:func:`_fold_key`), the idiom the engine's chunk step uses for
    buckets: equal keys keep their positions in ascending order, so the
    order is stable, and the high bits of the sorted column give the
    group boundaries without gathering the words.
    """
    n = words.shape[1]
    pos_bits = max((n - 1).bit_length(), 1)
    key, key_bits = _fold_key(words, pos_bits)
    if key_bits + pos_bits > 64:
        key, key_bits = _dense_rank(key)
    packed = key << _U64(pos_bits)
    packed |= np.arange(n, dtype=_U64)
    packed.sort()
    order = (packed & _U64((1 << pos_bits) - 1)).astype(np.intp)
    packed >>= _U64(pos_bits)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(packed[1:], packed[:-1], out=starts[1:])
    return order, starts


def unique_words(words: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Sorted unique keys of word columns, and each row's index among them.

    Returns ``(unique_words, inverse)``: the distinct keys in ascending
    key order and an int32 column with ``unique_words[:, inverse] ==
    words``.  The same packed value sort as :func:`group_words`; keys
    that already ascend skip it.
    """
    n = words.shape[1]
    if n == 0:
        return words[:, :0], np.empty(0, dtype=np.int32)
    starts = _ascending_starts(words)
    order = None
    if starts is None:
        order, starts = _packed_sort(words)
    group = np.cumsum(starts, dtype=np.int32)
    group -= 1
    start_idx = np.nonzero(starts)[0]
    if order is None:
        return words[:, start_idx], group
    inverse = np.empty(n, dtype=np.int32)
    inverse[order] = group
    return np.take(words, order[start_idx], axis=1), inverse


def group_words(
    words: "np.ndarray", values: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """``GROUP BY key, SUM(value)`` over word columns.

    Returns ``(unique_words, totals)`` with unique keys in ascending
    key order, from one packed value sort (:func:`_packed_sort`) plus
    ``np.add.reduceat`` and no python loop over rows.  The sort is
    stable, so each group sums its values in input order.  Keys that
    already ascend skip the sort and its gathers.
    """
    n = words.shape[1]
    if n == 0:
        return words[:, :0], values[:0]
    starts = _ascending_starts(words)
    order = None
    if starts is None:
        order, starts = _packed_sort(words)
        values = values[order]
    start_idx = np.nonzero(starts)[0]
    rows = start_idx if order is None else order[start_idx]
    return np.take(words, rows, axis=1), np.add.reduceat(values, start_idx)
