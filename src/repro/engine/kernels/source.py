"""Kernel source: the engine chunk loop's inner kernels in njit-able form.

These functions are the *source of truth* the compiled backends build
from: numba jit-compiles them, and ``kernels.c`` renders them line for
line in C for the ``c`` backend.  They are written in the restricted
subset of Python that numba's ``nopython`` mode accepts — flat numpy
arrays, explicit loops, no allocation, no Python objects — and they are
also runnable un-jitted (the ``python`` dispatch backend executes them
as-is under ``np.errstate``), which is what lets the differential suite
certify each compiled rendering against them bit for bit.

Semantics contract (enforced by ``tests/test_kernels.py`` and the
differential suite):

* ``hash_indices_kernel`` is bit-identical to
  :meth:`~repro.hashing.family.HashFamily.index_arrays_into` — the same
  splitmix64 finaliser over ``folded_key XOR seed`` modulo ``l``.
* ``basic_replace_kernel`` applies the **sequential** §4.1 rule exactly
  as :meth:`BasicCocoSketch._update_replay` does — packets in arrival
  order, first-match early return, k-th-minimum tie-break, adoption
  with probability ``w / V_new`` — so under replay mode its state and
  :class:`~repro.obs.stats.CocoStats` counters equal the scalar
  engine's at *any* chunk framing (and the numpy epoch kernel's when
  fed one packet per ``update_batch``, where that schedule degenerates
  to sequential).
* ``hw_replace_kernel`` applies the unconditional §4.2 rule per packet
  per array; because the numpy kernel's sorted-cumsum schedule is
  sequential-equivalent bucket by bucket and replay draws are keyed on
  ``(packet seq, array)``, the compiled, numpy, and scalar hardware
  paths are bit-identical at any batch size under replay.

Uniform draws are **passed in**, never generated here: the caller
evaluates either the sketch RNG (default mode) or the counter-based
replay stream (:mod:`repro.obs.replay`) into per-chunk arrays, so the
kernels stay deterministic, allocation-free, and free of RNG state.

Decision counters return through the caller-zeroed ``counts`` array:
``[matched, candidate_scans, replacements, rejects, evictions[0..d)]``.

All arithmetic stays within one dtype per operand pair (uint64 for
keys/hashes, int64 for values/indices, float64 for draws) — numba
promotes mixed uint64/int64 expressions to float64, which would break
bit-exactness, so the callers pre-cast ``l`` (``usize``) to uint64 for
the hash kernel and the kernels never mix key and value arithmetic.
"""

from __future__ import annotations

import numpy as np

# splitmix64 finaliser constants, as uint64 scalars so the jitted code
# keeps every operand in uint64 (see repro.hashing.family.mix64).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def hash_indices_kernel(fold, seeds, usize, out):
    """Hash-stage kernel: ``out[i, p] = mix64(fold[p] ^ seeds[i]) % usize``.

    ``fold`` — pre-folded uint64 keys (``hi ^ lo``), length n;
    ``seeds`` — the family's d per-function uint64 seeds;
    ``usize`` — bucket count as a uint64 scalar;
    ``out`` — int64 ``(d, >= n)`` output rows.
    """
    d = seeds.shape[0]
    n = fold.shape[0]
    for i in range(d):
        s = seeds[i]
        for p in range(n):
            z = (fold[p] ^ s) + _SM_GAMMA
            z = (z ^ (z >> _S30)) * _SM_M1
            z = (z ^ (z >> _S27)) * _SM_M2
            z = z ^ (z >> _S31)
            out[i, p] = z % usize


def basic_replace_kernel(
    hi, lo, w, J, l, key_hi, key_lo, occupied, vals, u_tie, u_adopt, counts
):
    """Sequential §4.1 replace kernel over one chunk.

    ``J`` is the chunk's ``(d, >= n)`` candidate-index block; bucket
    state comes in as the flat ``d*l`` views the columnar sketch keeps
    (``key_hi``/``key_lo`` uint64, ``occupied`` bool, ``vals`` int64).
    ``u_tie``/``u_adopt`` are per-packet uniform draws (consumed only by
    packets that reach the eviction rule, matching the keyed replay
    stream).  ``counts`` must arrive zeroed.
    """
    n = w.shape[0]
    d = J.shape[0]
    matched = 0
    scans = 0
    repl = 0
    rejects = 0
    for p in range(n):
        khi = hi[p]
        klo = lo[p]
        wt = w[p]
        hit = False
        for i in range(d):
            b = i * l + J[i, p]
            if occupied[b] and key_hi[b] == khi and key_lo[b] == klo:
                vals[b] += wt
                matched += 1
                scans += i + 1
                hit = True
                break
        if hit:
            continue
        scans += d
        # Min across the d candidates, counting ties.
        minv = vals[J[0, p]]
        ties = 1
        for i in range(1, d):
            v = vals[i * l + J[i, p]]
            if v < minv:
                minv = v
                ties = 1
            elif v == minv:
                ties += 1
        # Uniform tie-break: the k-th tied bucket in array order — the
        # same law (and the same draw) as the scalar replay walk and
        # the numpy kernel's cumsum argmax.
        k = int(u_tie[p] * ties)
        if k >= ties:
            k = ties - 1
        target = J[0, p]
        ti = 0
        seen = 0
        for i in range(d):
            b = i * l + J[i, p]
            if vals[b] == minv:
                if seen == k:
                    target = b
                    ti = i
                    break
                seen += 1
        new_v = minv + wt
        vals[target] = new_v
        # Replacement with probability w / V_new (Theorem 1), in the
        # multiplicative form every engine shares.
        if u_adopt[p] * new_v < wt:
            if occupied[target]:
                counts[4 + ti] += 1
            key_hi[target] = khi
            key_lo[target] = klo
            occupied[target] = True
            repl += 1
        else:
            rejects += 1
    counts[0] = matched
    counts[1] = scans
    counts[2] = repl
    counts[3] = rejects


def hw_replace_kernel(hi, lo, w, J, l, key_hi, key_lo, occupied, vals, u, counts):
    """Sequential unconditional §4.2 replace kernel over one chunk.

    Every array updates independently: add ``w`` to the bucket value,
    then with probability ``w / V_new`` the bucket key becomes the
    packet's key (a same-key win is a no-op for state but still counts
    as a won flip, exactly like the numpy kernel's unconditional form).
    ``u`` is a ``(d, n)`` draw block — row i holds array i's per-packet
    uniforms.  ``counts`` must arrive zeroed.
    """
    n = w.shape[0]
    d = J.shape[0]
    repl = 0
    for p in range(n):
        khi = hi[p]
        klo = lo[p]
        wt = w[p]
        for i in range(d):
            b = i * l + J[i, p]
            new_v = vals[b] + wt
            vals[b] = new_v
            if u[i, p] * new_v < wt:
                if occupied[b] and (key_hi[b] != khi or key_lo[b] != klo):
                    counts[4 + i] += 1
                key_hi[b] = khi
                key_lo[b] = klo
                occupied[b] = True
                repl += 1
    counts[0] = 0
    counts[1] = d * n
    counts[2] = repl
    counts[3] = d * n - repl
