/* The three kernels of source.py in C, built and loaded by the `c` backend.
 *
 * A line-for-line rendering of repro/engine/kernels/source.py, which stays
 * the source of truth: the same loops, the same uint64/int64/float64
 * arithmetic, so state and counters equal the `python` backend bit for bit.
 * 2-D blocks (J, the hardware draw rows, the hash output) are passed as a
 * base pointer plus a row stride in elements, so column slices need no copy.
 * `occupied` is numpy's one-byte bool.
 */
#include <stdint.h>

void hash_indices(const uint64_t *fold, int64_t n, const uint64_t *seeds,
                  int64_t d, uint64_t usize, int64_t *out, int64_t os)
{
    for (int64_t i = 0; i < d; i++) {
        uint64_t s = seeds[i];
        for (int64_t p = 0; p < n; p++) {
            uint64_t z = (fold[p] ^ s) + 0x9E3779B97F4A7C15ULL;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            out[i * os + p] = (int64_t)((z ^ (z >> 31)) % usize);
        }
    }
}

void basic_replace(const uint64_t *hi, const uint64_t *lo, const int64_t *w,
                   int64_t n, const int64_t *J, int64_t js, int64_t d,
                   int64_t l, uint64_t *key_hi, uint64_t *key_lo,
                   uint8_t *occupied, int64_t *vals, const double *u_tie,
                   const double *u_adopt, int64_t *counts)
{
    int64_t matched = 0, scans = 0, repl = 0, rejects = 0;
    for (int64_t p = 0; p < n; p++) {
        uint64_t khi = hi[p], klo = lo[p];
        int64_t wt = w[p], i, b;
        for (i = 0; i < d; i++) {
            b = i * l + J[i * js + p];
            if (occupied[b] && key_hi[b] == khi && key_lo[b] == klo)
                break;
        }
        if (i < d) {
            vals[b] += wt;
            matched++;
            scans += i + 1;
            continue;
        }
        scans += d;
        int64_t minv = vals[J[p]], ties = 1;
        for (i = 1; i < d; i++) {
            int64_t v = vals[i * l + J[i * js + p]];
            if (v < minv) {
                minv = v;
                ties = 1;
            } else if (v == minv) {
                ties++;
            }
        }
        int64_t k = (int64_t)(u_tie[p] * (double)ties);
        if (k >= ties)
            k = ties - 1;
        int64_t target = J[p], ti = 0, seen = 0;
        for (i = 0; i < d; i++) {
            b = i * l + J[i * js + p];
            if (vals[b] == minv) {
                if (seen == k) {
                    target = b;
                    ti = i;
                    break;
                }
                seen++;
            }
        }
        int64_t new_v = minv + wt;
        vals[target] = new_v;
        if (u_adopt[p] * (double)new_v < (double)wt) {
            if (occupied[target])
                counts[4 + ti]++;
            key_hi[target] = khi;
            key_lo[target] = klo;
            occupied[target] = 1;
            repl++;
        } else {
            rejects++;
        }
    }
    counts[0] = matched;
    counts[1] = scans;
    counts[2] = repl;
    counts[3] = rejects;
}

void hw_replace(const uint64_t *hi, const uint64_t *lo, const int64_t *w,
                int64_t n, const int64_t *J, int64_t js, int64_t d, int64_t l,
                uint64_t *key_hi, uint64_t *key_lo, uint8_t *occupied,
                int64_t *vals, const double *u, int64_t us, int64_t *counts)
{
    int64_t repl = 0;
    for (int64_t p = 0; p < n; p++) {
        uint64_t khi = hi[p], klo = lo[p];
        int64_t wt = w[p];
        for (int64_t i = 0; i < d; i++) {
            int64_t b = i * l + J[i * js + p];
            int64_t new_v = vals[b] + wt;
            vals[b] = new_v;
            if (u[i * us + p] * (double)new_v < (double)wt) {
                if (occupied[b] && (key_hi[b] != khi || key_lo[b] != klo))
                    counts[4 + i]++;
                key_hi[b] = khi;
                key_lo[b] = klo;
                occupied[b] = 1;
                repl++;
            }
        }
    }
    counts[0] = 0;
    counts[1] = d * n;
    counts[2] = repl;
    counts[3] = d * n - repl;
}
