"""Unit tests for the hashing substrate (BobHash and HashFamily)."""

import numpy as np
import pytest

from repro.hashing.bobhash import bobhash32
from repro.hashing.family import HashFamily, fold_columns, mix64, mix64_array


class TestBobHash:
    def test_deterministic(self):
        assert bobhash32(b"hello", 1) == bobhash32(b"hello", 1)

    def test_seed_sensitivity(self):
        assert bobhash32(b"hello", 1) != bobhash32(b"hello", 2)

    def test_data_sensitivity(self):
        assert bobhash32(b"hello", 1) != bobhash32(b"hellp", 1)

    def test_32bit_range(self):
        for data in (b"", b"a", b"x" * 11, b"y" * 12, b"z" * 25):
            h = bobhash32(data, 7)
            assert 0 <= h < 1 << 32

    def test_empty_input_ok(self):
        assert isinstance(bobhash32(b"", 0), int)

    @pytest.mark.parametrize("length", range(0, 26))
    def test_all_tail_lengths(self, length):
        # Exercise every branch of the 12-byte tail switch.
        data = bytes(range(length))
        assert 0 <= bobhash32(data, 3) < 1 << 32

    def test_length_extension_differs(self):
        # Trailing zero byte must change the hash (length folded in).
        assert bobhash32(b"abc", 0) != bobhash32(b"abc\x00", 0)

    def test_uniformity_rough(self):
        # Bucket 20k hashes into 16 bins; expect no bin off by >25%.
        bins = [0] * 16
        for i in range(20_000):
            bins[bobhash32(i.to_bytes(4, "big"), 12345) % 16] += 1
        expected = 20_000 / 16
        assert all(0.75 * expected < b < 1.25 * expected for b in bins)


class TestMix64:
    def test_deterministic_and_64bit(self):
        assert mix64(12345) == mix64(12345)
        assert 0 <= mix64(2**63) < 2**64

    def test_bijective_on_sample(self):
        outs = {mix64(i) for i in range(10_000)}
        assert len(outs) == 10_000

    def test_vectorised_matches_scalar(self):
        values = np.arange(1000, dtype=np.uint64)
        vec = mix64_array(values)
        for i in (0, 1, 17, 999):
            assert int(vec[i]) == mix64(i)


class TestHashFamily:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HashFamily(0)
        with pytest.raises(ValueError):
            HashFamily(2, backend="sha")
        fam = HashFamily(2)
        with pytest.raises(IndexError):
            fam.index_fn(2, 10)
        with pytest.raises(ValueError):
            fam.index_fn(0, 0)

    @pytest.mark.parametrize("backend", ["mix64", "bob"])
    def test_in_range_and_deterministic(self, backend):
        fam = HashFamily(3, master_seed=42, backend=backend)
        fns = fam.index_fns(97)
        key = (0xDEAD << 72) | 0xBEEF
        for fn in fns:
            v = fn(key)
            assert 0 <= v < 97
            assert fn(key) == v

    def test_functions_are_independent(self):
        fam = HashFamily(2, master_seed=1)
        f0, f1 = fam.index_fns(1024)
        same = sum(1 for k in range(2000) if f0(k) == f1(k))
        # ~2000/1024 ~= 2 expected collisions; allow slack.
        assert same < 20

    def test_master_seed_changes_family(self):
        a = HashFamily(1, master_seed=1).index_fn(0, 1 << 20)
        b = HashFamily(1, master_seed=2).index_fn(0, 1 << 20)
        assert sum(1 for k in range(500) if a(k) == b(k)) < 5

    def test_high_bits_matter_mix64(self):
        # Two 104-bit keys differing only above bit 64 must not collide
        # systematically (regression: SrcIP lives in the high bits).
        fam = HashFamily(1, master_seed=3)
        fn = fam.index_fn(0, 1 << 16)
        collisions = sum(
            1 for i in range(1000) if fn(i << 72) == fn((i + 1000) << 72)
        )
        assert collisions < 5

    def test_mix64_uniformity(self):
        fn = HashFamily(1, master_seed=9).index_fn(0, 10)
        bins = [0] * 10
        for k in range(20_000):
            bins[fn(k)] += 1
        assert all(1700 < b < 2300 for b in bins)

    def test_vectorised_index_matches_scalar(self):
        fam = HashFamily(2, master_seed=5)
        keys = np.arange(500, dtype=np.uint64)
        vec = fam.index_array(1, keys, 777)
        fn = fam.index_fn(1, 777)
        for i in (0, 3, 499):
            assert int(vec[i]) == fn(i)

    @pytest.mark.parametrize("size", [188, 4096, 65536])
    def test_vectorised_paths_match_scalar(self, size):
        # 4096 and 65536 reduce with a mask, 188 with a modulo.
        fam = HashFamily(3, master_seed=21)
        rng = np.random.default_rng(size)
        hi = rng.integers(0, 2**40, 400, dtype=np.uint64)
        lo = rng.integers(0, 2**64, 400, dtype=np.uint64)
        keys = [(int(h) << 64) | int(l_) for h, l_ in zip(hi, lo)]
        expected = np.array([fam.indices(k, size) for k in keys]).T
        fold = fold_columns(hi, lo)
        assert np.array_equal(fam.index_arrays(fold, size), expected)
        for i in range(3):
            assert np.array_equal(fam.index_array(i, fold, size), expected[i])
        out = np.empty((3, len(keys)), dtype=np.int64)
        fam.index_arrays_into(fold, size, out, np.empty(len(keys), dtype=np.uint64))
        assert np.array_equal(out, expected)

    def test_vectorised_requires_mix64(self):
        fam = HashFamily(1, backend="bob")
        with pytest.raises(NotImplementedError):
            fam.index_array(0, np.zeros(1, dtype=np.uint64), 10)
