"""Unit tests for the cipher substrate (Feistel / KCipher / keys)."""

import numpy as np
import pytest

from repro.crypto.feistel import _BLOCK, FeistelNetwork, _permute_unfused
from repro.crypto.kcipher import KCIPHER_KEY_BITS, KCIPHER_LATENCY_CYCLES, KCipher
from repro.crypto.keys import KeySchedule, generate_key


class TestFeistelBijectivity:
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 11, 13])
    def test_exhaustive_permutation(self, width):
        net = FeistelNetwork(width=width, key=0xABCD, rounds=6)
        domain = list(range(1 << width))
        images = [net.encrypt(v) for v in domain]
        assert sorted(images) == domain

    @pytest.mark.parametrize("width", [2, 7, 16, 26, 28])
    def test_decrypt_inverts_encrypt(self, width):
        net = FeistelNetwork(width=width, key=99, rounds=6)
        for value in (0, 1, (1 << width) - 1, (1 << width) // 3):
            assert net.decrypt(net.encrypt(value)) == value

    def test_array_matches_scalar(self):
        net = FeistelNetwork(width=20, key=7, rounds=6)
        values = np.arange(1000, dtype=np.uint64)
        enc = net.encrypt(values)
        for i in (0, 17, 999):
            assert int(enc[i]) == net.encrypt(int(values[i]))

    def test_array_roundtrip(self):
        net = FeistelNetwork(width=26, key=11, rounds=6)
        values = np.random.default_rng(0).integers(0, 1 << 26, 5000, dtype=np.uint64)
        assert np.array_equal(net.decrypt(net.encrypt(values)), values)

    def test_fused_blocks_match_unfused_oracle(self):
        # Sizes around the fused path's block length, and a 2-D input.
        net = FeistelNetwork(width=33, key=13, rounds=6)
        rng = np.random.default_rng(1)
        for size in (1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3):
            values = rng.integers(0, 1 << 33, size, dtype=np.uint64)
            enc = net.encrypt(values)
            assert np.array_equal(enc, _permute_unfused(net, values))
            assert np.array_equal(net.decrypt(enc), values)
        grid = rng.integers(0, 1 << 33, (3, 5), dtype=np.uint64)
        assert np.array_equal(net.encrypt(grid), _permute_unfused(net, grid))

    def test_keys_change_permutation(self):
        a = FeistelNetwork(width=16, key=1)
        b = FeistelNetwork(width=16, key=2)
        values = np.arange(4096, dtype=np.uint64)
        assert not np.array_equal(a.encrypt(values), b.encrypt(values))

    def test_diffusion(self):
        # Flipping one input bit should change ~half the output bits on average.
        net = FeistelNetwork(width=24, key=3)
        flips = []
        for value in range(0, 1 << 16, 257):
            a = net.encrypt(value)
            b = net.encrypt(value ^ 1)
            flips.append(bin(a ^ b).count("1"))
        assert 8 < np.mean(flips) < 16

    def test_domain_checked(self):
        net = FeistelNetwork(width=8, key=5)
        with pytest.raises(ValueError):
            net.encrypt(256)
        with pytest.raises(ValueError):
            net.encrypt(np.array([300], dtype=np.uint64))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FeistelNetwork(width=0, key=1)
        with pytest.raises(ValueError):
            FeistelNetwork(width=64, key=1)
        with pytest.raises(ValueError):
            FeistelNetwork(width=8, key=1, rounds=3)  # odd

    def test_width_one_is_keyed_flip(self):
        net = FeistelNetwork(width=1, key=1)
        assert sorted([net.encrypt(0), net.encrypt(1)]) == [0, 1]
        assert net.decrypt(net.encrypt(0)) == 0


class TestKCipher:
    def test_paper_constants(self):
        assert KCIPHER_LATENCY_CYCLES == 3
        assert KCIPHER_KEY_BITS == 96

    def test_paper_widths(self):
        # 28-bit cipher for 16 GB line-level, 26-bit at gang-size 4.
        for width in (26, 27, 28):
            cipher = KCipher(width=width, key=0x123456789ABCDEF)
            value = (1 << width) - 5
            assert cipher.decrypt(cipher.encrypt(value)) == value

    def test_storage_is_small(self):
        # The paper reports ~16 B of controller storage for Rubix-S.
        assert KCipher(width=26, key=1).storage_bytes <= 20

    def test_key_width_enforced(self):
        with pytest.raises(ValueError):
            KCipher(width=26, key=1 << 96)

    def test_repr(self):
        assert "26" in repr(KCipher(width=26, key=1))


class TestKeySchedule:
    def test_initial_keys_in_range(self):
        schedule = KeySchedule(nbits=21, seed=1)
        assert 0 <= schedule.curr_key < (1 << 21)
        assert 0 < schedule.next_key < (1 << 21)  # never zero

    def test_epoch_advance_folds_keys(self):
        schedule = KeySchedule(nbits=16, seed=2)
        curr, nxt = schedule.curr_key, schedule.next_key
        schedule.advance_epoch()
        assert schedule.curr_key == curr ^ nxt
        assert schedule.next_key != 0
        assert schedule.epoch == 1

    def test_deterministic(self):
        a = KeySchedule(nbits=16, seed=3)
        b = KeySchedule(nbits=16, seed=3)
        assert a.history() == b.history()

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            KeySchedule(nbits=0, seed=1)

    def test_generate_key_labelled(self):
        assert generate_key(1, "cipher", 64) != generate_key(1, "remap", 64)
