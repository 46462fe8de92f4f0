"""Property-based tests for the cipher substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.kernels import permute_unfused

from repro.crypto.feistel import FeistelNetwork
from repro.crypto.kcipher import KCipher

widths = st.integers(min_value=1, max_value=30)
keys = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(width=widths, key=keys, data=st.data())
@settings(max_examples=100, deadline=None)
def test_feistel_roundtrip(width, key, data):
    """decrypt(encrypt(x)) == x for any width, key, and value."""
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    net = FeistelNetwork(width=width, key=key)
    assert net.decrypt(net.encrypt(value)) == value


@given(width=st.integers(min_value=1, max_value=10), key=keys)
@settings(max_examples=40, deadline=None)
def test_feistel_is_permutation(width, key):
    """Exhaustive bijectivity for any key at small widths."""
    net = FeistelNetwork(width=width, key=key)
    domain = np.arange(1 << width, dtype=np.uint64)
    images = np.asarray(net.encrypt(domain))
    assert np.array_equal(np.sort(images), domain)


@given(width=st.integers(min_value=1, max_value=63), key=keys, data=st.data())
@settings(max_examples=100, deadline=None)
def test_feistel_array_scalar_agree(width, key, data):
    """The fused array path computes the scalar permutation and its inverse.

    Widths past 30 put a 32-bit-plus half through mix64's wrap-around,
    where a narrowed buffer would first go wrong; both directions must
    also match the unfused per-round oracle.
    """
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=20,
        )
    )
    net = FeistelNetwork(width=width, key=key)
    array_in = np.asarray(values, dtype=np.uint64)
    array_out = np.asarray(net.encrypt(array_in))
    array_back = np.asarray(net.decrypt(array_out))
    assert np.array_equal(array_back, array_in)
    for value, out in zip(values, array_out):
        assert net.encrypt(value) == int(out)
        assert net.decrypt(int(out)) == value
    if width > 1:
        assert np.array_equal(permute_unfused(net, array_in), array_out)
        assert np.array_equal(permute_unfused(net, array_out, inverse=True), array_in)


@given(
    width=st.integers(min_value=4, max_value=28),
    key=st.integers(min_value=0, max_value=(1 << 96) - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kcipher_roundtrip(width, key, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    cipher = KCipher(width=width, key=key)
    assert cipher.decrypt(cipher.encrypt(value)) == value


@given(key1=keys, key2=keys)
@settings(max_examples=30, deadline=None)
def test_different_keys_usually_disagree(key1, key2):
    if key1 == key2:
        return
    a = FeistelNetwork(width=16, key=key1)
    b = FeistelNetwork(width=16, key=key2)
    domain = np.arange(1 << 12, dtype=np.uint64)
    # Two random permutations of 4096 elements agree on ~1 point.
    agreements = int(np.count_nonzero(np.asarray(a.encrypt(domain)) == np.asarray(b.encrypt(domain))))
    assert agreements < 64
