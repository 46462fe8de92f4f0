"""Arbitrary-bit-width Feistel network (a keyed bijection on [0, 2^n)).

Any even number of rounds of a (possibly unbalanced) Feistel network is a
bijection regardless of the round function, which is exactly the property
an address-space randomizer needs; the ARX round function provides the
diffusion.  Both scalar integers and numpy arrays are supported, with the
array path staying entirely in uint64 vector operations.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.utils.bitops import mask
from repro.utils.prng import SplitMix64

IntOrArray = Union[int, np.ndarray]

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = mask(64)


def _mix64_scalar(value: int) -> int:
    value &= _M64
    value = ((value ^ (value >> 30)) * _MIX1) & _M64
    value = ((value ^ (value >> 27)) * _MIX2) & _M64
    return value ^ (value >> 31)


_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)

#: Elements per block of the fused array path (its buffers stay cache-sized).
_BLOCK = 1 << 16


class FeistelNetwork:
    """A Feistel PRP over ``width``-bit values.

    Args:
        width: Bit width of the domain, 1 <= width <= 63.  Width-1 domains
            degenerate to a keyed bit-flip (still a bijection).
        key: Master key; round keys are derived deterministically from it.
        rounds: Number of Feistel rounds (must be even so the half widths
            realign; default 6).
    """

    def __init__(self, width: int, key: int, rounds: int = 6) -> None:
        if not 1 <= width <= 63:
            raise ValueError(f"width must be in [1, 63], got {width}")
        if rounds < 2 or rounds % 2 != 0:
            raise ValueError(f"rounds must be even and >= 2, got {rounds}")
        self.width = width
        self.rounds = rounds
        self._left_bits = width // 2
        self._right_bits = width - self._left_bits
        rng = SplitMix64(key)
        self.round_keys: List[int] = [rng.next() for _ in range(rounds)]
        self._key_bit = key & mask(width)  # width-1 fallback

    # ------------------------------------------------------------------
    def _round_f(self, value: int, round_key: int, out_bits: int) -> int:
        return _mix64_scalar(value ^ round_key) & mask(out_bits)

    def encrypt(self, value: IntOrArray, *, validate: bool = True) -> IntOrArray:
        """Encrypt a value (or array of values) in [0, 2^width).

        ``validate=False`` skips the array path's O(n) domain scan for
        callers that already checked the chunk once (scalars are always
        validated -- the check is O(1) there).
        """
        if self.width == 1:
            return self._xor_fallback(value, validate=validate)
        self._check_domain(value, validate)
        if isinstance(value, np.ndarray):
            return self._rounds_array(value, inverse=False)
        a, b = self._left_bits, self._right_bits
        left, right = (value >> b) & mask(a), value & mask(b)
        for round_key in self.round_keys:
            # newL takes R's width; newR = L xor F(R); widths swap each round.
            left, right = right, left ^ self._round_f(right, round_key, a)
            a, b = b, a
        return (left << b) | right

    def decrypt(self, value: IntOrArray, *, validate: bool = True) -> IntOrArray:
        """Inverse of :meth:`encrypt` (``validate`` as in :meth:`encrypt`)."""
        if self.width == 1:
            return self._xor_fallback(value, validate=validate)
        self._check_domain(value, validate)
        if isinstance(value, np.ndarray):
            return self._rounds_array(value, inverse=True)
        # An even round count leaves the half widths where they started.
        a, b = self._left_bits, self._right_bits
        left, right = (value >> b) & mask(a), value & mask(b)
        for round_key in reversed(self.round_keys):
            a, b = b, a
            left, right = right ^ self._round_f(left, round_key, a), left
        return (left << b) | right

    def _rounds_array(self, value: np.ndarray, *, inverse: bool) -> np.ndarray:
        """Split, every round and join of an array, fused and in place.

        The result is a fresh uint64 copy of ``value`` that doubles as the
        left half; the right half and the round function's two scratch
        buffers are reused block by block, so no round allocates.  The
        mix64 arithmetic stays uint64: its wrapping multiplies define it.
        """
        out = np.array(value, dtype=np.uint64)
        flat = out.reshape(-1)
        a, b = self._left_bits, self._right_bits
        block = min(flat.size, _BLOCK)
        right_buf, f_buf, t_buf = (np.empty(block, np.uint64) for _ in range(3))
        # F's output width alternates, starting from the half it xors into.
        widths = (b, a) if inverse else (a, b)
        keys = [
            (np.uint64(key), np.uint64(mask(widths[i % 2])))
            for i, key in enumerate(reversed(self.round_keys) if inverse else self.round_keys)
        ]
        for start in range(0, flat.size, _BLOCK):
            left = flat[start : start + _BLOCK]
            right, f, t = right_buf[: left.size], f_buf[: left.size], t_buf[: left.size]
            np.bitwise_and(left, np.uint64(mask(b)), out=right)
            left >>= np.uint64(b)
            left &= np.uint64(mask(a))
            for round_key, f_mask in keys:
                # Encrypt: L ^= F(R); decrypt: R ^= F(L).  Then the halves
                # swap roles; an even round count swaps them back.
                src, dst = (left, right) if inverse else (right, left)
                np.bitwise_xor(src, round_key, out=f)
                np.right_shift(f, _S30, out=t)
                f ^= t
                f *= _MIX1_U64
                np.right_shift(f, _S27, out=t)
                f ^= t
                f *= _MIX2_U64
                np.right_shift(f, _S31, out=t)
                f ^= t
                f &= f_mask
                dst ^= f
                left, right = right, left
            left <<= np.uint64(b)
            left |= right
        return out

    # ------------------------------------------------------------------
    def _xor_fallback(self, value: IntOrArray, validate: bool = True) -> IntOrArray:
        self._check_domain(value, validate)
        if isinstance(value, np.ndarray):
            return value.astype(np.uint64) ^ np.uint64(self._key_bit)
        return value ^ self._key_bit

    def _check_domain(self, value: IntOrArray, validate: bool = True) -> None:
        limit = 1 << self.width
        if isinstance(value, np.ndarray):
            # The min/max scans are O(n) per call -- hot batch callers
            # validate once per chunk and pass validate=False.
            if validate and value.size and (
                int(value.max()) >= limit or int(value.min()) < 0
            ):
                raise ValueError(f"values out of [0, 2^{self.width}) domain")
        elif not 0 <= value < limit:
            raise ValueError(f"value {value} out of [0, 2^{self.width}) domain")


__all__ = ["FeistelNetwork"]
