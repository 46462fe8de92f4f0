"""Cipher substrate for Rubix-S.

The paper uses K-Cipher, a low-latency cipher with *programmable bit
width* -- the property Rubix actually needs is a keyed bijection (a PRP)
over the gang-address space, of any width from a handful of bits up to
~28.  :class:`repro.crypto.kcipher.KCipher` provides that via a balanced
Feistel network with an ARX round function, fully vectorized over numpy
arrays so whole traces encrypt in one call.
"""
