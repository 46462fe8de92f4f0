"""Frozen reference kernels the equivalence tests compare against.

Every hot kernel in ``repro`` has exactly one implementation in
``src/``.  The pre-optimization versions it replaced live here, as free
functions over the public object's state (:mod:`oracles.kernels`), next
to a replica of the simulator's dynamic window built on either set of
kernels (:mod:`oracles.window`).  Tests compare the two bit for bit.

Do not edit an oracle to follow a kernel change: an intended change of a
kernel's output must change the tests, not the oracle.
"""
