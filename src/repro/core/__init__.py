"""Rubix: randomized line-to-row mapping (the paper's contribution).

* :class:`repro.core.rubix_s.RubixSMapping` -- static randomization via a
  programmable-width cipher over the gang address (Section 4).
* :class:`repro.core.rubix_d.RubixDMapping` -- dynamic randomization via
  per-vertical-group xor remap circuits (Section 5).
* :class:`repro.core.rubix_keyed_xor.KeyedXorMapping` -- the static
  keyed-xor variant of Section 6.2 (Rubix-D without remapping).
"""
