"""Address mappings: line address -> DRAM coordinate.

Baseline mappings model deployed controllers (Intel Coffee Lake and
Skylake, per the reverse-engineering cited by the paper), plus MOP
(Section 7.1) and the large-stride mapping (Section 6.1).  The Rubix
mappings that randomize these live in :mod:`repro.core`.
"""
