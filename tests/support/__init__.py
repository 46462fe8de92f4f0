"""Test-only helpers that no ``repro`` code path runs.

:mod:`support.faults` corrupts trace files and remap-key state so the
unit tests can prove each corruption is detected.
"""
