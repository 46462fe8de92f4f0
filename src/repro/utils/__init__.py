"""Shared low-level utilities: bit manipulation, deterministic PRNGs, units.

These helpers are deliberately dependency-light (numpy only) and fully
deterministic so that every experiment in the repository is reproducible
bit-for-bit from a seed.
"""
