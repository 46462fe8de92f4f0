"""Parallel campaign execution: process pools + a shared stats cache.

:mod:`repro.parallel.cache` provides the content-keyed window-statistics
cache the simulator consults; :mod:`repro.parallel.executor` runs
campaign cells on a process pool for ``Campaign.run(workers=N)``.
"""
