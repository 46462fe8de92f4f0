"""Parallel campaign execution: process pools + a shared stats cache.

:mod:`repro.parallel.cache` provides the content-keyed window-statistics
cache the simulator consults; the process-pool :class:`ParallelExecutor`
lives in :mod:`repro.parallel.executor`.
"""
