"""Compiled per-record kernels.

Four predictor families (YAGS, bi-mode, filter, DHLF) carry state —
tagged caches, selectively-trained banks, run counters, a fitted
history length — that does not reduce to the segmented-scan algebra
the vectorized engines are built on, so they stream through a
per-record loop.  The two-level family (PAs/GAs and relatives) does
reduce to that algebra, but the paper's 34-configuration sweep runs
faster as one tight compiled loop per configuration than as stacked
numpy scans.  This package removes the *Python* from those loops
without changing a single emitted bit:

* :mod:`.kernels` — the per-record loops rewritten over flat array
  state (no objects, no dicts).  Plain Python here; this is the
  jittable/portable source of truth that the other backends mirror.
* :mod:`.njit` — the same kernels compiled with numba when it is
  importable (``pip install numba``; never required).
* :mod:`.cext` — a tiny C mirror of the kernels built on demand with
  the host C compiler and loaded through :mod:`ctypes` (stdlib only).

Backend selection, availability probing and fallback live in
:mod:`repro.engine.backend`; every backend is pinned bit-identical to
the stateful reference predictors by ``tests/test_engine_backend.py``.
"""

from __future__ import annotations
