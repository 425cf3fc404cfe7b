"""A fixed kernel that measures the host's speed between workload units.

The host's CPU speed drifts by up to a factor of three over minutes (see
README, "Host"), and the process's CPU time drifts with it.  ``runner.py``
therefore times passes of this kernel before the first unit and after
every unit, and ``run.py`` scales the run's median unit time by ``REF_S``
over the median pass.  Each set-up probe times the kernel right after its
imports, and its set-up time is scaled by ``REF_S`` over that kernel time.  The kernel uses no part of torusfs, so
a change to the program moves the scaled time as much as the raw one.

Its three parts mirror what the workloads spend their time on: Python-level
loops over small objects, numpy calls on short arrays, and inverse FFTs of
a 2^16-point complex array, kept that small so that the kernel adds little
to ``peak_rss_mb``.  Its inputs are fixed; they do not depend on the
benchmark seed.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.25  # the kernel's time on the reference host in a quiet stretch (README, "Host")

_rng = np.random.default_rng(20250810)
_SHORT = _rng.standard_normal(1024)
_WIDE = _rng.standard_normal(1 << 16) + 1j * _rng.standard_normal(1 << 16)


def _python() -> int:
    table, last = {}, {}
    for i in range(900_000):
        key = i % 101
        table[key] = table.get(key, 0.0) + i * 0.5
        if i % 7 == 0:
            last[key] = (key, i)
    return len(last)


def _short_arrays() -> float:
    y, acc = _SHORT, 0.0
    for _ in range(40_000):
        z = np.maximum(np.abs(y), y[::-1])
        acc += float(z.sum())
    return acc


def _wide_fft() -> None:
    for _ in range(70):
        np.fft.ifft(_WIDE)


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    start = time.perf_counter()
    _python()
    _short_arrays()
    _wide_fft()
    return time.perf_counter() - start
