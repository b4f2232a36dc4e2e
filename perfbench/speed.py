"""Machine-speed probe for the timed metrics.

On a shared host, calls of one fixed input run anywhere from 1.0x to 1.9x
their fastest time, in bursts of seconds to minutes while co-tenants are
busy; every kind of work slows down together. A plain wall time therefore
moves with the host, not with the program. The probe runs a fixed kernel of
the kinds of work cfsubspace does (a Python loop, small complex matrix
products and SVDs, a larger product, Gaussian draws) right before and after
each timed call, and the call is rescaled by how much slower than
``REFERENCE_S`` the probe ran around it. The kernel uses numpy only, never
the program, so a change to the program cannot change the probe.
"""

import time

import numpy as np

# The probe's fastest time on the 2-vCPU x86-64 VM where the benchmark was
# written (Python 3.11, numpy 2.4, OpenBLAS 0.3, one BLAS thread). A rescaled
# time is the wall time the call would take when the probe takes this long.
REFERENCE_S = 0.017

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 19)) + 1j * _rng.standard_normal((16, 19))
_SQUARE = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_WIDE = _rng.standard_normal((8, 29)) + 1j * _rng.standard_normal((8, 29))


def probe() -> float:
    """Wall time of one run of the fixed kernel, in seconds."""
    start = time.perf_counter()
    acc = 0
    for x in range(50_000):
        acc += x * x
    for _ in range(600):
        np.abs(_SMALL.conj().T @ _SMALL).sum()
    for _ in range(100):
        np.linalg.svd(_WIDE, full_matrices=False)
    for _ in range(10):
        _SQUARE @ _SQUARE
    draws = np.random.default_rng(5)
    for _ in range(5):
        draws.standard_normal((640, 100))
    return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the probe times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
