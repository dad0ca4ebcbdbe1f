"""Host-speed reference for scaling command timings.

On a shared host the speed of a vCPU drifts by tens of percent over seconds to
minutes. The benchmark times this fixed unit of work, a mix of small numpy
kernels and interpreter work like the program's, right before and after each
command invocation, and scales the invocation's wall time to the nominal
speed at which the unit takes ``NOMINAL_S``. The unit belongs to the
benchmark, not to the program, so it is the same on every commit compared.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About what one unit takes on a 2-vCPU Xeon VM in its usual state.
NOMINAL_S = 0.15
ROUNDS = 4000

_RNG = np.random.default_rng(0)
_A = _RNG.random((64, 32))
_B = _RNG.random((32, 128))
_ROW = ",".join(f"{v:.2f}" for v in _RNG.random(12) * 1000)


def reference_seconds() -> float:
    """Wall time of one fixed unit of numpy and interpreter work."""
    t0 = perf_counter()
    for _ in range(ROUNDS):
        np.tanh(_A @ _B)
        sum(float(v) for v in _ROW.split(","))
    return perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the unit took ``reference``, at nominal speed."""
    return seconds * NOMINAL_S / reference
