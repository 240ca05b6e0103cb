"""Machine-speed calibration shared by the runner and the setup probe.

The host's speed drifts by up to 2x over minutes, so the benchmark brackets
every timed step with :func:`calibration` and rescales it to
:data:`REFERENCE_CALIBRATION_S` with :func:`rescale`.  The calibration is a
fixed mix of small numpy, ``Fraction`` and interpreter work, like what
goldenslant spends its time on, and it never calls goldenslant.
"""

import time
from fractions import Fraction

import numpy as np

# Typical calibration() time on the 2-vCPU 2.0 GHz Xeon this benchmark was
# tuned on (Python 3.11, numpy 2.4), where it ranged from 15 to 28 ms.
REFERENCE_CALIBRATION_S = 0.020
_MATRIX = np.random.default_rng(0).standard_normal((4, 4))


def calibration() -> float:
    """Seconds the fixed calibration mix takes now."""
    start = time.perf_counter()
    eye = np.eye(4)
    for _ in range(1500):
        float(np.abs(_MATRIX @ _MATRIX.T + eye).max())
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    acc = 0
    for i in range(100000):
        acc += i * i
    return time.perf_counter() - start


def rescale(seconds: float, *calibrations: float) -> float:
    """``seconds`` at the reference speed, given calibrations taken around it."""
    return seconds * REFERENCE_CALIBRATION_S * len(calibrations) / sum(calibrations)
