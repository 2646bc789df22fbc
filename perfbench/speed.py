"""How fast the CPU runs right now, sampled while the timed code runs.

On a shared host the same pass takes anywhere from one to two times its
fastest time, depending on what else the machine runs, and that state
changes within seconds. On a 2 vCPU Xeon, ten protocol runs in a row read
4.1 to 7.8 s per pass, and set-up times moved from 0.13 to 0.27 s with
them.
To compare runs, each time is scaled to a reference speed: a fixed probe
loop is timed while the measured code runs, and

    time at reference speed = measured time * REFERENCE_S / mean probe time.

The probe mixes what the passes spend time on (Python integer and float
arithmetic, small numpy arrays, a small LAPACK call) and imports nothing
from qilab, so no change to the program moves it; only the machine does.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Probe time on the reference machine (2 vCPU Intel Xeon, Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31 on one thread) when it ran fast. Over the
# baseline runs its speed factor read 0.4 to 1.1 (median 0.7), so scaled
# times there come out below the measured ones.
REFERENCE_S = 100e-6
INTERVAL_S = 0.02

_BITS = np.array([(x >> 1) & 1 for x in range(8)])
_POINTS = np.linspace(-1.0, 1.0, 24).reshape(8, 3)
_HERMITIAN = np.diag(np.arange(1.0, 5.0)) + 0.25


def probe() -> float:
    """One run of the fixed loop; returns a value so no work is skipped."""
    z, acc = 12345, 0.0
    for _ in range(120):
        z = (z * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += math.sqrt((z >> 11) * 2.0**-53 + 1.0)
    for _ in range(3):
        d = _POINTS[_BITS == 0].mean(axis=0) - _POINTS[_BITS == 1].mean(axis=0)
        acc += float(np.linalg.norm(d))
    return acc + float(np.linalg.eigvalsh(_HERMITIAN)[0])


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def factor_now(samples: int = 30) -> float:
    """Speed factor from ``samples`` probes run back to back, now.

    For code too short to sample while it runs: the speed state lasts
    seconds, so probing right after it reads the state it ran in. The
    first, cold probe is not counted.
    """
    timed_probe()
    return REFERENCE_S * samples / sum(timed_probe() for _ in range(samples))


class SpeedProbe:
    """Context manager: times ``probe`` every ``INTERVAL_S`` seconds.

    A SIGALRM timer interrupts the code under measurement; the handler
    runs between bytecodes of the main thread, so it never splits a numpy
    call. Each sample times a second, warm run of the probe, so what the
    measured code left in the caches does not move it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        probe()  # bring the probe back into the caches; time the warm run
        self.samples.append(timed_probe())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """REFERENCE_S over the mean probe time: below 1 on a slow machine."""
        if not self.samples:
            return factor_now()
        return REFERENCE_S * len(self.samples) / sum(self.samples)
