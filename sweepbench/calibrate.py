"""Host-speed probe for timings; it shares no code with the package.

The host's speed changes by tens of percent within a fraction of a second,
and a single-threaded program slows with it. Timed work is cut into short
segments by probes of this kernel, which does the kinds of operations the
simulator spends its time in (complex exponentials, small complex products,
a 3x3 SVD and log-determinant, Python arithmetic).
Each segment's time is rescaled to the kernel's reference speed:
``reference_seconds = wall_seconds * speed / REFERENCE_SPEED``, with the
speed averaged over the probes at both ends. The drift cancels, and a
change to the package still moves the result in full.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# Kernel iterations per second on the host the first baseline was recorded on
# (2-vCPU Intel Xeon at 2.1 GHz, one BLAS thread).
REFERENCE_SPEED = 13300.0
ITERATIONS = 200  # one probe: about 15 ms at the reference speed
TICK_ITERATIONS = 50  # one timer probe: about 4 ms

_rng = np.random.default_rng(0)
_ANGLES = _rng.standard_normal((64, 10))
_GAINS = _rng.standard_normal(10) + 1j * _rng.standard_normal(10)
_RIGHT = _rng.standard_normal((10, 36)) + 0j
_SMALL = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))


def speed(iterations: int = ITERATIONS) -> float:
    """Kernel iterations per second, measured now."""
    start = time.perf_counter()
    for _ in range(iterations):
        product = (np.exp(1j * _ANGLES) * _GAINS) @ _RIGHT
        np.linalg.svd(_SMALL)
        np.linalg.slogdet(_SMALL)
        float(np.abs(product).max())
        sum(i * i for i in range(50))
    return iterations / (time.perf_counter() - start)


def to_reference(wall_seconds: float, measured_speed: float) -> float:
    """Wall time rescaled to what it would be at the reference speed."""
    return wall_seconds * measured_speed / REFERENCE_SPEED


class ReferenceClock:
    """Wall and reference seconds of work cut into segments by speed probes.

    Call ``probe()`` before the work, between its parts and after it, or
    let ``ticking`` probe on a timer in between. The probes' own time is in
    neither total.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._start: float | None = None
        self._speed = 0.0

    def probe(self, iterations: int = ITERATIONS) -> None:
        end = time.perf_counter()
        measured = speed(iterations)
        if self._start is not None:
            wall = end - self._start
            self.wall_s += wall
            self.reference_s += to_reference(wall, (self._speed + measured) / 2.0)
        self._speed = measured
        self._start = time.perf_counter()

    @contextmanager
    def ticking(self, interval_s: float):
        """Probe every ``interval_s`` wall seconds from a timer signal while the block runs.

        The host's speed changes within a fraction of a second, so probes
        only at the ends of parts that last seconds would miss most of it.
        """
        def tick(*_):
            self.probe(TICK_ITERATIONS)
            signal.setitimer(signal.ITIMER_REAL, interval_s)  # re-armed only after the probe

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
