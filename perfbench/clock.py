"""Calibrated CPU time: timings that survive a noisy shared machine.

On a shared machine the speed of the interpreter drifts by up to 2x
within seconds, as other tenants load the same physical cores.  The
benchmark therefore times work in *laps* of a few tens of thousands of
simulator events and runs a fixed calibration loop between laps.  Each
lap's CPU time is divided by the mean of the calibration times on either
side of it and multiplied by ``REFERENCE_CALIBRATION_S``, so the result
reads in seconds on a machine where the calibration loop takes exactly
that long.  The loop touches no ``repro`` code, so a change to the
program under test cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import resource
import time

#: CPU seconds one calibration loop takes on the machine the bounds in
#: ``BENCHMARK.json`` were set on (Python 3.11, quiet periods).
REFERENCE_CALIBRATION_S = 0.0075

CALIBRATION_EVENTS = 5000


def cpu_seconds() -> float:
    """CPU seconds of this process (all threads) and its waited-for
    children, so work moved into helpers still counts."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibration_loop() -> float:
    """CPU seconds of a fixed pure-Python event loop (heap of timers,
    calls, dict updates), with the cyclic GC paused so the size of the
    caller's heap does not leak into the score."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        heap: list = []
        tally: dict = {}

        def fire(key: int, amount: int) -> None:
            tally[key % 97] = tally.get(key % 97, 0) + amount

        for i in range(CALIBRATION_EVENTS):
            heapq.heappush(heap, [i * 0.37 % 11.0, i, fire, (i, 1)])
        while heap:
            entry = heapq.heappop(heap)
            entry[2](*entry[3])
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()


class CalibratedClock:
    """Accumulates calibrated CPU seconds over laps.

    ``lap()`` closes the current lap; ``split()`` returns the calibrated
    seconds since the previous split (a phase) and the raw CPU seconds.
    """

    def __init__(self) -> None:
        self._calibration = calibration_loop()
        self._lap_start = cpu_seconds()
        self._calibrated = 0.0
        self._raw = 0.0

    def lap(self) -> None:
        elapsed = cpu_seconds() - self._lap_start
        calibration = calibration_loop()
        scale = 2.0 * REFERENCE_CALIBRATION_S / (
            self._calibration + calibration)
        self._calibrated += elapsed * scale
        self._raw += elapsed
        self._calibration = calibration
        self._lap_start = cpu_seconds()

    def split(self):
        """Close the lap and return ``(calibrated_s, raw_cpu_s)`` since
        the previous split."""
        self.lap()
        result = (self._calibrated, self._raw)
        self._calibrated = self._raw = 0.0
        return result
