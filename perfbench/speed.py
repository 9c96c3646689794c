"""The host's speed, read from a fixed reference kernel.

The cores of the host this benchmark was built on run in a fast state and
slower states, up to 2x slower for the kernel below; the state switches
every few seconds or holds for minutes, whatever this process does, and CPU
time grows with wall time, so it is not time stolen by the hypervisor.  A
raw timing therefore says as much about the host's state as about the
package.

A SpeedMeter times a fixed kernel (plain interpreter work: a loop, integer
arithmetic, a dict; it allocates no container, so it never starts the
garbage collector) from a SIGALRM handler every INTERVAL_S, in the pass's
own thread, and keeps a clock that leaves out the time spent in the
handler.  `scaled` turns a span of that clock into seconds at the reference
speed: each stretch between two readings counts REFERENCE_S over the
kernel's time there.
"""

from __future__ import annotations

import bisect
import signal
import time

KERNEL_ROUNDS = 1000
REPEATS = 2
INTERVAL_S = 0.025
# The kernel's time in the fast state of the host the reference figures in
# README.md come from, so that scaled times read as that host's fast-state
# seconds.
REFERENCE_S = 110e-6


def _kernel() -> dict:
    d: dict = {}
    for i in range(KERNEL_ROUNDS):
        key = i & 255
        d[key] = d.get(key, 0) + i * 7 % 13
    return d


def kernel_seconds() -> float:
    """The kernel's fastest time over REPEATS back-to-back runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedMeter:
    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (clock(), kernel seconds)
        self.paused = 0.0  # seconds spent reading the kernel

    def clock(self) -> float:
        """perf_counter without the time spent reading the kernel."""
        return time.perf_counter() - self.paused

    def _read(self, *_signal) -> None:
        start = time.perf_counter()
        kernel = kernel_seconds()
        self.readings.append((start - self.paused, kernel))
        self.paused += time.perf_counter() - start

    def start(self) -> None:
        self._read()
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._read()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of clock() from start to end, at the reference speed.
        Before the first reading and after the last, the nearest reading
        holds."""
        times = [t for t, _ in self.readings]
        kernels = [k for _, k in self.readings]
        last = len(times) - 1
        total = 0.0
        j = bisect.bisect_right(times, start) - 1  # the last reading at or before start
        while start < end:
            if j < 0:
                stretch_end, kernel = times[0], kernels[0]
            elif j == last:
                stretch_end, kernel = end, kernels[last]
            else:
                stretch_end, kernel = times[j + 1], (kernels[j] + kernels[j + 1]) / 2
            upto = min(end, stretch_end)
            total += (upto - start) * REFERENCE_S / kernel
            start = upto
            j += 1
        return total
