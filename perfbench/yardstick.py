"""A fixed CPU kernel that tracks how fast the machine is running.

On a shared box the speed of identical work swings by up to 2x over
seconds to minutes, for every process at once.  The benchmark times
this kernel between blocks of real work; because the kernel never
changes, its time measures the machine, not the program.  Timing
metrics are scaled to a machine that runs the kernel in
:data:`NOMINAL_S` (see README.md, "Speed scaling").

The mix imitates the program's own: small numpy arrays, an FFT and a
peak scan, then a heap-and-dict loop in plain Python.  Changing this
kernel or :data:`NOMINAL_S` changes every scaled metric, so it is a
benchmark change of its own.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Wall seconds of one yardstick run on the reference machine.
NOMINAL_S = 0.005

_SIGNAL = np.sin(np.arange(1600) * 0.37)


def _kernel() -> int:
    mix = np.zeros(1600)
    peaks = 0
    for step in range(40):
        mix += _SIGNAL * (step * 0.01)
        magnitudes = np.abs(np.fft.rfft(mix * _SIGNAL, n=3200))
        peaks += len(np.where((magnitudes[1:-1] > magnitudes[:-2])
                              & (magnitudes[1:-1] >= magnitudes[2:]))[0])
    heap: list[tuple[int, int]] = []
    totals: dict[int, int] = {}
    for index in range(6000):
        heapq.heappush(heap, (index * 7 % 101, index))
        if len(heap) > 50:
            key, value = heapq.heappop(heap)
            totals[key] = totals.get(key, 0) + value
    return peaks + len(totals)


def yardstick() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
