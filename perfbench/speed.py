"""Machine-speed calibration for timing on a shared, noisy host.

On a host whose cores are shared with other tenants the same code runs at
speeds that switch every few seconds (a factor of 1.5 to 2.5 was seen on a
2-core Intel Xeon virtual machine). A fixed kernel, written here and never
calling degen_kuramoto, is timed right before and right after every timed
operation, and the operation's time is divided by the host slowness this
gives. A change to the package cannot change the kernel, so its effect shows
in full, while most of the host's speed swings divide out.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 3.0e-3  # kernel time on the 2-core Intel Xeon VM in its fast state
# Package code slows by about the 0.7th power of the kernel's slowdown: the
# exponent that left the least spread in enumerate_cdes, integrate and
# rarity_experiment times against the kernel over 100 s on that host.
EXPONENT = 0.7

_X0 = np.linspace(0.0, 1.0, 64)
_IDX = np.arange(64) % 7


def _kernel():
    """Interpreter work mixed with small numpy calls, like the package's hot loops."""
    counts = {}
    x = _X0
    for i in range(12000):
        counts[i & 127] = counts.get(i & 127, 0) + 1
        if i % 20 == 0:
            x = np.sin(x) + 1e-3 * np.bincount(_IDX, weights=x, minlength=64)
    return x


def slowness(repeats: int = 3) -> float:
    """How many times slower than the reference host package code runs now.

    Uses the fastest of `repeats` kernel runs, which drops one-off
    interruptions; the speed state itself lasts seconds, far longer than
    the few milliseconds measured here.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return (best / REF_S) ** EXPONENT
