"""A fixed stretch of interpreter work that measures the machine's current speed.

The machine this benchmark was built on runs the same Python code at speeds
up to about 2 times apart, switching every few seconds and drifting over
minutes, and CPU time moves with wall time. Timing this loop next to the
workload tells how fast the machine runs at that moment, so a time can be
scaled to what it would read at a nominal speed. The loop uses no arabiclint
code and allocates no container, so it never triggers the garbage collector.
"""

import time

# Seconds one `loop()` call takes at the nominal speed: about its time on
# a 2-CPU Xeon box (Python 3.11) in its faster phases.
NOMINAL_S = 0.0008

_KEYS = tuple(f"key{i:03d}" for i in range(100))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def loop() -> int:
    total = 0
    for _ in range(64):
        for key in _KEYS:
            total += _TABLE[key] + len(key[1:]) + (total & 7)
    return total


def slowdown(repeats: int = 3) -> float:
    """Current speed relative to nominal: 1.5 means times read 1.5 times long."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - started)
    return best / NOMINAL_S
