"""A fixed reference computation that gauges how fast the host runs now.

The benchmark's host is shared, and its speed swings by up to 1.7x, within
seconds and between runs, for every kind of work at once (process CPU time
swings as much as wall time). The harness times ``kernel()`` right before
each timed stage call and scales the call's time by ``REF_S`` over that
reading, which gives the call's time on a host where the kernel takes
``REF_S``. The kernel does the three kinds of work the pipeline does:
interpreted float and dict work (``holes``, ``geometry``), numpy array
masks (``oracle``) and string formatting (``render``, ``files``). It uses
no tricover code, so a change to the program cannot change it.
"""
from __future__ import annotations

from math import atan2, hypot, sqrt
from time import perf_counter

import numpy as np

# The kernel's time on the reference host, about its time on a quiet
# 2-core Intel Xeon KVM guest with Python 3.11 and numpy 2.4.
REF_S = 0.030

_CENTERS = np.random.default_rng(1).random((20, 2)) * 100.0


def _interpreted() -> float:
    total, table = 0.0, {}
    for i in range(12_000):
        x, y = i * 0.37 % 10.0, i * 0.11 % 7.0
        total += hypot(x, y) * atan2(y, x + 1.0) + sqrt(i)
        table[(i & 511, i & 7)] = total
    return total


def _arrays() -> int:
    points = np.random.default_rng(2).random((40_000, 2)) * 100.0
    covered = np.zeros(len(points), dtype=bool)
    for center in _CENTERS:
        covered |= ((points - center) ** 2).sum(axis=1) <= 25.0
    return int(covered.sum())


def _strings() -> int:
    return len("".join(f'<circle cx="{i * 0.1:.3f}" cy="{i * 0.2:.3f}" r="1.5"/>' for i in range(8_000)))


def kernel() -> None:
    _interpreted()
    _arrays()
    _strings()


def seconds() -> float:
    """Wall time of one ``kernel()`` call."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
