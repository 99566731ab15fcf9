"""A fixed reference kernel that gauges how fast the machine runs right now.

The reference machine is a 2-core KVM guest that shares its host with other
guests.  Its speed drifts by up to a half over tens of seconds to minutes,
so raw wall times of the same operation spread by 20-45% between windows
of a few operations.
The kernel below does a fixed amount of work of the same kind as gldd's
hot loops: a Python loop of small NumPy calls (as in point location and
per-cell assembly) and plain Python arithmetic on floats and dicts.  It
never changes with the program, so the ratio of an operation's wall time
to the kernel's time, measured right before and right after it, tracks the
program and cancels most of the machine's drift.

Times reported "at reference speed" are wall times multiplied by
``REF_S / kernel time``: the wall time the operation would take on a
machine where the kernel takes ``REF_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed scale: about the kernel's time on the reference machine (Python
# 3.11.7, numpy 2.4.6, one BLAS thread) under the load it usually carries,
# where the kernel took 0.13 s to 0.22 s.
REF_S = 0.2

_POINTS = np.random.default_rng(0).random((8000, 2))
_ORIGIN = np.array([0.25, 0.5])
_INV = np.linalg.inv(np.array([[1.0, 0.2], [0.1, 1.0]]))


def _numpy_loop():
    inside = 0
    for x in _POINTS:
        rest = _INV @ (x - _ORIGIN)
        lam = np.concatenate([[1.0 - rest.sum()], rest])
        inside += bool(np.all(lam >= -1e-12))
    return inside


def _python_loop():
    table = {}
    total = 0.0
    for i in range(240000):
        k = (i * 7919) % 1000
        table[k] = table.get(k, 0.0) + i * 0.5
        total += table[k] / (k + 1)
    return total


def measure():
    """Wall time of one pass of the reference kernel, in seconds."""
    t = time.perf_counter()
    _numpy_loop()
    _python_loop()
    return time.perf_counter() - t
