"""Speed calibration: a fixed piece of work, timed next to every operation.

The machine the benchmark runs on may be a few virtual cores of a shared
host whose speed changes by up to half within seconds and from one run to
the next, for the program and for any other code alike.  ``calibrate()``
times a fixed mix of the kinds of work the program does (dictionaries keyed
by exponent tuples, small-integer arithmetic, int64 matrix products) in
the same process, right before and right after an operation.  An
operation's latency times ``REFERENCE_S`` over the calibration's time is
its latency on the machine running at the reference speed, at which the
calibration takes exactly ``REFERENCE_S``.

The work uses nothing from the program, so a change to the program moves
the operation's time and not the calibration's.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.003

_SIZE = 6
_LEFT = (np.arange(600 * _SIZE, dtype=np.int64).reshape(600, _SIZE) % 7) - 3
_RIGHT = (np.arange(_SIZE * _SIZE, dtype=np.int64).reshape(_SIZE, _SIZE) % 5) - 2


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _work() -> int:
    base = {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): 3, (0, 0, 0): 1}
    total = 0
    for _ in range(2):
        acc = dict(base)
        for _ in range(6):
            acc = _poly_mul(acc, base)
        total += sum(acc.values())
    m = _LEFT
    for _ in range(16):
        m = (m @ _RIGHT) % 1009
    return total + int(m[0, 0])


def calibrate() -> float:
    """Seconds the fixed work takes now.

    The garbage collector is off meanwhile, so that the time does not
    include collecting what an operation left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
