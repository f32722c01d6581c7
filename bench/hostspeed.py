"""Host-speed calibration: fixed work timed next to the measured work.

The shared host changes speed in phases of roughly 5-20 s: identical
passes run up to 40 % slower in a slow phase, in user time as well as
wall time, so the cause is not descheduling.  A run that falls in one
phase would move every median.  The timed metrics are therefore scaled by
REFERENCE_S / (calibration time around that pass or spawn), and the
median is taken over these scaled times: they are reported at a fixed
reference host speed.

One calibration sample times three pieces of frozen work that mirror what
the workloads do: float arithmetic in Python function calls (a copy of
the bound's objective A/B), building, sorting and serialising small
dicts and Fractions (sweeps and reports), and sorting and deduplicating
integer pairs with numpy (mesh topology).  It imports nothing that the
program does not import itself and keeps its memory to a few hundred kB,
so it does not move the peak RSS of the process it runs in; no change to
the program can change its cost.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np

#: Calibration time, in seconds, that defines the reference host speed.
REFERENCE_S = 0.06

_PAIRS = (np.arange(20000, dtype=np.int64) * 7919) % 20011


def _objective(k: float, n: int = 3, d: float = 0.1, H: float = 2.0, K: float = -0.5) -> float:
    B = (k * n * (1 - d) - n * n + 5 * n - 5) * H * H + (k * n * (1 - d) + n - 1) * min(0.0, K)
    return 4.0 * (k * (2 - n) + (n - 1)) / (4.0 - k * (n - 1)) / B if B > 0 else math.inf


def _work() -> float:
    acc = 0.0
    for _ in range(400):
        for i in range(64):
            acc += _objective(0.9 + 0.01 * i)
    rows = [{"n": i % 3 + 2, "delta": i * 1e-4, "c": math.sqrt(i + 1.0), "status": "pass"}
            for i in range(3000)]
    rows.sort(key=lambda r: r["c"] % 1.0)
    acc += len(json.dumps(rows))
    q = Fraction(0)
    for i in range(1, 300):
        q += Fraction(i, 7)
    acc += float(q)
    pairs = np.sort(np.stack([_PAIRS, _PAIRS[::-1]], axis=1), axis=1)
    acc += len(np.unique(pairs, axis=0))
    return acc


def sample() -> float:
    """Seconds that one run of the calibration work takes now."""
    t = time.perf_counter()
    acc = _work()
    elapsed = time.perf_counter() - t
    if not math.isfinite(acc):
        raise ArithmeticError("calibration work diverged")
    return elapsed
