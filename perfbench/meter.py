"""Operation timing corrected for the speed of a shared host.

On a shared machine the same work runs up to ~45% slower for stretches of
five to twenty seconds, which no median inside one run can remove.  The
meter therefore runs a short fixed calibration kernel (a Python loop and
batched 3x3 `eigvalsh`, benchmark code that no sepscan change touches)
at most every CALIB_EVERY_S between operations.  An operation's corrected
time is its wall time times CALIB_REF_S over the mean of the calibrations
just before and just after it: seconds on a host running the kernel in
CALIB_REF_S.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# median kernel time on the 2-core reference machine of README.md
CALIB_REF_S = 0.016
CALIB_EVERY_S = 0.5

_STACK = np.random.default_rng(0).standard_normal((2000, 3, 3))
_STACK = _STACK + _STACK.transpose(0, 2, 1)


def kernel() -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(4):
        np.linalg.eigvalsh(_STACK)


class Meter:
    def __init__(self):
        self._ends: list[float] = []  # end time of each calibration
        self._spans: list[float] = []  # its duration

    def calibrate(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self._ends.append(t1)
        self._spans.append(t1 - t0)

    def call(self, op: dict, fn, *args, **kwargs):
        """Run one program call, adding its wall time to op["seconds"] and
        recording an exception on the operation."""
        if not self._ends or perf_counter() - self._ends[-1] >= CALIB_EVERY_S:
            self.calibrate()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is counted, not raised
            op["error"] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            t1 = perf_counter()
            op["seconds"] = op.get("seconds", 0.0) + t1 - t0
            op.setdefault("start", t0)
            op["end"] = t1

    def factor(self, start: float, end: float) -> float:
        """CALIB_REF_S over the calibrations bracketing [start, end]."""
        i = bisect.bisect_right(self._ends, start)
        j = bisect.bisect_left(self._ends, end)
        near = self._spans[i - 1 : i] + self._spans[j : j + 1]
        if not near:
            raise RuntimeError("no calibration near the interval")
        return CALIB_REF_S * len(near) / sum(near)

    def median_kernel_s(self) -> float:
        return statistics.median(self._spans) if self._spans else 0.0

    def corrected(self, start: float, end: float, seconds: float) -> float:
        return seconds * self.factor(start, end)
