"""Machine-speed reference for the end-to-end times.

The benchmark was defined on a shared VM (2 vCPUs) whose speed for the same
code changes by a factor of about 1.6 every few seconds, separately on each
vCPU: a pure-Python loop alternated between 26 ms and 42 ms, and
``ensemble_long`` rounds went from 2.0 s to 4.1 s and back within one run.
No summary of raw round times (median, lower quartile, fastest) stayed within
the time bounds from one run to the next.

So the end-to-end times are reported in reference seconds.  ``factor()``
times four fixed kernels that use numpy only, never the package under test,
and returns the geometric mean of their measured times over the pinned times
below: the machine's current slowdown.  ``Clock`` reads the factor every
``INTERVAL`` seconds while timed work runs, from a SIGALRM handler that the
interpreter runs between bytecodes, and adds up each slice of work divided
by the mean factor at its two ends; the handler's own time is left out.  A
reference second is a wall second of a machine on which each kernel takes
its pinned time.  In one 75 s recording the spread (interquartile range over
median) of ``ensemble_long`` unit times was 0.47 raw and 0.10 in reference
seconds with readings every 0.2 s, and 0.12 when only every other reading
was used.  A later recording with readings every 0.1 s, which cost about 3 %
of the time, gave 0.07 (0.10 raw).

The kernels mirror the workloads' kinds of work: interpreter loops, numpy
calls on 3-vectors (single-path stepping), on 2000 x 3 arrays (the ensemble
kernel) and a stencil on a 24^3 grid (the grid operator).  A program change
cannot move their inputs or code, but anything it left running in the
process between calls (threads, say) would slow them and so shrink the
reported times; the workloads run with one thread.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

_RNG = np.random.default_rng(20261017)
_VEC = _RNG.standard_normal(3)
_ROWS = _RNG.standard_normal((2_000, 3))
_CUBE = _RNG.standard_normal((24, 24, 24))


def _interpreter():
    acc = 0.0
    for i in range(8_000):
        acc += 0.5 * i if i % 3 else -i
    return acc


def _vectors():
    x = _VEC
    for _ in range(30):
        x = x + 1e-3 * np.cross(x, _VEC)
    return x


def _rows():
    x = _ROWS
    for _ in range(14):
        x = x + 1e-3 * np.cross(x, _ROWS)
    return x


def _stencil():
    u = _CUBE
    for _ in range(6):
        v = -6.0 * u
        v[1:] += u[:-1]
        v[:-1] += u[1:]
        v[:, 1:] += u[:, :-1]
        v[:, :-1] += u[:, 1:]
        v[:, :, 1:] += u[:, :, :-1]
        v[:, :, :-1] += u[:, :, 1:]
        u = u + 1e-3 * v
    return u


# Seconds per kernel call at factor 1: about the fastest calls seen when the
# benchmark was defined (Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
KERNELS = (
    (_interpreter, 6.5e-4),
    (_vectors, 7.5e-4),
    (_rows, 7.0e-4),
    (_stencil, 8.5e-4),
)
INTERVAL = 0.1


def factor() -> float:
    """The machine's current slowdown against the pinned kernel times."""
    logs = 0.0
    for kernel, pinned in KERNELS:
        t0 = time.perf_counter()
        kernel()
        logs += math.log((time.perf_counter() - t0) / pinned)
    return math.exp(logs / len(KERNELS))


class Clock:
    """Times calls in wall seconds and in reference seconds.

    ``time(fn)`` runs ``fn()`` with speed readings every ``INTERVAL`` s and
    returns ``(wall_s, reference_s)``; both leave out the readings' own time.
    The factor read at the end of one call is the start of the next, and
    ``reads`` keeps every factor read.
    """

    def __init__(self):
        self.reads = [factor()]
        self._busy = False

    def time(self, fn):
        self._wall = self._ref = 0.0
        self._mark = time.perf_counter()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._read(time.perf_counter())
        return self._wall, self._ref

    def _tick(self, signum, frame):
        if not self._busy:  # a tick that arrives during a reading is dropped
            self._busy = True
            self._read(time.perf_counter())
            self._mark = time.perf_counter()
            self._busy = False

    def _read(self, now):
        f = factor()
        slice_s = now - self._mark
        self._wall += slice_s
        self._ref += slice_s / (0.5 * (self.reads[-1] + f))
        self.reads.append(f)
