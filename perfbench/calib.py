"""Fixed calibration kernel that tracks the speed of the host.

Raw request times on a shared virtual machine drift by tens of percent from
one second to the next while the CPU time of the process tracks its wall
time, so the host itself runs slower or faster (contention below the guest,
not preemption inside it).  The kernel below is timed before, during and
after every request, on the same CPU as the request, and every latency and
throughput is reported at a reference host speed:

    calibrated = raw * C_REF / (mean kernel time around and during the request)

The kernel mixes the two instruction kinds jspec spends its time in: scalar
Python float arithmetic (the double-double chain-sum loops) and numpy calls
on arrays of a dozen elements (the batched Sturm sweeps).  It runs only in
the client process, which never imports jspec, so no change to jspec can
make it faster or slower.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Mean kernel time, in seconds, on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6).  Calibrated times read as seconds on that host.
C_REF = 0.0024

WINDOW_S = 0.04  # kernel time spent between two requests
PERIOD_S = 0.1  # one kernel run per period while a request runs

_ROWS = 64
_DIAG = np.geomspace(1.0, 1e12, _ROWS)
_OFF = 0.5 * np.sqrt(_DIAG[:-1] * _DIAG[1:])
_SHIFTS = np.geomspace(2.0, 1e11, 14)


def kernel() -> int:
    """One unit of fixed work; returns a value so nothing is optimised away."""
    sh = sl = 0.0
    x = 1.0
    for _ in range(3000):
        p = x * 1.0000001
        s = sh + p  # two_sum
        bb = s - sh
        err = (sh - (s - bb)) + (p - bb)
        t = 134217729.0 * x  # Veltkamp split, as in two_prod
        hi = t - (t - x)
        sl += err + (x - hi) * 1e-17
        sh = s
        x = p
    counts = np.zeros(len(_SHIFTS), dtype=np.int64)
    for _ in range(6):
        d = _DIAG[0] - _SHIFTS
        counts += d < 0.0
        for i in range(1, _ROWS):
            o = _OFF[i - 1]
            d = (_DIAG[i] - _SHIFTS) - (o / d) * o
            counts += d < 0.0
    return int(counts.sum()) + int(sh + sl > 0.0)


def _timed_kernel() -> float:
    """CPU seconds of one kernel run.

    CPU time, not wall time: a kernel run that the scheduler interrupts to
    run the request would otherwise count the request's time as its own.
    The host's slowdowns show in CPU time as much as in wall time.
    """
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def window(seconds: float = WINDOW_S) -> list:
    """Kernel times of back-to-back runs filling ``seconds`` (at least three)."""
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < seconds:
        times.append(_timed_kernel())
    return times


class Clock:
    """Times one request at a time and the kernel before, during and after it.

    The client and the process serving the request share one CPU, and the
    client is idle while it waits, so a sampler thread runs the kernel once per
    ``PERIOD_S`` during the request.  The request is descheduled while the
    kernel runs, so the kernel's CPU time is taken off the raw latency.
    """

    def __init__(self):
        self._before = window()

    def measure(self, call):
        """Run ``call()``; return (raw seconds, mean kernel seconds, its result)."""
        during: list = []
        stop = threading.Event()

        def sample():
            while not stop.wait(PERIOD_S):
                a = time.perf_counter()
                cpu = _timed_kernel()
                during.append((a, time.perf_counter(), cpu))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        t0 = time.perf_counter()
        try:
            result = call()
            t1 = time.perf_counter()
        finally:
            stop.set()
            sampler.join()
        # the share of each kernel run that falls inside the request
        stolen = sum(cpu * max(0.0, min(b, t1) - max(a, t0)) / (b - a) for a, b, cpu in during if b > a)
        raw = (t1 - t0) - stolen
        after = window()
        cal = statistics.fmean(self._before + [cpu for _, _, cpu in during] + after)
        self._before = after
        return raw, cal, result
