"""Host-speed calibration of measured times.

The benchmark was measured on a 2-core x86_64 VM whose CPU is shared with
other tenants.  There the same 18-ray closure took anywhere from 0.41 s to
0.77 s within one minute, with process CPU time moving in step, so the
slowdown is the host's and not the program's; raw wall times of runs a
few minutes apart spread by 15-40 %.

To take that out, a fixed reference kernel that shares no code with the
program (small complex matrix products, a dict and frozensets: the same
mix of numpy calls and interpreter work as the program) is timed every
SAMPLE_EVERY_S seconds from a SIGALRM handler, so long jobs are sampled
while they run.  A job's time is its wall time minus the handler time
inside it; its calibrated time scales that by ``REF_NOMINAL_S`` over the
mean reference time sampled during the job and next to it.  On a quiet
host, where the kernel takes ``REF_NOMINAL_S``, calibrated and wall time
agree.  Wall times are reported beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import numpy as np

REF_NOMINAL_S = 0.0075  # about the kernel's time on that VM when quiet (Python 3.11, numpy 2.4)
REF_ITERATIONS = 600
SAMPLE_EVERY_S = 0.1

_MATRICES = [np.eye(4, dtype=complex) * (1 + 0.01 * i) for i in range(8)]


def _kernel(iterations: int) -> float:
    acc = 0.0
    table: dict[tuple[int, int], tuple[float, float]] = {}
    for i in range(iterations):
        a = _MATRICES[i % 8]
        b = _MATRICES[(i * 3) % 8]
        acc += float(np.trace(a @ b).real)
        if np.max(np.abs(a - b)) > 0.5:
            acc += 1.0
        table[(i, i & 7)] = (round(acc, 9), round(2 * acc, 9))
        acc += len(frozenset(j for j in range(8) if i >> j & 1))
    return acc


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel, after a short untimed
    warm-up (the caches are cold after a job), with the cyclic garbage
    collector paused so the program's heap cannot leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel(REF_ITERATIONS // 5)
        start = time.perf_counter()
        _kernel(REF_ITERATIONS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Context manager that samples the reference kernel on a timer.

    ``window(start, end)`` turns a measured interval into (net seconds,
    scale): net seconds leave out the sampling done inside the interval,
    and scale is REF_NOMINAL_S over the mean reference time of the samples
    inside it and of the nearest sample on each side.
    """

    def __init__(self):
        self.at: list[float] = []       # sample start times, increasing
        self.ref: list[float] = []      # reference kernel seconds
        self.took: list[float] = []     # handler seconds, kernel and warm-up
        self._busy = False

    def sample(self, *_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            ref = reference_seconds()
            self.at.append(start)
            self.ref.append(ref)
            self.took.append(time.perf_counter() - start)
        finally:
            self._busy = False

    def __enter__(self) -> "HostSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def window(self, start: float, end: float) -> tuple[float, float]:
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        net = (end - start) - sum(self.took[lo:hi])
        refs = self.ref[max(lo - 1, 0):hi + 1]
        return net, REF_NOMINAL_S * len(refs) / sum(refs)


def around(fn):
    """Run `fn` under a HostSampler: (result, net wall seconds, scale)."""
    with HostSampler() as host:
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
    return (result, *host.window(start, end))
