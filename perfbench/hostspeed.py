"""Host-speed probe: rescales wall times to a reference host speed.

On a shared virtual machine a fixed CPU-bound loop runs at speeds up to about
1.5x apart, each lasting from 5 s to over 30 s; process CPU time follows the
same pattern, so no timer of the program alone can tell a slower program from
a slower host. The probe measures the host instead. Three small kernels that
do not touch geogasket (Python bytecode, small-array numpy and a json round
trip, the kinds of work the program's layers do) are timed in the thread's
own CPU time, so that waiting for the GIL never counts. Their geometric mean,
over ``REFERENCE_S``, is the host's slowness at that moment. A streaming sum
over a large array is not among them: it tracked the program's speed worse.

While ``start`` is in force the probe runs every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, between bytecodes of the main thread (a long native call
delays it until it returns). ``rescale`` splits an interval at the probes
inside it, drops the probe's own time, and divides each stretch by the
median slowness of the probes nearest to it. The result is the interval's
length in reference seconds: the time it would have taken on a host where
the probe reads ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.2
# about the kernels' geometric mean time on a 2-vCPU Xeon VM in its fast phase
REFERENCE_S = 0.6e-3
NEIGHBOURS = 2  # probes on each side that a stretch's slowness is taken over

_SMALL = np.linspace(0.0, 1.0, 64)
_DOC = {"a": [1.5, 2.5, 3.5] * 20, "b": {"c": "xyz" * 10, "d": list(range(50))}}


def _python():
    s = 0
    for i in range(8000):
        s += i * i
    return s


def _numpy():
    a = _SMALL
    for _ in range(150):
        a = np.sqrt(a * a + 1.0)
    return a


def _json():
    for _ in range(20):
        json.loads(json.dumps(_DOC))


KERNELS = (_python, _numpy, _json)


def kernel_times() -> list:
    """Thread CPU seconds of one call of each kernel.

    The garbage collector is off meanwhile: a collection triggered by the
    kernels' allocations would scan the program's heap and time that.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for kernel in KERNELS:
            start = thread_time()
            kernel()
            times.append(max(thread_time() - start, 1e-9))
        return times
    finally:
        if enabled:
            gc.enable()


def slowness(times) -> float:
    """Kernel time geometric mean over ``REFERENCE_S``."""
    return math.exp(sum(math.log(t) for t in times) / len(times)) / REFERENCE_S


def slowness_median(n: int = 9, warm: int = 3) -> float:
    for _ in range(warm):
        kernel_times()
    return statistics.median(slowness(kernel_times()) for _ in range(n))


class HostProbe:
    """Periodic probe of the host's slowness, and rescaling by it."""

    def __init__(self):
        self.starts = []  # perf_counter at each probe's start
        self.ends = []
        self.values = []
        self.kernels = []  # kernel_times() of each probe
        self.busy = False

    def _probe(self, signum=None, frame=None):
        if self.busy:  # a signal that arrives during a probe is dropped
            return
        self.busy = True
        start = perf_counter()
        times = kernel_times()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.kernels.append(times)
        self.values.append(slowness(times))
        self.busy = False

    def start(self):
        slowness_median(n=1)  # warm the kernels
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def _near(self, i: int) -> float:
        lo, hi = max(0, i - NEIGHBOURS), min(len(self.values), i + NEIGHBOURS + 1)
        return statistics.median(self.values[lo:hi])

    def rescale(self, t0: float, t1: float):
        """(wall, reference) seconds of [t0, t1], less the probes inside it."""
        wall = ref = 0.0
        i = bisect.bisect_left(self.starts, t0)
        prev = t0
        while True:
            inside = i < len(self.starts) and self.starts[i] < t1
            cut = self.starts[i] if inside else t1
            stretch = max(0.0, cut - prev)
            wall += stretch
            ref += stretch / self._near(min(i, len(self.values) - 1))
            if not inside:
                return wall, ref
            prev = self.ends[i]
            i += 1
