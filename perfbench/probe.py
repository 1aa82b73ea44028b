"""A speed probe that samples how fast this process runs during a job.

On a shared machine the same job can take 1.6 times longer from one minute
to the next, as other tenants come and go. Part of that is time the process
waits for a core, which its CPU time leaves out; the rest is a core that runs
slower while other tenants share it, which CPU time does not leave out. The
probe measures the CPU time of a fixed kernel every ``INTERVAL`` seconds of
wall time from a signal handler, so its samples see the same slow and fast
stretches as the job around them. A job's CPU time divided by the mean
kernel CPU time is its time in kernel units. That figure drifts much less
than seconds do. The benchmark reports it as ``cpu_norm_s``: the time in
kernel units times ``NOMINAL_S``, which reads as seconds at a fixed nominal
machine speed.

The kernel is shaped like one step of the rice_game rollout: a short Python
loop of numpy operations on 12-element arrays. It is part of the benchmark,
so no change to the package moves it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds of wall time between samples.
INTERVAL = 0.02
#: Loop length of one sample.
KERNEL_STEPS = 40
#: Nominal kernel CPU time, the unit conversion of ``cpu_norm_s``. It is the
#: kernel's typical time on the shared 2-core x86-64 VM the benchmark was tuned
#: on, where its mean over a job ranged from 0.39 to 0.50 ms.
NOMINAL_S = 4e-4

_X0 = np.linspace(0.5, 1.5, 12)


def kernel(steps: int = KERNEL_STEPS) -> float:
    x, acc = _X0, 0.0
    for _ in range(steps):
        y = np.maximum(x * 1.01, 0.2) ** 0.7
        acc += float(y @ x)
        x = np.clip(y + 0.3, 0.5, 1.5)
    return acc


class SpeedProbe:
    """Times the CPU time of :func:`kernel` every ``INTERVAL`` seconds of
    wall time while its block runs.

    Uses ``SIGALRM``, so it must run in the main thread.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.process_time()
        kernel()
        self.samples.append(time.process_time() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self._sample(None, None)
        return False

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
