"""Host-speed sampling, so that reported times do not follow the host.

The vCPUs this benchmark was developed on change speed by up to 1.6x
within seconds and by 2x within an hour, with no steal time to show for
it: other tenants share the cores.  Wall times taken at different moments
are then not comparable.  A child process therefore samples the speed of
its own vCPU while it works.  Every INTERVAL_S a SIGALRM handler times one
UNIT, a fixed pure-Python loop of about 0.1 ms, which costs about 0.6% of
the run.  The harmonic mean of the unit times over a stretch of work is the
time one unit took on average over it.  A time t measured over that stretch
becomes ``t * REF_UNIT_S / mean``: the time the same work takes at the
reference speed.  On that host this cut the spread of a driver's time from
11-17% to 4-5% (coefficient of variation over 8-12 processes).
"""

import signal
import statistics
import time

INTERVAL_S = 0.02
UNIT_ITERATIONS = 2000
#: time of one UNIT at the reference speed: roughly its median on a 2-vCPU
#: "Intel Xeon Processor" KVM guest with Python 3.11
REF_UNIT_S = 1.2e-4


def unit():
    total = 0
    for k in range(UNIT_ITERATIONS):
        total += k * k
    return total


class Pacer:
    """Times UNIT every INTERVAL_S of wall time until stopped."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        unit()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self):
        """The unit times sampled since the last take."""
        taken, self.samples = self.samples, []
        return taken


def mean_unit_s(samples):
    """Average unit time over the sampled stretch, or None without samples."""
    return statistics.harmonic_mean(samples) if samples else None


def scale(seconds, mean_unit):
    """`seconds` of work at the sampled speed, in seconds at REF_UNIT_S."""
    return seconds * REF_UNIT_S / mean_unit
