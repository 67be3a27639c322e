"""Host-speed probe: times reported at a fixed reference speed.

On a shared virtual machine the same pure-Python code runs at speeds
up to ~1.45x apart, drifting over tens of seconds as other tenants load
the host; wall and CPU time both follow the drift.  A `Probe` runs a
short fixed piece of pure-Python work (`_spin`) in the measured process
every `PERIOD_S`, from a SIGALRM handler, so it samples the speed the
program gets at that moment.  A time measured over [t0, t1] is reported
as

    (measured_s - probe time inside) * REF_S / (median probe duration)

i.e. in seconds at the speed at which `_spin` takes `REF_S`.  The probe
does no divlat work, so a change to divlat moves the scaled time by the
same share as the raw one; only the host's drift is divided out.  The
probe takes about 3% of the process's time.
"""

from __future__ import annotations

import signal
import statistics
import time

#: interval between probe samples
PERIOD_S = 0.03
#: the probe's duration at the reference speed, about its median on a
#: 2-vCPU Intel Xeon virtual machine, Python 3.11
REF_S = 0.001
#: an interval with fewer samples in it borrows its nearest neighbours
MIN_SAMPLES = 5


def _spin() -> int:
    """The probe's work: small-int bytecode, big-int arithmetic, list
    sorting and slicing, a mix of what divlat's pure-Python layers do."""
    s = 0
    for i in range(2500):
        s += i * i % 7
    x = (1 << 200) + 12345
    m = (1 << 257) - 1
    for i in range(400):
        x = (x * x + i) % m
    xs = sorted((i * 7919) % 10007 for i in range(800))
    for j in range(0, 800, 4):
        s += max(xs[j:j + 30])
    return s + x


class Probe:
    """Samples (midpoint, duration) of the probe loop in this process.

    `spent` is the total time the probe has taken so far; the time a
    timed interval [a, b] spent in the probe is the difference of its
    readings at a and b.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _spin()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median probe duration during [t0, t1].

        t0 and t1 are ``time.perf_counter()`` readings.
        """
        if not self.samples:
            self._sample()
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in near[:MIN_SAMPLES]]
        return REF_S / statistics.median(inside)
