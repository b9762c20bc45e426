"""Scaling measured times to a nominal machine speed.

Shared machines run the same code up to twice as slowly while neighbours
are busy, in phases that last from seconds to minutes.  Medians over one
run cannot average that away: on a shared 2-vCPU Xeon virtual machine
(Python 3.11), two 40-second runs a minute apart differed by 20-50% in
their median pass time, with identical work.  So each worker also times
a fixed reference computation (stdlib only: no change to superbialg can
alter its cost) before the first job, every PERIOD_S seconds during the
pass from a timer signal, and after the last job.  A job's time is scaled
by NOMINAL_S over the mean reference time of the samples taken during it
and the nearest one on each side.  The time spent sampling is left out of
the job's time.

Reported times therefore read as seconds on a machine on which the
reference takes NOMINAL_S; they compare across runs on one machine, which
is what the benchmark is for.  Raw times are kept in the stamp.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002
PERIOD_S = 0.25


def _reference():
    """Rational arithmetic and dict updates, like the library's inner loops."""
    t = time.perf_counter()
    acc = {}
    for i in range(1, 400):
        key = (i % 17, (i * 7) % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i + 3) * Fraction(2, i + 1)
    return time.perf_counter() - t


def reference_s():
    """One speed sample: the fastest of three reference runs."""
    return min(_reference() for _ in range(3))


class SpeedLog:
    """Speed samples around and during a pass (a context manager)."""

    def __init__(self):
        self.samples = []   # (time, reference seconds)
        self.busy = []      # (start, end) of each sampling

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        r = reference_s()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, r))
        self.busy.append((t0, t1))

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def first(self):
        return self.samples[0][1]

    def job_time(self, start, end):
        """(raw, scaled) seconds from start to end, sampling left out."""
        raw = end - start - sum(min(e, end) - max(s, start)
                                for s, e in self.busy if s < end and e > start)
        before = [r for t, r in self.samples if t < start][-1:]
        inside = [r for t, r in self.samples if start <= t <= end]
        after = [r for t, r in self.samples if t > end][:1]
        return raw, raw * NOMINAL_S / statistics.mean(before + inside + after)
