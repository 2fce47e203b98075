"""Host speed, sampled while the timed jobs run.

The benchmark gets a few cores of a shared host whose speed drifts by a
fifth or more within minutes, so the same pass of jobs takes that much
longer or shorter from one run to the next.  To take the drift out of the
end-to-end times, a fixed pure-Python kernel that uses no properk code runs
every PERIOD_S seconds from a SIGALRM handler, in the benchmark's own
thread, between the bytecodes of whatever job is running.  Its median time
says how fast the host ran, over a job long enough to hold MIN_SAMPLES
samples and otherwise over the job's pass, and the job's time is scaled to
a host on which the kernel takes NOMINAL_S.  The handler's own time is
kept out of the job latencies.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

PERIOD_S = 0.1
NOMINAL_S = 0.005  # about the kernel's time on a quiet 2-CPU AMD EPYC guest
MIN_SAMPLES = 5  # samples a scale factor rests on; a pass with fewer tops up after it

_rng = random.Random(7)
# Integer elimination and dict probes, the operations properk spends its
# time in, over a table of a few MiB so that cache contention shows.  The
# kernel allocates no container objects, so it never triggers the cyclic GC.
_MATRIX = [[_rng.randrange(-9, 10) for _ in range(40)] for _ in range(40)]
_WORK = [row[:] for row in _MATRIX]
_TABLE = {(_rng.randrange(1 << 30), i): i for i in range(60_000)}
_KEYS = list(_TABLE)


def kernel() -> int:
    m = _WORK
    for row, src in zip(m, _MATRIX):
        row[:] = src
    n = len(m)
    for k in range(n - 1):
        pivot = m[k][k] or 1
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            for j in range(k, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) % 1_000_003
    total = 0
    for x in range(0, len(_KEYS), 7):
        total += _TABLE[_KEYS[(x * 7919) % len(_KEYS)]]
    return total


class HostSpeed:
    """Samples the kernel every PERIOD_S while active (a context manager).

    ``between`` gives the samples taken in an interval of perf_counter()
    time; ``end_pass`` returns each job's scale factor.
    """

    def __init__(self):
        # This pass's samples: when each started, in order, and what it took.
        self._starts: list[float] = []
        self._took: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        kernel()
        self._took.append(perf_counter() - start)
        self._starts.append(start)

    def between(self, start: float, end: float) -> list[float]:
        """The kernel times of the samples taken between two perf_counter()
        readings.  The handler runs between bytecodes, so a sample that
        started in the interval also ended in it."""
        return self._took[bisect_left(self._starts, start):bisect_left(self._starts, end)]

    def end_pass(self, job_samples: list[list[float]]) -> list[float]:
        """Per job, the factor that turns its times into nominal ones: from
        the samples taken during the job if there are MIN_SAMPLES of them,
        else from all the samples of the pass."""
        while len(self._took) < MIN_SAMPLES:
            self.sample()
        whole = NOMINAL_S / statistics.median(self._took)
        self._starts, self._took = [], []
        return [NOMINAL_S / statistics.median(s) if len(s) >= MIN_SAMPLES else whole
                for s in job_samples]

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
