"""Machine-speed reference sampled during the timed phase.

The benchmark runs on shared hosts whose speed drifts by 20-40 % over tens
of seconds and by more over fractions of a second, since other tenants
compete for the same cores and caches.  A fixed pure-Python loop, run every
few tens of milliseconds from a timer signal, slows down with the workload;
dividing an op's time by the mean pass time of the loop during and around
the op cancels most of the drift.  The time spent in the loop is taken out
of the op's time again.  The loop has an arithmetic half, which tracks the
numpy-heavy workloads best, and a dict-of-tuples half, which tracks the
exact-arithmetic ones best.  One ``ref`` is one pass of the loop, a few
milliseconds on a current x86 core.

The loop never calls the library, so a change to ``liebox`` moves the
workload's times and leaves the reference alone.
"""

import signal
import time

import numpy as np

MARGIN_S = 0.25  # an op's reference also covers the passes this close to it


def reference_loop():
    s = 0
    for i in range(15_000):
        s += i * i % 7
    d = {}
    for i in range(3_000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    return s, d


class RefClock:
    """One reference pass every ``every`` seconds while the clock runs.

    Use as a context manager around the timed phase.  ``spent`` is the time
    spent in passes so far; a caller subtracts its growth over an op from
    the op's wall time.
    """

    def __init__(self, every=0.05):
        self.every = every
        self.starts, self.ends = [], []
        self.spent = 0.0
        self._busy = False
        for _ in range(20):  # let the interpreter specialise the loop
            reference_loop()

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a pass is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.spent += t1 - t0
        self._busy = False

    def __enter__(self):
        self._tick(None, None)  # so that even the shortest phase has a pass
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def pass_seconds(self):
        return [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]

    def per_op(self, starts, ends):
        """Mean pass time over the passes within ``MARGIN_S`` of each op.

        An op with no pass that close takes the nearest one on each side.
        """
        mids = 0.5 * (np.asarray(self.starts) + np.asarray(self.ends))
        total = np.concatenate([[0.0], np.cumsum(self.pass_seconds())])
        lo = np.searchsorted(mids, np.asarray(starts) - MARGIN_S)
        hi = np.searchsorted(mids, np.asarray(ends) + MARGIN_S, side="right")
        empty = hi <= lo
        lo = np.where(empty, np.maximum(lo - 1, 0), lo)
        hi = np.where(empty, np.minimum(hi + 1, len(mids)), hi)
        return (total[hi] - total[lo]) / (hi - lo)
